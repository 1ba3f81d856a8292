"""Per-area reference implementation of the assessment, used as a test oracle.

Every formula is written here in its scalar or per-area form: one m x T
matrix per area, the scalar standardizers applied cell by cell, incidence
computed factor by factor, the objective H evaluated directly, and ranks
counted in O(n^2). The library computes the same quantities on one
(n, m, T) array; tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from greyrisk import ZeroingMode, apply_weights, incidence
from greyrisk.model import AssessmentInput, IndexDefinition, OrientationKind, index_extrema
from greyrisk.normalize import _median_and_max_dev
from greyrisk.ranking import RISK_THRESHOLDS, DegenerateAssessmentError, RiskLevel


@dataclass(frozen=True)
class IndexExtrema:
    """Global reduction of one index over all areas and periods.

    ``medians`` (length T) and ``max_abs_dev`` are populated only for
    intermediate indices.
    """

    index_id: str
    min_val: float
    max_val: float
    medians: np.ndarray | None = None
    max_abs_dev: float | None = None

    @property
    def span(self) -> float:
        return self.max_val - self.min_val


def compute_extrema(inp: AssessmentInput) -> list[IndexExtrema]:
    """Per-index min/max over every area and period, plus median statistics
    for intermediate indices."""
    out: list[IndexExtrema] = []
    for j, d in enumerate(inp.indices):
        rows = inp.values[:, j, :]  # n x T
        medians = None
        max_abs_dev = None
        if d.orientation.kind is OrientationKind.INTERMEDIATE:
            medians = np.median(rows, axis=0)
            max_abs_dev = float(np.abs(rows - medians[None, :]).max())
        out.append(IndexExtrema(d.id, float(rows.min()), float(rows.max()),
                                medians, max_abs_dev))
    return out


def standardize_benefit(a: float, extrema: IndexExtrema) -> float:
    if extrema.span == 0.0:
        return 0.5
    return (a - extrema.min_val) / extrema.span


def standardize_cost(a: float, extrema: IndexExtrema) -> float:
    if extrema.span == 0.0:
        return 0.5
    return 1.0 - (a - extrema.min_val) / extrema.span


def standardize_intermediate(a: float, t: int, extrema: IndexExtrema) -> float:
    """t is the 0-based period position into ``extrema.medians``."""
    if extrema.medians is None or extrema.max_abs_dev is None:
        raise ValueError(f"index '{extrema.index_id}': extrema lack median statistics")
    if extrema.max_abs_dev == 0.0:
        return 1.0
    return 1.0 - abs(a - float(extrema.medians[t])) / extrema.max_abs_dev


def standardize_interval(a: float, extrema: IndexExtrema, low: float, high: float) -> float:
    if low <= a <= high:
        return 1.0
    den = max(low - extrema.min_val, extrema.max_val - high)
    if den <= 0.0:
        return 1.0
    if a < low:
        return 1.0 - (low - a) / den
    return 1.0 - (a - high) / den


def standardize_all(inp: AssessmentInput) -> list[np.ndarray]:
    """Standardized m x T matrix of every area, cell by cell."""
    extrema = compute_extrema(inp)
    out = []
    for raw in inp.values:
        b = np.empty_like(raw)
        for j, d in enumerate(inp.indices):
            ex, o = extrema[j], d.orientation
            for t, v in enumerate(raw[j]):
                v = float(v)
                if o.kind is OrientationKind.BENEFIT:
                    b[j, t] = standardize_benefit(v, ex)
                elif o.kind is OrientationKind.COST:
                    b[j, t] = standardize_cost(v, ex)
                elif o.kind is OrientationKind.INTERMEDIATE:
                    b[j, t] = standardize_intermediate(v, t, ex)
                else:
                    b[j, t] = standardize_interval(v, ex, o.interval_low, o.interval_high)
        out.append(b)
    return out


def zeroing_image(c: np.ndarray, mode: ZeroingMode) -> np.ndarray:
    if mode is ZeroingMode.FIRST_COLUMN:
        return c - c[:, :1]
    if mode is ZeroingMode.FIRST_ELEMENT:
        return c - c[0, 0]
    return c.copy()


def local_volume(z: np.ndarray) -> np.ndarray:
    return (z[:-1, :-1] + z[1:, 1:]) / 6.0 + (z[1:, :-1] + z[:-1, 1:]) / 3.0


@dataclass(frozen=True)
class FamilyResult:
    volume_diffs: tuple[np.ndarray, ...]
    d_max: float
    d_min: float
    coefficients: tuple[np.ndarray, ...]
    degrees: tuple[float, ...]


def incidence_family(reference: np.ndarray, factors: Sequence[np.ndarray],
                     mode: ZeroingMode = ZeroingMode.FIRST_COLUMN) -> FamilyResult:
    """Incidence of each factor matrix against the reference, factor by factor."""
    d0 = local_volume(zeroing_image(np.asarray(reference, dtype=float), mode))
    diffs = tuple(
        np.abs(d0 - local_volume(zeroing_image(np.asarray(f, dtype=float), mode)))
        for f in factors
    )
    d_max = float(max(d.max() for d in diffs))
    d_min = float(min(d.min() for d in diffs))
    if d_max == d_min:
        coeffs = tuple(np.ones_like(d) for d in diffs)
    else:
        coeffs = tuple((d_max - d) / (d_max - d_min) for d in diffs)
    return FamilyResult(diffs, d_max, d_min, coeffs, tuple(float(g.mean()) for g in coeffs))


def superiority_degree(gamma_pos: float, gamma_neg: float) -> float:
    if not (0.0 <= gamma_pos <= 1.0 and 0.0 <= gamma_neg <= 1.0):
        raise ValueError(f"incidence degrees must lie in [0, 1], got ({gamma_pos}, {gamma_neg})")
    if gamma_pos == 0.0 and gamma_neg == 0.0:
        raise DegenerateAssessmentError("both incidence degrees are zero")
    return gamma_pos**2 / (gamma_pos**2 + gamma_neg**2)


def objective_H(s: Sequence[float], gammas_pos: Sequence[float],
                gammas_neg: Sequence[float]) -> float:
    """The ranking objective H, evaluated directly to check the closed form's minimality."""
    s = np.asarray(s, dtype=float)
    gp = np.asarray(gammas_pos, dtype=float)
    gn = np.asarray(gammas_neg, dtype=float)
    if not (s.shape == gp.shape == gn.shape):
        raise ValueError(f"length mismatch: {s.shape}, {gp.shape}, {gn.shape}")
    return float((((1.0 - s) * gp) ** 2 + (s * gn) ** 2).sum())


def classify(s: float) -> RiskLevel:
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"superiority degree must lie in [0, 1], got {s!r}")
    for level, threshold in zip(RiskLevel, RISK_THRESHOLDS):
        if s <= threshold:
            return level
    return RiskLevel.EXTREMELY_HIGH


def rank_areas(results: Sequence[tuple[str, float]]) -> list[tuple[str, float, int, bool]]:
    """(name, s, rank, tied) in rank order, counting larger degrees pairwise."""
    entries = [(name, float(s)) for name, s in results]
    order = sorted(range(len(entries)), key=lambda i: (-entries[i][1], i))
    ranked = []
    for i in order:
        name, s = entries[i]
        greater = sum(1 for _, v in entries if v > s)
        equal = sum(1 for _, v in entries if v == s)
        ranked.append((name, s, greater + 1, equal > 1))
    return ranked


def assess(inp: AssessmentInput, mode: ZeroingMode = ZeroingMode.FIRST_COLUMN) -> list[dict]:
    """Report rows of the whole assessment, in rank order, with renormalized weights."""
    lam = inp.index_weights / inp.index_weights.sum()
    theta = inp.time_weights / inp.time_weights.sum()
    cs = [lam[:, None] * b * theta[None, :] for b in standardize_all(inp)]
    fam_pos = incidence_family(np.maximum.reduce(cs), cs, mode)
    fam_neg = incidence_family(np.minimum.reduce(cs), cs, mode)
    gammas = {name: (gp, gn)
              for name, gp, gn in zip(inp.area_names, fam_pos.degrees, fam_neg.degrees)}
    ranked = rank_areas([(name, superiority_degree(gp, gn)) for name, (gp, gn) in gammas.items()])
    return [
        {"name": name, "gamma_pos": gammas[name][0], "gamma_neg": gammas[name][1],
         "superiority": s, "rank": rank, "level": classify(s), "tied": tied}
        for name, s, rank, tied in ranked
    ]


# --- earlier whole-array forms of the vectorized stages --------------------
# The library's standardization, weighting and re-basing were rewritten to take
# fewer and longer numpy passes; these are the plainer forms they replaced, and
# the rewrites must give the same bits.

def standardize_by_row(values: np.ndarray, indices: Sequence[IndexDefinition]) -> np.ndarray:
    """Standardized (n, m, T) scores, one index row at a time, with ``np.median``."""
    values = np.array(values, dtype=float)
    lows, highs = index_extrema(values)
    for j, d in enumerate(indices):
        a = values[:, j, :]
        lo, hi = lows[j], highs[j]
        span = hi - lo
        kind = d.orientation.kind
        if kind is OrientationKind.BENEFIT:
            a[...] = 0.5 if span == 0.0 else (a - lo) / span
        elif kind is OrientationKind.COST:
            a[...] = 0.5 if span == 0.0 else 1.0 - (a - lo) / span
        elif kind is OrientationKind.INTERMEDIATE:
            dev = np.abs(a - np.median(a, axis=0))
            max_dev = dev.max()
            a[...] = 1.0 if max_dev == 0.0 else 1.0 - dev / max_dev
        else:
            low, high = d.orientation.interval_low, d.orientation.interval_high
            den = max(low - lo, hi - high)
            if den <= 0.0:
                a[...] = 1.0
            else:
                # np.where computes both branches for every cell, and the one it does not
                # select may overflow (a far below low with a subnormal den, say)
                with np.errstate(over="ignore"):
                    a[...] = np.where(a < low, 1.0 - (low - a) / den,
                                      np.where(a > high, 1.0 - (a - high) / den, 1.0))
    return values


def weigh_by_broadcast(b: np.ndarray, index_weights, time_weights) -> np.ndarray:
    """lambda_j * B[j, t], then times theta_t, with both weights broadcast."""
    lam = np.asarray(index_weights, dtype=float)
    return np.multiply(lam[:, None], b) * np.asarray(time_weights, dtype=float)


def rebased_volumes(c: np.ndarray, mode: ZeroingMode) -> np.ndarray:
    """Local volumes of (n, m, T) matrices re-based as one whole array."""
    if mode is ZeroingMode.FIRST_COLUMN:
        z = c - c[..., :1]
    elif mode is ZeroingMode.FIRST_ELEMENT:
        z = c - c[..., :1, :1]
    else:
        z = c - 0.0
    return ((z[..., :-1, :-1] + z[..., 1:, 1:]) / 6.0
            + (z[..., 1:, :-1] + z[..., :-1, 1:]) / 3.0)


# --- the run's stages on one whole working array ----------------------------
# The run once standardized, weighted and re-based one (n, m, T) working array and
# wrote the local volumes over its front; it now makes each block of areas through
# every stage in turn. This is that whole-array sequence, with the local volumes taken
# from strided views as the library once took them, and the blocked run must give its
# bits.

def _standardize_interval(a, lo, hi, orientation, out) -> None:
    """b = 1 - max(low - a, a - high, 0) / den into ``out``, or 1.0 when den <= 0."""
    low, high = orientation.interval_low, orientation.interval_high
    den = max(low - lo, hi - high)
    if den <= 0.0:
        out[...] = 1.0
        return
    above = np.subtract(a, high, out=out)
    dist = np.subtract(low, a)
    np.maximum(dist, above, out=dist)
    np.maximum(dist, 0.0, out=dist)
    dist /= den
    np.subtract(1.0, dist, out=out)


def standardize_whole(values: np.ndarray, indices: Sequence[IndexDefinition]) -> np.ndarray:
    """Standardized (n, m, T) scores: two whole-array passes, then one row at a time."""
    values = np.asarray(values, dtype=float)
    lows, highs = index_extrema(values)
    spans = highs - lows
    sub, div = np.zeros(values.shape[1:]), np.ones(values.shape[1:])
    fill = {}
    for j, d in enumerate(indices):
        kind = d.orientation.kind
        if kind is OrientationKind.BENEFIT or kind is OrientationKind.COST:
            if spans[j] == 0.0:
                fill[j] = 0.5
            else:
                sub[j], div[j] = lows[j], spans[j]
        elif kind is OrientationKind.INTERMEDIATE:
            med, max_dev = _median_and_max_dev(values[:, j, :])
            if max_dev == 0.0:
                fill[j] = 1.0
            else:
                sub[j], div[j] = med, max_dev
    x = np.array(values)
    np.subtract(x, sub, out=x)
    np.divide(x, div, out=x)
    for j, d in enumerate(indices):
        kind, b = d.orientation.kind, x[:, j, :]
        if j in fill:
            b[...] = fill[j]
        elif kind is OrientationKind.INTERVAL:
            _standardize_interval(values[:, j, :], lows[j], highs[j], d.orientation, b)
        elif kind is not OrientationKind.BENEFIT:
            if kind is OrientationKind.INTERMEDIATE:
                np.abs(b, out=b)
            np.subtract(1.0, b, out=b)
    return x


def strided_local_volume(z: np.ndarray) -> np.ndarray:
    """Local volumes of (..., m, T) matrices from four strided views of them, as the
    library made them before it took each term as one slice of the flat array."""
    z = np.asarray(z, dtype=float)
    # (z00 + z11) / 6 + (z10 + z01) / 3
    vol = z[..., :-1, :-1] + z[..., 1:, 1:]
    vol /= 6.0
    anti = z[..., 1:, :-1] + z[..., :-1, 1:]
    anti /= 3.0
    vol += anti
    return vol


def local_volumes_in_place(z: np.ndarray, mode: ZeroingMode) -> np.ndarray:
    """Local volumes of (n, m, T) matrices re-based by ``mode``, written over ``z``'s buffer."""
    n, m, T = z.shape
    z = np.ascontiguousarray(z)
    vol = z.reshape(-1)[: n * (m - 1) * (T - 1)].reshape(n, m - 1, T - 1)
    step = incidence._block_step(m * T)
    for k in range(0, n, step):
        zb = z[k:k + step]
        vol[k:k + step] = strided_local_volume(incidence.zeroing_image(zb, mode, out=zb))
    return vol


def whole_array_run(values, indices, lam, theta, mode: ZeroingMode):
    """(c_pos, c_neg, volumes, [(d_max, d_min, degrees) toward each ideal]) of one
    working array: standardized, weighted in place, reduced to both ideals, then
    re-based with its local volumes written over its front."""
    x = standardize_whole(values, indices)
    apply_weights(x, lam, theta, out=x)
    c_pos, c_neg = np.max(x, axis=0), np.min(x, axis=0)
    vol = local_volumes_in_place(x, mode)
    families = [one_shot_degrees(strided_local_volume(incidence.zeroing_image(c, mode)), vol)
                for c in (c_pos, c_neg)]
    return c_pos, c_neg, vol, families


def one_shot_degrees(ref: np.ndarray, vols: np.ndarray):
    """(d_max, d_min, degrees) of ``vols`` against ``ref`` with D held whole: D, then
    its grey coefficients, then each area's mean."""
    diffs = np.abs(vols - ref)
    d_max, d_min = float(diffs.max()), float(diffs.min())
    return d_max, d_min, incidence.grey_coefficients(diffs, d_max, d_min).mean(axis=(-2, -1))
