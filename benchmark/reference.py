"""Independent reference implementation of the assessment method (numpy only).

Written from the formulas in the project README and PAPER.md, with no
imports from greyrisk, so the benchmark can check the program's reports
against it. Arrays are laid out (area, index, period) throughout.

    python3 benchmark/reference.py    # self-check on the bundled case
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

THRESHOLDS = (0.1, 0.2, 0.4, 0.6, 0.7, 0.8, 0.9)
LEVELS = ("extremely low", "low", "slightly low", "medium",
          "slightly high", "high", "extremely high")


def standardize(x: np.ndarray, kinds: list[str], intervals: list) -> np.ndarray:
    """Map raw scores (n, m, T) onto [0, 1] per index orientation.

    benefit (a - min) / span, cost its complement, both 0.5 when span = 0;
    intermediate 1 - |a - median_t| / max_dev, 1 when max_dev = 0;
    interval 1 inside [low, high], else a linear falloff scaled by
    max(low - min, max - high), 1 when that scale is not positive.
    Extrema and medians are taken over all areas (and periods for extrema).
    """
    b = np.empty_like(x)
    for j, kind in enumerate(kinds):
        a = x[:, j, :]
        lo, hi = a.min(), a.max()
        span = hi - lo
        if kind in ("benefit", "cost") and span == 0.0:
            b[:, j, :] = 0.5
        elif kind == "benefit":
            b[:, j, :] = (a - lo) / span
        elif kind == "cost":
            b[:, j, :] = 1.0 - (a - lo) / span
        elif kind == "intermediate":
            dev = np.abs(a - np.median(a, axis=0))
            max_dev = dev.max()
            b[:, j, :] = 1.0 if max_dev == 0.0 else 1.0 - dev / max_dev
        elif kind == "interval":
            low, high = intervals[j]
            den = max(low - lo, hi - high)
            if den <= 0.0:
                b[:, j, :] = 1.0
            else:
                out = np.where(a < low, 1.0 - (low - a) / den, 1.0 - (a - high) / den)
                b[:, j, :] = np.where((a >= low) & (a <= high), 1.0, out)
        else:
            raise ValueError(f"unknown orientation {kind!r}")
    return b


def local_volumes(z: np.ndarray) -> np.ndarray:
    """Signed volume under each 2x2 window of (..., m, T), anti-diagonal split."""
    return ((z[..., :-1, :-1] + z[..., 1:, 1:]) / 6.0
            + (z[..., 1:, :-1] + z[..., :-1, 1:]) / 3.0)


def incidence(ideal: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Incidence degrees (n,) of the weighted matrices c (n, m, T) toward an ideal.

    Matrices are re-based by their first column before the volumes are taken;
    d_max and d_min range over the whole family of volume differences, and a
    degree is the mean of its grey coefficients (d_max - D) / (d_max - d_min).
    """
    diff = np.abs(local_volumes(ideal - ideal[:, :1])[None] - local_volumes(c - c[..., :1]))
    d_max, d_min = diff.max(), diff.min()
    coeff = np.ones_like(diff) if d_max == d_min else (d_max - diff) / (d_max - d_min)
    return coeff.mean(axis=(1, 2))


def level_of(s: float) -> str:
    """The smallest grade whose threshold covers s."""
    for label, t in zip(LEVELS, THRESHOLDS):
        if s <= t:
            return label
    return LEVELS[-1]


def assess(x, kinds, intervals, index_weights, time_weights) -> dict:
    """Reference scores for raw values x (n, m, T): gamma+, gamma-, s, rank, tied, level."""
    x = np.asarray(x, dtype=float)
    lam = np.asarray(index_weights, dtype=float)
    theta = np.asarray(time_weights, dtype=float)
    lam, theta = lam / lam.sum(), theta / theta.sum()
    c = lam[None, :, None] * standardize(x, kinds, intervals) * theta[None, None, :]
    gp = incidence(c.max(axis=0), c)
    gn = incidence(c.min(axis=0), c)
    s = gp**2 / (gp**2 + gn**2)
    ordered = np.sort(s)
    rank = 1 + len(s) - np.searchsorted(ordered, s, side="right")
    count = np.searchsorted(ordered, s, side="right") - np.searchsorted(ordered, s, side="left")
    return {
        "gamma_pos": gp, "gamma_neg": gn, "superiority": s, "rank": rank,
        "tied": count > 1, "level": [level_of(v) for v in s],
    }


def from_document(doc: dict) -> tuple[list[str], dict]:
    """Area names and reference scores for a dataset in the JSON input schema."""
    kinds, intervals = [], []
    for d in doc["indices"]:
        o = d["orientation"]
        kinds.append("interval" if isinstance(o, dict) else o)
        intervals.append(tuple(o["interval"]) if isinstance(o, dict) else None)
    names = [a["name"] for a in doc["areas"]]
    x = np.array([a["values"] for a in doc["areas"]], dtype=float)
    return names, assess(x, kinds, intervals, [d["weight"] for d in doc["indices"]],
                         [p["weight"] for p in doc["periods"]])


# Published first-column figures of the bundled case (project README), 4 decimals.
_CASE_FIGURES = {
    "area1": (0.8185, 0.9043, 0.4503),
    "area2": (0.8561, 0.8694, 0.4923),
    "area3": (0.9044, 0.8179, 0.5501),
}


def self_check(case_path: Path) -> None:
    """Raise AssertionError unless the bundled case gives the published result."""
    names, ref = from_document(json.loads(case_path.read_text(encoding="utf-8")))
    ranks = dict(zip(names, ref["rank"].tolist()))
    if ranks != {"area3": 1, "area2": 2, "area1": 3} or ref["tied"].any():
        raise AssertionError(f"reference ranks the bundled case {ranks}")
    if set(ref["level"]) != {"medium"}:
        raise AssertionError(f"reference grades the bundled case {ref['level']}")
    for k, name in enumerate(names):
        got = (ref["gamma_pos"][k], ref["gamma_neg"][k], ref["superiority"][k])
        if any(abs(round(g, 4) - w) > 1e-9 for g, w in zip(got, _CASE_FIGURES[name])):
            raise AssertionError(f"reference gives {name} {got}, expected {_CASE_FIGURES[name]}")


if __name__ == "__main__":
    root = Path(__file__).resolve().parents[1]
    self_check(root / "src" / "greyrisk" / "data" / "wui-case.json")
    print("reference self-check passed")
    sys.exit(0)
