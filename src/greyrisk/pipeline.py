"""End-to-end assessment run: standardize, weight, build ideals, score, rank.

A run is a pure function of (input, config): identical inputs produce
identical reports apart from the wall-clock duration field.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import io as gio
from ._meta import VERSION
from .incidence import ZeroingMode, incidence_family, local_volume, zeroing_image
from .model import AssessmentInput, StageMatrices
from .normalize import standardize_all
from .ranking import (
    DegenerateAssessmentError,
    RiskLevel,
    classify,
    rank_areas,
    superiority_degree,
)
from .weighting import apply_weights, negative_ideal, positive_ideal

OUTPUT_FORMATS = ("text", "json", "csv")


@dataclass(frozen=True)
class RunConfig:
    zeroing_mode: ZeroingMode = ZeroingMode.FIRST_COLUMN
    renormalize_weights: bool = True
    report_decimals: int = 2
    emit_trace: bool = False
    output_format: str = "text"

    def validate(self) -> "RunConfig":
        if not 0 <= self.report_decimals <= 12:
            raise ValueError(f"report_decimals must lie in [0, 12], got {self.report_decimals}")
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(
                f"unknown output format '{self.output_format}' "
                f"(allowed: {', '.join(OUTPUT_FORMATS)})"
            )
        return self


@dataclass(frozen=True)
class AreaAssessment:
    """Scores of one area: incidence toward both ideals, superiority, rank, level."""

    name: str
    gamma_pos: float
    gamma_neg: float
    superiority: float
    rank: int
    level: RiskLevel
    tied: bool = False


@dataclass(frozen=True)
class AssessmentResult:
    """Scores of every area as columns in rank order, riskiest first.

    ``names`` is a tuple; the others are (n,) arrays: float64 ``gamma_pos``, ``gamma_neg``,
    ``superiority``; integer ``rank``, ``level`` (``RiskLevel`` numbers 1-7); bool ``tied``.
    """

    names: tuple[str, ...]
    gamma_pos: np.ndarray
    gamma_neg: np.ndarray
    superiority: np.ndarray
    rank: np.ndarray
    level: np.ndarray
    tied: np.ndarray
    config_echo: dict
    trace: StageMatrices | None = None

    @property
    def areas(self) -> tuple[AreaAssessment, ...]:
        """Row view of the columns, one AreaAssessment per area, built on each access."""
        return tuple(map(AreaAssessment, self.names, self.gamma_pos.tolist(),
                         self.gamma_neg.tolist(), self.superiority.tolist(), self.rank.tolist(),
                         map(RiskLevel, self.level.tolist()), self.tied.tolist()))


@dataclass(frozen=True)
class AssessmentReport:
    result: AssessmentResult
    fingerprint: str
    version: str
    duration_seconds: float


def _renormalized(weights: np.ndarray, enabled: bool) -> tuple[np.ndarray, bool]:
    total = float(weights.sum())
    if enabled and total != 1.0:
        return weights / total, True
    return weights, False


def run_assessment(inp: AssessmentInput, config: RunConfig | None = None) -> AssessmentReport:
    """Run the full assessment procedure and return a ranked report.

    Steps, in order: standardize, weight, build ideal matrices, volumetric
    incidence against each ideal, superiority degrees, ranking, classification
    (the input was validated when built). Errors carry the failing step.
    """
    config = (config or RunConfig()).validate()
    t0 = time.perf_counter()

    fingerprint = gio.compute_fingerprint(inp)

    lam_raw = inp.index_weights
    theta_raw = inp.time_weights
    lam, lam_renormed = _renormalized(lam_raw, config.renormalize_weights)
    theta, theta_renormed = _renormalized(theta_raw, config.renormalize_weights)

    mode = config.zeroing_mode
    b = standardize_all(inp.values.copy(), inp.indices)
    # an untraced run weights and re-bases in b itself; a traced one keeps each stage
    out = None if config.emit_trace else b
    c = apply_weights(b, lam, theta, out=out)
    c_pos, c_neg = positive_ideal(c), negative_ideal(c)
    vol = local_volume(zeroing_image(c, mode, out=out))
    if not config.emit_trace:
        del b, c, out  # untraced, all three name the working array: free it before incidence

    vol_pos = local_volume(zeroing_image(c_pos, mode))
    vol_neg = local_volume(zeroing_image(c_neg, mode))
    fam_pos = incidence_family(vol_pos, vol)
    gp = fam_pos.degrees
    if not config.emit_trace:
        del fam_pos  # only the trace reads D+; free it before D- is built
    fam_neg = incidence_family(vol_neg, vol)
    gn = fam_neg.degrees

    try:
        s = superiority_degree(gp, gn)
    except DegenerateAssessmentError as exc:
        k = np.flatnonzero((gp == 0.0) & (gn == 0.0))[0]
        raise DegenerateAssessmentError(
            f"superiority step: area '{inp.area_names[k]}': {exc}"
        ) from exc

    order, rank, tied = rank_areas(s)

    echo = {
        "zeroing_mode": config.zeroing_mode.value,
        "renormalize_weights": config.renormalize_weights,
        "report_decimals": config.report_decimals,
        "emit_trace": config.emit_trace,
        "output_format": config.output_format,
        "index_weight_sum": float(lam_raw.sum()),
        "time_weight_sum": float(theta_raw.sum()),
        "index_weights_renormalized": lam_renormed,
        "time_weights_renormalized": theta_renormed,
    }

    trace = None
    if config.emit_trace:
        trace = StageMatrices(
            index_ids=tuple(d.id for d in inp.indices),
            period_labels=inp.periods,
            area_names=inp.area_names,
            standardized=b,
            weighted=c,
            positive_ideal=c_pos,
            negative_ideal=c_neg,
            volume_positive=vol_pos,
            volume_negative=vol_neg,
            volume_diff_pos=fam_pos.volume_diffs,
            volume_diff_neg=fam_neg.volume_diffs,
            extremes_pos=(fam_pos.d_max, fam_pos.d_min),
            extremes_neg=(fam_neg.d_max, fam_neg.d_min),
        )

    result = AssessmentResult(
        tuple(map(inp.area_names.__getitem__, order.tolist())), gp[order], gn[order],
        s[order], rank[order], classify(s[order]), tied[order], echo, trace)
    return AssessmentReport(
        result=result,
        fingerprint=fingerprint,
        version=VERSION,
        duration_seconds=time.perf_counter() - t0,
    )


def load_bundled_case() -> AssessmentInput:
    """The packaged three-area wildland-urban interface fire dataset."""
    ref = resources.files("greyrisk").joinpath("data/wui-case.json")
    with resources.as_file(ref) as path:
        return gio.load_input(path, "json")
