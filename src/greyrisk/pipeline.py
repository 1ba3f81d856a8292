"""End-to-end assessment run: standardize, weight, build ideals, score, rank.

A run is a pure function of (input, config) apart from the trace files it
writes when ``trace_dir`` is set: identical inputs produce identical reports
apart from the wall-clock duration field.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import io as gio
from ._meta import VERSION
from .incidence import ZeroingMode, incidence_family, local_volume, zeroing_image
from .model import AssessmentInput
from .normalize import standardize_all
from .ranking import (
    DegenerateAssessmentError,
    RiskLevel,
    classify,
    rank_areas,
    superiority_degree,
)
from .weighting import apply_weights, negative_ideal, positive_ideal

MAX_REPORT_DECIMALS = 12  # the text report prints 0 to this many decimals


@dataclass(frozen=True)
class RunConfig:
    zeroing_mode: ZeroingMode = ZeroingMode.FIRST_COLUMN
    report_decimals: int = 2
    trace_dir: str | os.PathLike | None = None  # where each stage is written as CSVs
    output_format: str = gio.REPORT_FORMATS[0]

    def __post_init__(self):
        object.__setattr__(self, "zeroing_mode", ZeroingMode(self.zeroing_mode))
        d = self.report_decimals
        if type(d) is not int or not 0 <= d <= MAX_REPORT_DECIMALS:  # a bool is not an int here
            raise ValueError(f"report_decimals must be an int in [0, {MAX_REPORT_DECIMALS}], "
                             f"got {d!r}")
        if self.output_format not in gio.REPORT_FORMATS:
            raise ValueError(f"unknown output format '{self.output_format}' "
                             f"(allowed: {', '.join(gio.REPORT_FORMATS)})")


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


def _renormalized(weights: np.ndarray) -> tuple[np.ndarray, bool]:
    total = float(weights.sum())
    if total != 1.0:
        return weights / total, True
    return weights, False


def run_assessment(inp: AssessmentInput, config: RunConfig | None = None) -> AssessmentReport:
    """Run the full assessment procedure and return a ranked report.

    Steps, in order: standardize, weight, build ideal matrices, volumetric
    incidence against each ideal, superiority degrees, ranking, classification
    (the input was validated when built). Errors carry the failing step. With
    ``config.trace_dir`` set, each stage is written there as soon as it is made,
    so a run that fails a later step leaves the stages made before it.
    """
    config = config or RunConfig()
    t0 = time.perf_counter()
    trace = gio.TraceWriter(config.trace_dir, inp)

    fingerprint = gio.compute_fingerprint(inp)

    lam_raw = inp.index_weights
    theta_raw = inp.time_weights
    lam, lam_renormed = _renormalized(lam_raw)
    theta, theta_renormed = _renormalized(theta_raw)

    mode = config.zeroing_mode
    # one working array: standardized, then weighted, then re-based in place
    x = standardize_all(inp.values, inp.indices)
    trace.stage("standardized", x)
    apply_weights(x, lam, theta, out=x)
    trace.stage("weighted", x)
    c_pos, c_neg = positive_ideal(x), negative_ideal(x)
    trace.stage("positive_ideal", c_pos)
    trace.stage("negative_ideal", c_neg)
    vol = local_volume(zeroing_image(x, mode, out=x))
    del x  # free the working array before incidence

    vol_pos = local_volume(zeroing_image(c_pos, mode))
    vol_neg = local_volume(zeroing_image(c_neg, mode))
    trace.stage("positive_ideal_volume", vol_pos)
    trace.stage("negative_ideal_volume", vol_neg)
    fam_pos = incidence_family(vol_pos, vol)
    trace.family("pos", fam_pos)
    gp = fam_pos.degrees
    del fam_pos  # free D+ before D- is built
    fam_neg = incidence_family(vol_neg, vol)
    trace.family("neg", fam_neg)
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
        "renormalize_weights": True,
        "report_decimals": config.report_decimals,
        "emit_trace": config.trace_dir is not None,
        "output_format": config.output_format,
        "index_weight_sum": float(lam_raw.sum()),
        "time_weight_sum": float(theta_raw.sum()),
        "index_weights_renormalized": lam_renormed,
        "time_weights_renormalized": theta_renormed,
    }

    result = AssessmentResult(
        tuple(map(inp.area_names.__getitem__, order.tolist())), gp[order], gn[order],
        s[order], rank[order], classify(s[order]), tied[order], echo)
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
        return gio.load_input(path)
