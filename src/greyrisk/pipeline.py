"""End-to-end assessment run: standardize, weight, build ideals, score, rank.

A run is a pure function of (input, config) apart from the trace files it
writes when ``trace_dir`` is set: identical inputs produce identical reports
apart from the wall-clock duration field.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple
from importlib import resources

import numpy as np

from . import io as gio
from ._meta import VERSION
from .incidence import (
    ZeroingMode,
    _block_step,
    _degrees,
    _volumes_over,
    local_volume,
    zeroing_image,
)
from .model import AssessmentInput
from .normalize import Standardization, standardization, standardize
from .ranking import (
    DegenerateAssessmentError,
    RiskLevel,
    classify,
    rank_areas,
    superiority_degree,
)
from .weighting import _weigh, _weight_grids

MAX_REPORT_DECIMALS = 12  # the text report prints 0 to this many decimals
# an input of more score cells than this is hashed on a worker thread while the run
# goes on; below it, starting and joining the thread costs more than it saves
FINGERPRINT_THREAD_CELLS = 250_000


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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _FingerprintWorker(threading.Thread):
    """``compute_fingerprint(inp)`` on a thread of its own: sha256 releases the GIL."""

    def __init__(self, inp: AssessmentInput):
        super().__init__(name="greyrisk-fingerprint")
        self._inp, self._value, self._error = inp, None, None

    def run(self) -> None:
        try:
            self._value = gio.compute_fingerprint(self._inp)
        except BaseException as exc:  # raised again on the caller by result()
            self._error = exc

    def result(self) -> str:
        """Wait for the hash; return it, or raise what the hash raised."""
        self.join()
        if self._error is not None:
            raise self._error
        return self._value


def run_assessment(inp: AssessmentInput, config: RunConfig | None = None) -> AssessmentReport:
    """Run the full assessment procedure and return a ranked report.

    Steps, in order: standardize, weight, build ideal matrices, volumetric
    incidence against each ideal, superiority degrees, ranking, classification
    (the input was validated when built). Errors carry the failing step. With
    ``config.trace_dir`` set, each stage is written there as soon as it is made,
    so a run that fails a later step leaves the stages made before it. The trace
    holds four shared files (both ideal matrices and their local volumes) and six
    files per area (standardized, weighted, and toward each ideal the volume
    differences and grey coefficients).

    The input's fingerprint is hashed first. When the input has more than
    FINGERPRINT_THREAD_CELLS score cells and more than one CPU is usable, it is
    hashed on one worker thread while the steps run instead, and joined before
    the report is built, whether the steps succeed or raise. An error of the hash
    is raised on the caller in place of any error of the steps, as when the hash
    runs first. The report does not depend on where the hash ran.

    Memory: beside the input the run holds the (n, m-1, T-1) local volumes and one
    buffer of a block of areas. The run's plan is taken from the whole input; each
    block is then standardized and weighted in the buffer, folded into both ideals,
    re-based in place, and its local volumes written into their array from flat
    shifted slices of the block, with one flat temporary. Incidence toward both ideals
    takes one pair of passes over blocks of those volumes, so no array of volume
    differences is held whole, and the traced differences and coefficients are written
    as the second pass makes them; the volumes are freed before the ranking. The peak
    beyond the input is 1.16x the input at n=2000, m=15, T=6, 1.08x at n=500, m=50,
    T=24 and 0.82x at n=20 000, m=15, T=6 (tracemalloc; README, "Memory").
    """
    config = config or RunConfig()
    t0 = time.perf_counter()
    trace = gio.TraceWriter(config.trace_dir, inp)
    if inp.values.size > FINGERPRINT_THREAD_CELLS and _usable_cpus() > 1:
        worker = _FingerprintWorker(inp)
        worker.start()
        try:
            result = _ranked(inp, config, trace)
        finally:
            fingerprint = worker.result()
    else:
        fingerprint = gio.compute_fingerprint(inp)
        result = _ranked(inp, config, trace)
    return AssessmentReport(
        result=result,
        fingerprint=fingerprint,
        version=VERSION,
        duration_seconds=time.perf_counter() - t0,
    )


def _ranked(inp: AssessmentInput, config: RunConfig, trace: gio.TraceWriter) -> AssessmentResult:
    """The steps of ``run_assessment``, from the raw scores to the ranked columns."""
    lam_raw = inp.index_weights
    theta_raw = inp.time_weights
    lam, lam_renormed = _renormalized(lam_raw)
    theta, theta_renormed = _renormalized(theta_raw)

    mode = config.zeroing_mode
    c_pos, c_neg, vol = _ideals_and_volumes(inp.values, inp.indices, lam, theta, mode, trace,
                                            inp._extrema)
    refs = np.empty((2,) + vol.shape[1:])  # each ideal's local volumes
    for ideal, c, ref in zip(("positive", "negative"), (c_pos, c_neg), refs):
        trace.shared(f"{ideal}_ideal", c)
        trace.shared(f"{ideal}_ideal_volume", local_volume(zeroing_image(c, mode), out=ref))
    stages = {"D": ("volume_diff_pos", "volume_diff_neg"), "G": ("coeff_pos", "coeff_neg")}
    _, _, (gp, gn) = _degrees(refs, vol, lambda symbol, i, k, x:
                              trace.per_area(stages[symbol][i], x, k))
    del vol  # the volumes are not needed for the ranking

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

    return AssessmentResult(
        tuple(map(inp.area_names.__getitem__, order.tolist())), gp[order], gn[order],
        s[order], rank[order], classify(s[order]), tied[order], echo)


class _RunPlan(NamedTuple):
    """What each block of one run's areas is made with, taken once per run."""

    operands: Standardization
    lam: np.ndarray  # both weights as (m, T) _weight_grids
    theta: np.ndarray
    mode: ZeroingMode
    step: int  # areas per block, by incidence.BLOCK_CELLS as the run starts


def _run_plan(values, indices, lam, theta, mode: ZeroingMode, extrema: tuple) -> _RunPlan:
    """The plan of a run on raw (n, m, T) ``values`` with their index ``extrema``."""
    return _RunPlan(standardization(values, indices, extrema), *_weight_grids(lam, theta),
                    mode, _block_step(values.shape[1] * values.shape[2]))


def _block_pass(plan: _RunPlan, a: np.ndarray, buffer: np.ndarray, out: np.ndarray,
                record=lambda stage, x: None) -> tuple[np.ndarray, np.ndarray]:
    """Standardize and weight the raw (k, m, T) block ``a`` in ``buffer``, a C-contiguous
    array of its shape, re-base it and write its (k, m-1, T-1) local volumes to ``out``;
    return the weighted block's max and min over its areas. ``record(stage, x)`` sees
    the standardized and then the weighted block."""
    x = standardize(a, plan.operands, out=buffer)
    record("standardized", x)
    _weigh(x, plan.lam, plan.theta, out=x)
    record("weighted", x)
    extrema = np.maximum.reduce(x, axis=0), np.minimum.reduce(x, axis=0)
    _volumes_over(zeroing_image(x, plan.mode, out=x), out)
    return extrema


def _ideals_and_volumes(values: np.ndarray, indices, lam: np.ndarray, theta: np.ndarray,
                        mode: ZeroingMode, trace: gio.TraceWriter, extrema: tuple):
    """Both ideal matrices and every area's (m-1, T-1) local volumes, in one pass over blocks.

    The run's plan is taken from the whole input and its index ``extrema`` first. Each
    block of areas then goes through ``_block_pass`` in one buffer, and its maxima and
    minima are folded into the running ideals in block order.
    Every cell takes the operations it would take in the whole array, and maxima and
    minima are exact, so no result depends on where the blocks end.
    """
    n, m, T = values.shape
    plan = _run_plan(values, indices, lam, theta, mode, extrema)
    vol = np.empty((n, m - 1, T - 1))
    buffer = np.empty((min(plan.step, n), m, T))
    c_pos = c_neg = None
    for k in range(0, n, plan.step):
        a = values[k:k + plan.step]
        hi, lo = _block_pass(plan, a, buffer[: len(a)], vol[k:k + plan.step],
                             lambda stage, x: trace.per_area(stage, x, k))
        if c_pos is None:
            c_pos, c_neg = hi, lo
        else:
            np.maximum(c_pos, hi, out=c_pos)
            np.minimum(c_neg, lo, out=c_neg)
    return c_pos, c_neg, vol


def load_bundled_case() -> AssessmentInput:
    """The packaged three-area wildland-urban interface fire dataset."""
    ref = resources.files("greyrisk").joinpath("data/wui-case.json")
    with resources.as_file(ref) as path:
        return gio.load_input(path)
