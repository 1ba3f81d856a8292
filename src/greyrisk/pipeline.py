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
# on the first run of an input of more cells than this, its score bytes are hashed on a
# worker thread while the run goes on; in a fresh process on two CPUs that breaks even
# near 100 000 cells (README). Later runs of the input hash nothing.
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

    The input's fingerprint and the standardization's operands depend on the input
    alone, so the first run that makes them records them on it (``_fingerprint`` once
    it returns a report, ``_operands`` once they are taken, their arrays read-only), and
    later runs of the input reuse them. A run that has no recorded fingerprint hashes it
    first. When the input has more than FINGERPRINT_THREAD_CELLS score cells, the
    metadata is hashed on the caller first and only the score bytes on one worker thread
    while the steps run; the worker is joined before the report is built, whether the
    steps succeed or raise. An error of the hash is raised on the caller in place of any
    error of the steps, as when the hash runs first, and records nothing. The report does
    not depend on where the hash ran, nor on whether the values were recorded.

    Memory: beside the input the run holds the (n, m-1, T-1) local volumes and one
    buffer of a block of areas. Each block is standardized and weighted in the buffer,
    with operands and weight grids taken from the whole input, folded into both
    ideals, re-based in place, and its local volumes written into their array from flat
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
    fingerprint = getattr(inp, "_fingerprint", None)
    if fingerprint is None and inp.values.size > FINGERPRINT_THREAD_CELLS:
        digest, scores = gio._fingerprint_metadata(inp)
        errors = []

        def hash_scores():  # sha256 releases the GIL on buffers of this size
            try:
                digest.update(scores)
            except BaseException as exc:  # raised on the caller after join()
                errors.append(exc)

        worker = threading.Thread(target=hash_scores, name="greyrisk-fingerprint")
        worker.start()
        try:
            result = _ranked(inp, config, trace)
        finally:
            worker.join()
            if errors:
                raise errors[0]
        fingerprint = digest.hexdigest()
    else:
        if fingerprint is None:
            fingerprint = gio.compute_fingerprint(inp)
        result = _ranked(inp, config, trace)
    object.__setattr__(inp, "_fingerprint", fingerprint)
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
    operands = getattr(inp, "_operands", None)
    if operands is None:
        operands = standardization(inp.values, inp.indices, inp._extrema)
        # every later run of the input, on any thread, reads these arrays
        for arr in (*operands[:-1], *(operands.interval or ())):
            if arr is not None:
                arr.setflags(write=False)
        object.__setattr__(inp, "_operands", operands)
    c_pos, c_neg, vol = _ideals_and_volumes(inp.values, operands, lam, theta, mode, trace)
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


def _ideals_and_volumes(values: np.ndarray, operands: Standardization, lam: np.ndarray,
                        theta: np.ndarray, mode: ZeroingMode, trace: gio.TraceWriter):
    """Both ideal matrices and every area's (m-1, T-1) local volumes, in one pass over blocks.

    ``operands`` are the standardization's, taken over the whole of ``values``
    (``normalize.standardization``). Both weights are made (m, T) grids first. Each block
    of areas is then standardized and weighted in one buffer, its maxima and minima are
    folded into the running ideals in block order, and it is re-based in place and its
    local volumes written out.
    Every cell takes the operations it would take in the whole array, and maxima and
    minima are exact, so no result depends on where the blocks end.
    """
    n, m, T = values.shape
    lam, theta = _weight_grids(lam, theta)
    step = _block_step(m * T)
    vol = np.empty((n, m - 1, T - 1))
    buffer = np.empty((min(step, n), m, T))
    c_pos = c_neg = None
    for k in range(0, n, step):
        a = values[k:k + step]
        x = standardize(a, operands, out=buffer[: len(a)])
        trace.per_area("standardized", x, k)
        _weigh(x, lam, theta, out=x)
        trace.per_area("weighted", x, k)
        hi, lo = np.maximum.reduce(x, axis=0), np.minimum.reduce(x, axis=0)
        if c_pos is None:
            c_pos, c_neg = hi, lo
        else:
            np.maximum(c_pos, hi, out=c_pos)
            np.minimum(c_neg, lo, out=c_neg)
        _volumes_over(zeroing_image(x, mode, out=x), vol[k:k + step])
    return c_pos, c_neg, vol


def load_bundled_case() -> AssessmentInput:
    """The packaged three-area wildland-urban interface fire dataset."""
    ref = resources.files("greyrisk").joinpath("data/wui-case.json")
    with resources.as_file(ref) as path:
        return gio.load_input(path)
