"""Core domain types for dynamic multi-criteria risk assessment.

An assessment problem consists of n areas, each scored on m indices over
T periods. The raw scores are one (n, m, T) array (row = index, column =
period in each area's matrix); index weights and time weights are supplied as
data. All types are immutable value objects and safe to share across threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

WEIGHT_SUM_TOLERANCE = 1e-2


class ValidationError(ValueError):
    """Raised when an assessment input violates its invariants.

    Carries the complete list of violations, not just the first one found.
    """

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class OrientationKind(str, Enum):
    BENEFIT = "benefit"            # larger raw score = higher risk
    COST = "cost"                  # larger raw score = lower risk
    INTERMEDIATE = "intermediate"  # closer to the cross-area median = higher risk
    INTERVAL = "interval"          # inside [low, high] = highest risk


@dataclass(frozen=True)
class Orientation:
    """Orientation of one index: a kind or its name, and float bounds for the interval kind."""

    kind: OrientationKind
    interval_low: float | None = None
    interval_high: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", OrientationKind(self.kind))
        for bound in ("interval_low", "interval_high"):
            if getattr(self, bound) is not None:
                object.__setattr__(self, bound, float(getattr(self, bound)))


@dataclass(frozen=True)
class IndexDefinition:
    """One evaluation criterion: identity, orientation, and weight, a real number held as a
    float (any other value is left for validation to report)."""

    id: str
    name: str
    orientation: Orientation
    weight: float

    def __post_init__(self):
        if isinstance(self.weight, numbers.Real) and not isinstance(self.weight, bool):
            object.__setattr__(self, "weight", float(self.weight))


@dataclass(frozen=True)
class AssessmentInput:
    """A full assessment problem, validated when it is built.

    The leading axis of ``values`` is aligned with ``area_names``. Weight
    vectors are kept as given; renormalization to an exact unit sum happens at
    run time and is recorded in the report's config echo.

    ``values`` is held as a read-only C-ordered float64 array: the array a loader
    built (``_Built``) itself, and a copy of any other array, so changing the array
    a caller passed never changes the input. A time weight that is not a real number
    (a bool or a str), or ``values`` that numpy cannot make a float64 array, raise
    ValidationError before the other checks. Validation records each index's extrema
    on the input as ``_extrema``; the first run of the input records its fingerprint
    and standardization operands on it as ``_fingerprint`` and ``_operands``, which
    ``dataclasses.replace`` does not carry to the input it builds.
    """

    indices: tuple[IndexDefinition, ...]
    periods: tuple[str, ...]
    time_weights: np.ndarray
    area_names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(self.indices))
        object.__setattr__(self, "periods", tuple(self.periods))
        object.__setattr__(self, "area_names", tuple(self.area_names))
        errors = _time_weight_errors(self.time_weights, self.periods)
        values = self.values
        if type(values) is _Built:
            values = values.array
        else:
            try:
                values = np.array(values, dtype=float, order="C")
            except (TypeError, ValueError) as exc:  # a str cell, a ragged grid
                errors.append(f"values must be an (n, m, T) array of numbers: {exc}")
        if errors:
            raise ValidationError(errors)
        object.__setattr__(self, "time_weights", _read_only(np.array(self.time_weights, float)))
        object.__setattr__(self, "values", _read_only(values))
        validate_input(self)

    @property
    def index_weights(self) -> np.ndarray:
        return np.array([d.weight for d in self.indices], dtype=float)


class _Built:
    """The C-ordered (n, m, T) float64 array a loader built for one input and holds no
    other reference to, or an npy bundle's read-only map: the input takes the array
    itself instead of a copy."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _time_weight_errors(weights, periods: tuple) -> list[str]:
    """A violation for each time weight that is not a real number, named by its period
    (by its position past the last period); numpy would read a bool as a number."""
    try:
        weights = list(weights)
    except TypeError:
        return [f"time_weights must be a sequence of numbers, got {weights!r}"]
    loci = [f"period '{p}'" for p in periods[:len(weights)]]
    loci += [f"time_weights[{t}]" for t in range(len(loci), len(weights))]
    return [f"{locus}: time weight must be a number, got {w!r}"
            for locus, w in zip(loci, weights)
            if not isinstance(w, numbers.Real) or isinstance(w, bool)]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_orientation(d: IndexDefinition, errors: list[str]) -> None:
    o = d.orientation
    if not isinstance(o, Orientation):
        errors.append(f"index '{d.id}': orientation must be an Orientation, got {o!r}")
    elif o.kind is OrientationKind.INTERVAL:
        if o.interval_low is None or o.interval_high is None:
            errors.append(f"index '{d.id}': interval orientation missing bounds")
            return
        if not (math.isfinite(o.interval_low) and math.isfinite(o.interval_high)):
            errors.append(f"index '{d.id}': interval bounds must be finite")
        elif o.interval_low > o.interval_high:
            errors.append(
                f"index '{d.id}': interval_low {o.interval_low:.4g} exceeds "
                f"interval_high {o.interval_high:.4g}"
            )
    elif o.interval_low is not None or o.interval_high is not None:
        errors.append(
            f"index '{d.id}': orientation '{o.kind.value}' must carry no interval bounds"
        )


def index_extrema(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The minimum and maximum of each index of an (n, m, T) array over all
    areas and periods, equal bit for bit to ``values[:, j, :].min()`` and ``.max()``.

    Reducing the area axis first gives numpy contiguous inner loops; reducing
    axes 0 and 2 at once leaves it loops only T long. Which of 0.0 and -0.0 a
    reduction returns depends on its order when an index holds both, so a zero
    extremum of an index that holds a -0.0 is taken again from the index's own
    values. -0.0 is the only float64 whose bits read as the int64 minimum, so one
    integer reduction finds those indices.
    """
    lows, highs = values.min(axis=0).min(axis=1), values.max(axis=0).max(axis=1)
    bits = values.view(np.int64)
    holds_neg_zero = bits.min(axis=0).min(axis=1) == np.iinfo(np.int64).min
    for extrema, reduce in ((lows, np.min), (highs, np.max)):
        for j in np.flatnonzero((extrema == 0.0) & holds_neg_zero):
            extrema[j] = reduce(values[:, j, :])
    return lows, highs


def _check_ranges(
    indices: tuple[IndexDefinition, ...], values: np.ndarray, errors: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Standardization divides by each index's range; it must be a finite float.

    Returns the extrema of ``values`` (``index_extrema``), before interval bounds widen them.
    """
    extrema = index_extrema(values)
    lows, highs = (e.copy() for e in extrema)
    for j, d in enumerate(indices):
        o = d.orientation
        if isinstance(o, Orientation) and o.kind is OrientationKind.INTERVAL:
            for v in (o.interval_low, o.interval_high):
                if v is not None and math.isfinite(v):
                    lows[j], highs[j] = min(lows[j], v), max(highs[j], v)
    with np.errstate(over="ignore"):
        overflows = ~np.isfinite(highs - lows)
    for j in np.flatnonzero(overflows):
        errors.append(
            f"index '{indices[j].id}': range of values and bounds "
            f"{lows[j]:.4g} .. {highs[j]:.4g} overflows float64"
        )
    return extrema


def _check_string(value, field: str, errors: list[str]) -> bool:
    """Whether ``value`` is a str; if not, the error names its field and position."""
    if isinstance(value, str):
        return True
    errors.append(f"{field} must be a string, got {value!r}")
    return False


def grid_errors(m: int, T: int) -> list[str]:
    """Violations of the smallest m x T grid an area can be scored on."""
    errors = []
    if m < 2:
        errors.append(f"m >= 2 required (local volume needs a 2x2 grid), got m={m}")
    if T < 2:
        errors.append(f"T >= 2 required (local volume needs a 2x2 grid), got T={T}")
    return errors


def validate_input(inp: AssessmentInput) -> AssessmentInput:
    """Check every input invariant; raise ValidationError listing all violations.

    Runs when an AssessmentInput is built; returns the input when valid, with the
    extrema of each index (``index_extrema`` of its values) recorded on it as
    ``_extrema`` for the run's standardization.
    """
    m, T, n = len(inp.indices), len(inp.periods), len(inp.area_names)
    errors = grid_errors(m, T)
    if n < 2:
        errors.append(f"n >= 2 required (ideal matrices need two areas), got n={n}")

    for t, label in enumerate(inp.periods):
        _check_string(label, f"periods[{t}]", errors)

    seen: set[str] = set()
    weights_are_numbers = True
    for j, d in enumerate(inp.indices):
        _check_string(d.name, f"indices[{j}].name", errors)
        if _check_string(d.id, f"indices[{j}].id", errors):
            if d.id in seen:
                errors.append(f"duplicate index id '{d.id}'")
            seen.add(d.id)
        if not isinstance(d.weight, numbers.Real) or isinstance(d.weight, bool):
            errors.append(f"index '{d.id}': weight must be a number, got {d.weight!r}")
            weights_are_numbers = False
        elif not math.isfinite(d.weight) or not (0.0 < d.weight <= 1.0):
            errors.append(f"index '{d.id}': weight {d.weight!r} outside (0, 1]")
        _check_orientation(d, errors)

    # reports, tie flags, and trace files key rows by area name
    names = inp.area_names
    if not (set(map(type, names)) <= {str} and len(set(names)) == n):
        seen_areas: set[str] = set()  # only this loop locates a failed check
        for k, name in enumerate(names):
            if _check_string(name, f"area_names[{k}]", errors):
                if name in seen_areas:
                    errors.append(f"duplicate area name '{name}'")
                seen_areas.add(name)

    if inp.time_weights.shape != (T,):
        errors.append(
            f"time_weights length {inp.time_weights.size} does not match {T} periods"
        )
    else:
        for t, w in enumerate(inp.time_weights):
            if not math.isfinite(w) or w <= 0.0:
                errors.append(
                    f"period '{inp.periods[t]}': time weight {float(w)!r} not positive"
                )

    if m > 0 and weights_are_numbers:
        lam_sum = float(sum(d.weight for d in inp.indices))
        if math.isfinite(lam_sum) and abs(lam_sum - 1.0) > WEIGHT_SUM_TOLERANCE:
            errors.append(f"index weights sum {lam_sum:.2f} outside tolerance")
    if inp.time_weights.shape == (T,) and T > 0 and np.isfinite(inp.time_weights).all():
        with np.errstate(over="ignore"):  # finite weights can overflow their sum to inf
            theta_sum = float(inp.time_weights.sum())
        if abs(theta_sum - 1.0) > WEIGHT_SUM_TOLERANCE:
            errors.append(f"time weights sum {theta_sum:.2f} outside tolerance")

    values, extrema = inp.values, None
    if values.shape != (n, m, T):
        got = "x".join(str(k) for k in values.shape) or "a 0-d array"
        errors.append(f"values: expected {n}x{m}x{T} array, got {got}")
    elif values.size:
        # NaN and +-inf carry through min and max, so no (n, m, T) mask is built;
        # some numpy builds flag a NaN met by a min or max reduction as invalid
        with np.errstate(invalid="ignore"):
            area_finite = (np.isfinite(values.min(axis=(1, 2)))
                           & np.isfinite(values.max(axis=(1, 2))))
        for k in np.flatnonzero(~area_finite):
            j, t = np.argwhere(~np.isfinite(values[k]))[0]
            errors.append(
                f"area '{inp.area_names[k]}': non-finite value at index "
                f"'{inp.indices[j].id}', period '{inp.periods[t]}'"
            )
        if area_finite.any():
            usable = values if area_finite.all() else values[area_finite]
            extrema = _check_ranges(inp.indices, usable, errors)

    if errors:
        raise ValidationError(errors)
    for arr in extrema:
        arr.setflags(write=False)
    object.__setattr__(inp, "_extrema", extrema)
    return inp

