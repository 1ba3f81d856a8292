"""Standardization of raw score arrays onto [0, 1].

Extrema are taken globally per index, over all areas and all periods, so
that areas stay comparable. Four orientations are supported:

  benefit       b = (a - min) / (max - min)
  cost          b = 1 - (a - min) / (max - min)
  intermediate  b = 1 - |a - M(t)| / max_dev, M(t) = cross-area median at t
  interval      b = 1 inside [low, high], linear falloff outside scaled by
                max{low - min, max - high}

M(t) is the middle value of the n areas' scores at period t; for an even n
it is the mean of the two middle values, as ``np.median`` takes it.
Degenerate indices (max = min) standardize to 0.5 for benefit/cost so they
bias neither ideal matrix; intermediate and interval degenerate to 1.0
(every value already sits at the target).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .model import IndexDefinition, OrientationKind


def _median_and_max_dev(a: np.ndarray) -> tuple[np.ndarray, float]:
    """M(t) = ``np.median(a, axis=0)`` of an (n, T) array, bit for bit, and max |a - M(t)|.

    The scores are copied period-major, so that each period's n scores are
    contiguous, and partitioned once at n // 2. For an even n the lower middle
    value is the largest of the lower half. The deviations are then taken over
    the partitioned copy: a partition only reorders each period's scores, and a
    maximum does not depend on the order.
    """
    n = len(a)
    s = a.T.copy()
    s.partition(n // 2, axis=-1)
    upper = s[:, n // 2]
    if n % 2:
        med = upper.copy()
    else:
        med = s[:, : n // 2].max(axis=-1)
        med += upper
        med /= 2.0
    s -= med[:, None]
    return med, float(np.abs(s, out=s).max())


class Standardization(NamedTuple):
    """The operands that standardize any block of one input's areas, taken once over all of them.

    A block is standardized as b = (a - sub) / div against (m, T) operands, with sub the
    minimum or M(t) and div the span or max_dev of each benefit, cost and intermediate
    row; interval and degenerate rows take sub 0 and div 1 and are overwritten. The
    (m, T) masks select the rows made |b| (intermediate), the rows made 1 - b (cost and
    intermediate) and the degenerate rows, which take their constant from ``fill``; being
    full width, each masked pass runs one m*T-long inner loop per area. A mask that would
    select no row is None. ``interval`` is None or the interval rows' (k,) positions and
    (k, 1) columns of their low and high bounds and denominators.
    """

    sub: np.ndarray
    div: np.ndarray
    absolute: np.ndarray | None
    complement: np.ndarray | None
    filled: np.ndarray | None
    fill: np.ndarray
    interval: tuple | None


def _selecting(mask: np.ndarray) -> np.ndarray | None:
    # a masked pass still visits every cell, so a mask that selects no row is dropped
    return mask if mask.any() else None


def standardization(values: np.ndarray, indices: Sequence[IndexDefinition],
                    extrema: tuple) -> Standardization:
    """The per-index operands of standardizing raw scores of shape (n, m, T).

    Index j of ``indices`` describes row j of every area. ``extrema`` are the (lows,
    highs) that ``index_extrema`` gives for ``values``, as validation records them on an
    input (``AssessmentInput._extrema``). The cross-area medians and every span are
    taken over all n areas and T periods. Interval bounds must satisfy low <= high, as
    a validated input's do.
    """
    values = np.asarray(values, dtype=float)
    m, T = values.shape[1:]
    lows, highs = extrema
    spans = highs - lows
    sub, div = np.zeros((m, T)), np.ones((m, T))
    absolute, complement = np.zeros((m, T), bool), np.zeros((m, T), bool)
    fill = np.full((m, T), np.nan)
    interval = []  # (row, low, high, den) of each interval row with den > 0
    for j, d in enumerate(indices):
        kind = d.orientation.kind
        if kind is OrientationKind.INTERVAL:
            low, high = d.orientation.interval_low, d.orientation.interval_high
            den = max(low - lows[j], highs[j] - high)
            if den <= 0.0:  # only when every observed value lies inside [low, high]
                fill[j] = 1.0
            else:
                interval.append((j, low, high, den))
        elif kind is OrientationKind.INTERMEDIATE:
            med, max_dev = _median_and_max_dev(values[:, j, :])
            if max_dev == 0.0:
                fill[j] = 1.0
            else:
                sub[j], div[j] = med, max_dev
                absolute[j] = complement[j] = True
        elif spans[j] == 0.0:
            fill[j] = 0.5
        else:
            sub[j], div[j] = lows[j], spans[j]
            complement[j] = kind is OrientationKind.COST
    interval_rows = None
    if interval:
        rows, low, high, den = map(np.array, zip(*interval))
        interval_rows = (rows, low[:, None], high[:, None], den[:, None])
    return Standardization(sub, div, _selecting(absolute), _selecting(complement),
                           _selecting(~np.isnan(fill)), fill, interval_rows)


def standardize(
    a: np.ndarray, operands: Standardization, out: np.ndarray | None = None
) -> np.ndarray:
    """Standardize a block of raw (n, m, T) scores by ``operands``, each step one
    whole-block pass: the result goes to ``out`` when given, else to a new array.

    Every cell takes the same floating-point operations whichever block holds it,
    so the blocks of an input give the bits of the input standardized whole.
    """
    x = np.subtract(a, operands.sub, out=out)
    np.divide(x, operands.div, out=x)
    if operands.absolute is not None:
        np.abs(x, out=x, where=operands.absolute)
    if operands.complement is not None:
        # for a cost row this is the benefit complement, so the duality b + c = 1 is
        # exact in floating point, not just algebraically
        np.subtract(1.0, x, out=x, where=operands.complement)
    if operands.interval is not None:
        # b = 1 - max(low - a, a - high, 0) / den: 1 inside [low, high], the linear
        # falloff outside it
        rows, low, high, den = operands.interval
        above = a[:, rows, :]  # a - high, once the gather is made
        dist = np.subtract(low, above)
        np.subtract(above, high, out=above)
        np.maximum(dist, above, out=dist)
        np.maximum(dist, 0.0, out=dist)
        dist /= den
        x[:, rows, :] = np.subtract(1.0, dist, out=dist)
    if operands.filled is not None:
        np.copyto(x, operands.fill, where=operands.filled)
    return x

