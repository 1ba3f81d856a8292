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

from typing import Sequence

import numpy as np

from .model import IndexDefinition, OrientationKind, index_extrema


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


def standardize_all(values: np.ndarray, indices: Sequence[IndexDefinition]) -> np.ndarray:
    """Standardize raw scores of shape (n, m, T) into a new float64 array.

    Index j of ``indices`` describes row j of every area. Each index is
    standardized over all n areas and T periods at once. Interval bounds must
    satisfy low <= high, as a validated input's do.

    Benefit, cost and intermediate rows take two whole-array passes against (m, T)
    operands, b = (a - sub) / div, with sub the minimum or M(t) and div the span or
    max_dev; cost and intermediate rows then become 1 - |b| one row at a time.
    Interval and degenerate rows pass through the whole-array passes as they are
    (sub 0, div 1) and are written one row at a time.
    """
    values = np.asarray(values, dtype=float)
    lows, highs = index_extrema(values)
    spans = highs - lows
    sub, div = np.zeros(values.shape[1:]), np.ones(values.shape[1:])  # (m, T)
    fill = {}  # row -> the constant of a degenerate row
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
            # for a cost row this is the benefit complement, so the duality
            # b + c = 1 is exact in floating point, not just algebraically
            np.subtract(1.0, b, out=b)
    return x


def _standardize_interval(a, lo, hi, orientation, out) -> None:
    """b = 1 - max(low - a, a - high, 0) / den into ``out``, or 1.0 when den <= 0.

    For low <= high this is 1 inside [low, high] and the linear falloff outside it.
    """
    low, high = orientation.interval_low, orientation.interval_high
    den = max(low - lo, hi - high)
    if den <= 0.0:
        # only reachable when every observed value lies inside [low, high]
        out[...] = 1.0
        return
    above = np.subtract(a, high, out=out)  # out holds a - high until the last step
    dist = np.subtract(low, a)
    np.maximum(dist, above, out=dist)
    np.maximum(dist, 0.0, out=dist)
    dist /= den
    np.subtract(1.0, dist, out=out)
