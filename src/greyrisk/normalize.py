"""Standardization of raw score arrays onto [0, 1].

Extrema are taken globally per index, over all areas and all periods, so
that areas stay comparable. Four orientations are supported:

  benefit       b = (a - min) / (max - min)
  cost          b = 1 - (a - min) / (max - min)
  intermediate  b = 1 - |a - M(t)| / max_dev, M(t) = cross-area median at t
  interval      b = 1 inside [low, high], linear falloff outside scaled by
                max{low - min, max - high}

Degenerate indices (max = min) standardize to 0.5 for benefit/cost so they
bias neither ideal matrix; intermediate and interval degenerate to 1.0
(every value already sits at the target).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import IndexDefinition, OrientationKind


def standardize_all(values: np.ndarray, indices: Sequence[IndexDefinition]) -> np.ndarray:
    """Standardize raw scores of shape (n, m, T) into a new float64 array.

    Index j of ``indices`` describes row j of every area. Each index is
    standardized over all n areas and T periods at once.
    """
    values = np.array(values, dtype=float)
    for j, d in enumerate(indices):
        a = values[:, j, :]  # n x T view
        lo, hi = a.min(), a.max()
        span = hi - lo
        kind = d.orientation.kind
        if kind is OrientationKind.BENEFIT:
            a[...] = 0.5 if span == 0.0 else (a - lo) / span
        elif kind is OrientationKind.COST:
            # the benefit complement, so the duality b + c = 1 is exact in
            # floating point, not just algebraically
            a[...] = 0.5 if span == 0.0 else 1.0 - (a - lo) / span
        elif kind is OrientationKind.INTERMEDIATE:
            dev = np.abs(a - np.median(a, axis=0))
            max_dev = dev.max()
            a[...] = 1.0 if max_dev == 0.0 else 1.0 - dev / max_dev
        else:
            low, high = d.orientation.interval_low, d.orientation.interval_high
            den = max(low - lo, hi - high)
            if den <= 0.0:
                # only reachable when every observed value lies inside [low, high]
                a[...] = 1.0
            else:
                a[...] = np.where(a < low, 1.0 - (low - a) / den,
                                  np.where(a > high, 1.0 - (a - high) / den, 1.0))
    return values
