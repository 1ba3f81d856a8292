"""Volumetric grey incidence between a reference matrix and behavior matrices.

The closeness of two m x T matrices is measured through the volumes under
their re-based (zeroed) surfaces. Each adjacent 2x2 window of a zeroed
matrix contributes one local volume

    d[i, j] = (z[i, j] + z[i+1, j+1]) / 6 + (z[i+1, j] + z[i, j+1]) / 3,

which equals the integral over the unit cell of the piecewise-linear
surface obtained by splitting the cell into two triangles along its
anti-diagonal. Absolute differences of local volumes between a factor and
the reference, rescaled by the extreme differences across the whole factor
family, give per-window grey coefficients in [0, 1]; their mean is the
volumetric incidence degree of that factor.

Working on volume differences of re-based surfaces makes the degree
invariant under a common positive scaling of all matrices, and (for the
subtractive zeroing modes) under a common translation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# cells per block of areas: the stages that need a temporary build it one block
# at a time, so no temporary as large as the area array exists
BLOCK_CELLS = 1 << 15


class ZeroingMode(str, Enum):
    """How a behavior matrix is re-based before volume computation.

    FIRST_COLUMN subtracts each row's first-period value, re-basing every
    index's time series at its start; this is the default. FIRST_ELEMENT
    subtracts the single top-left value from the whole matrix. NONE leaves
    the matrix untouched (no translation invariance).
    """

    FIRST_COLUMN = "first-column"
    FIRST_ELEMENT = "first-element"
    NONE = "none"


@dataclass(frozen=True)
class IncidenceFamilyResult:
    """Incidence of every area against one shared reference.

    ``volume_diffs`` is the (n, m-1, T-1) array D of absolute local volume
    differences from the reference; ``degrees`` holds the n incidence
    degrees. The extreme differences d_max/d_min are taken jointly over all
    areas, so coefficients of different areas are on a common scale.
    """

    volume_diffs: np.ndarray
    d_max: float
    d_min: float
    degrees: np.ndarray


def _blocks(n: int, cells: int):
    """Slices of consecutive areas, each of at most BLOCK_CELLS cells and one area at least."""
    step = max(1, BLOCK_CELLS // cells)
    return (slice(k, k + step) for k in range(0, n, step))


def zeroing_image(
    c: np.ndarray, mode: ZeroingMode = ZeroingMode.FIRST_COLUMN, out: np.ndarray | None = None
) -> np.ndarray:
    """Re-base matrices stored in the last two axes (m, T) of ``c``.

    The result goes to ``out`` when given (``c`` itself is allowed), else to a new array.
    """
    c = np.asarray(c, dtype=float)
    mode = ZeroingMode(mode)
    if mode is ZeroingMode.NONE:
        base = 0.0  # c - 0.0 is c bit for bit, -0.0 included
    else:
        # a copy of the base: with out overlapping c, numpy would copy all of c
        base = (c[..., :1] if mode is ZeroingMode.FIRST_COLUMN else c[..., :1, :1]).copy()
    return np.subtract(c, base, out=out)


def local_volume(ctilde: np.ndarray) -> np.ndarray:
    """Signed volumes under zeroed surfaces stored in the last two axes.

    An (..., m, T) input gives (..., m-1, T-1) volumes. Cell (i, j)
    integrates the surface spanned by the 2x2 window at (i, j), triangulated
    along the window's anti-diagonal.
    """
    z = np.asarray(ctilde, dtype=float)
    if z.ndim < 2 or z.shape[-2] < 2 or z.shape[-1] < 2:
        raise ValueError(f"local volume needs at least a 2x2 matrix, got shape {z.shape}")
    # (z00 + z11) / 6 + (z10 + z01) / 3, the second term built one block of areas at a time
    vol = z[..., :-1, :-1] + z[..., 1:, 1:]
    vol /= 6.0
    stacked, stacked_vol = (z, vol) if z.ndim > 2 else (z[None], vol[None])
    for block in _blocks(len(stacked), math.prod(stacked.shape[1:])):
        anti = stacked[block, ..., 1:, :-1] + stacked[block, ..., :-1, 1:]
        anti /= 3.0
        acc = stacked_vol[block]  # a view, so += writes into vol
        acc += anti
    return vol


def grey_coefficients(diffs: np.ndarray, d_max: float, d_min: float) -> np.ndarray:
    """G = (d_max - D) / (d_max - d_min), or all ones when d_max = d_min.

    The degenerate branch covers d_max = 0 (every area matches the reference
    exactly) and d_max = d_min != 0 (all differences equal, so no
    discrimination is possible).
    """
    if d_max == d_min:
        return np.ones_like(diffs)
    return (d_max - diffs) / (d_max - d_min)


def incidence_family(reference_volume: np.ndarray, volumes: np.ndarray) -> IncidenceFamilyResult:
    """Volumetric incidence degree of every area against the reference.

    ``volumes`` is the (n, m-1, T-1) local volume array of all areas and
    ``reference_volume`` the (m-1, T-1) local volumes of the reference. Each
    area's degree is the mean of its grey coefficient matrix.
    """
    ref = np.asarray(reference_volume, dtype=float)
    vols = np.asarray(volumes, dtype=float)
    if vols.shape[1:] != ref.shape:
        raise ValueError(f"shape mismatch: volumes {vols.shape} vs reference {ref.shape}")
    if len(vols) == 0:
        raise ValueError("at least one area required")
    diffs = vols - ref
    np.abs(diffs, out=diffs)
    d_max, d_min = float(diffs.max()), float(diffs.min())
    degrees = np.empty(len(diffs))
    for block in _blocks(len(diffs), ref.size):
        degrees[block] = grey_coefficients(diffs[block], d_max, d_min).mean(axis=(-2, -1))
    return IncidenceFamilyResult(volume_diffs=diffs, d_max=d_max, d_min=d_min, degrees=degrees)
