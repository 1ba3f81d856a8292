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


def _block_step(cells: int) -> int:
    """Areas per block of areas of ``cells`` cells: BLOCK_CELLS cells at most, one area at least."""
    return max(1, BLOCK_CELLS // max(1, cells))


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


def local_volume(ctilde: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Signed volumes under zeroed surfaces stored in the last two axes.

    An (..., m, T) input gives (..., m-1, T-1) volumes. Cell (i, j)
    integrates the surface spanned by the 2x2 window at (i, j), triangulated
    along the window's anti-diagonal. The result goes to ``out`` when given,
    else to a new array; the input is left as it was.
    """
    z = np.array(ctilde, dtype=float, order="C")  # a copy, which the volumes are made over
    if z.ndim < 2 or z.shape[-2] < 2 or z.shape[-1] < 2:
        raise ValueError(f"local volume needs at least a 2x2 matrix, got shape {z.shape}")
    return _volumes_over(z, np.empty(z.shape[:-2] + (z.shape[-2] - 1, z.shape[-1] - 1))
                         if out is None else out)


def _volumes_over(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Local volumes of a C-contiguous (..., m, T) ``z`` into ``out``, made over ``z``. In the
    flat f of ``z``, window p has its corners at f[p], f[p+T+1], f[p+T] and f[p+1], so each
    term is one contiguous slice; the windows that straddle two rows are left out of ``out``."""
    f, T = z.reshape(-1), z.shape[-1]
    L = max(0, f.size - T - 1)
    # (z00 + z11) / 6 + (z10 + z01) / 3
    anti = np.add(f[T:T + L], f[1:1 + L])
    anti /= 3.0
    vol = np.add(f[:L], f[T + 1:], out=f[:L])  # f[p] is read before it is written: no copy
    vol /= 6.0
    vol += anti
    np.copyto(out, z[..., :-1, :-1])
    return out


def grey_coefficients(
    diffs: np.ndarray, d_max: float, d_min: float, out: np.ndarray | None = None
) -> np.ndarray:
    """G = (d_max - D) / (d_max - d_min), or all ones when d_max = d_min.

    The degenerate branch covers d_max = 0 (every area matches the reference
    exactly) and d_max = d_min != 0 (all differences equal, so no
    discrimination is possible). The result goes to ``out`` when given
    (``diffs`` itself is allowed), else to a new array.
    """
    if d_max == d_min:
        if out is None:
            return np.ones_like(diffs)
        out.fill(1.0)
        return out
    g = np.subtract(d_max, diffs, out=out)
    return np.divide(g, d_max - d_min, out=g)


def _volume_diffs(reference_volume: np.ndarray, volumes: np.ndarray):
    """D = |V - V0| one block of areas at a time: yields (block, D of the block's areas)."""
    step = _block_step(reference_volume.size)
    for k in range(0, len(volumes), step):
        diffs = volumes[k:k + step] - reference_volume
        yield slice(k, k + step), np.abs(diffs, out=diffs)


def incidence_degrees(
    reference_volume: np.ndarray, volumes: np.ndarray
) -> tuple[float, float, np.ndarray]:
    """(d_max, d_min, degrees) of every area against the reference, with no D held whole.

    ``volumes`` is the (n, m-1, T-1) local volume array of all areas and
    ``reference_volume`` the (m-1, T-1) local volumes of the reference. The extreme
    absolute differences d_max and d_min are taken jointly over all areas, so the
    grey coefficients of different areas are on a common scale.

    Two passes over the blocks of areas: the first folds d_max and d_min, the second
    averages each area's grey coefficients. Max and min are exact, so the result
    does not depend on where the blocks end.
    """
    reference_volume = np.asarray(reference_volume, dtype=float)
    volumes = np.asarray(volumes, dtype=float)
    if volumes.shape[1:] != reference_volume.shape:
        raise ValueError(
            f"shape mismatch: volumes {volumes.shape} vs reference {reference_volume.shape}")
    if len(volumes) == 0:
        raise ValueError("at least one area required")
    d_max, d_min = -math.inf, math.inf
    for _, diffs in _volume_diffs(reference_volume, volumes):
        d_max, d_min = max(d_max, float(diffs.max())), min(d_min, float(diffs.min()))
    degrees = np.empty(len(volumes))
    for block, diffs in _volume_diffs(reference_volume, volumes):
        degrees[block] = grey_coefficients(diffs, d_max, d_min, out=diffs).mean(axis=(-2, -1))
    return d_max, d_min, degrees


def area_volume_diffs(reference_volume: np.ndarray, volumes: np.ndarray):
    """Each area's D in area order, made one block at a time as ``incidence_degrees`` makes it."""
    for _, diffs in _volume_diffs(reference_volume, volumes):
        yield from diffs
