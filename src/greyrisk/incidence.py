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


def _degrees(references: np.ndarray, volumes: np.ndarray,
             record=lambda symbol, family, first, x: None) -> tuple[list, list, np.ndarray]:
    """(d_max list, d_min list, (families, n) degrees) of the (n, m-1, T-1) ``volumes``
    toward each (m-1, T-1) reference volume stacked in ``references``. Two passes over
    blocks of areas make each block's D = |V - V0| toward each reference in one buffer:
    the first folds d_max and d_min; the second calls ``record("D", family, first, D)``,
    turns D into G in place, calls ``record("G", family, first, G)`` and averages G."""
    n, families = len(volumes), len(references)
    step = _block_step(references[0].size)
    buffer = np.empty((min(step, n),) + references.shape[1:])

    def blocks():
        for k in range(0, n, step):
            v = volumes[k:k + step]
            for i, ref in enumerate(references):
                diffs = np.subtract(v, ref, out=buffer[:len(v)])
                yield i, k, np.abs(diffs, out=diffs)

    d_max, d_min = [-math.inf] * families, [math.inf] * families
    for i, _, diffs in blocks():
        d_max[i], d_min[i] = max(d_max[i], float(diffs.max())), min(d_min[i], float(diffs.min()))
    degrees = np.empty((families, n))
    for i, k, diffs in blocks():
        record("D", i, k, diffs)
        g = grey_coefficients(diffs, d_max[i], d_min[i], out=diffs)
        record("G", i, k, g)
        g.mean(axis=(-2, -1), out=degrees[i, k:k + len(g)])
    return d_max, d_min, degrees
