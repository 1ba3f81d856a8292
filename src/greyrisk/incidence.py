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

from dataclasses import dataclass
from enum import Enum

import numpy as np


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

    @property
    def coefficients(self) -> np.ndarray:
        """Grey coefficients of every area, shaped like ``volume_diffs``."""
        return grey_coefficients(self.volume_diffs, self.d_max, self.d_min)


def zeroing_image(c: np.ndarray, mode: ZeroingMode = ZeroingMode.FIRST_COLUMN) -> np.ndarray:
    """Re-base matrices stored in the last two axes (m, T) of ``c``.

    NONE returns ``c`` itself rather than a copy.
    """
    c = np.asarray(c, dtype=float)
    mode = ZeroingMode(mode)
    if mode is ZeroingMode.FIRST_COLUMN:
        return c - c[..., :1]
    if mode is ZeroingMode.FIRST_ELEMENT:
        return c - c[..., :1, :1]
    return c


def local_volume(ctilde: np.ndarray) -> np.ndarray:
    """Signed volumes under zeroed surfaces stored in the last two axes.

    An (..., m, T) input gives (..., m-1, T-1) volumes. Cell (i, j)
    integrates the surface spanned by the 2x2 window at (i, j), triangulated
    along the window's anti-diagonal.
    """
    z = np.asarray(ctilde, dtype=float)
    if z.ndim < 2 or z.shape[-2] < 2 or z.shape[-1] < 2:
        raise ValueError(f"local volume needs at least a 2x2 matrix, got shape {z.shape}")
    return ((z[..., :-1, :-1] + z[..., 1:, 1:]) / 6.0
            + (z[..., 1:, :-1] + z[..., :-1, 1:]) / 3.0)


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
    diffs = np.abs(vols - ref)
    d_max, d_min = float(diffs.max()), float(diffs.min())
    degrees = grey_coefficients(diffs, d_max, d_min).mean(axis=(-2, -1))
    return IncidenceFamilyResult(volume_diffs=diffs, d_max=d_max, d_min=d_min, degrees=degrees)
