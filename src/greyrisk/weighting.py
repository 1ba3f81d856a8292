"""Weighted scores.

The weighted matrix scales each standardized cell by its index weight and
time weight: C[j, t] = lambda_j * B[j, t] * theta_t. The positive (negative)
ideal matrix, the elementwise maximum (minimum) over all areas' weighted
matrices, is folded block by block in ``pipeline._ideals_and_volumes``.
"""

from __future__ import annotations

import numpy as np


def _weight_grids(lam: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both weights as (m, T) arrays, so that numpy runs one m*T-long inner loop per matrix."""
    m, T = lam.size, theta.size
    return lam.repeat(T).reshape(m, T), theta[None, :].repeat(m, axis=0)


def _weigh(b: np.ndarray, lam: np.ndarray, theta: np.ndarray, out: np.ndarray | None = None):
    """C = lambda * B, then times theta, with both weights' (m, T) ``_weight_grids``."""
    c = np.multiply(lam, b, out=out)
    return np.multiply(c, theta, out=c)
