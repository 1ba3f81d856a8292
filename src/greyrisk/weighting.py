"""Weighted scores and the positive/negative ideal matrices.

The weighted matrix scales each standardized cell by its index weight and
time weight: C[j, t] = lambda_j * B[j, t] * theta_t. The positive (negative)
ideal matrix is the elementwise maximum (minimum) over all areas' weighted
matrices; it is the hypothetical riskiest (safest) profile.
"""

from __future__ import annotations

import numpy as np


def apply_weights(
    b: np.ndarray, index_weights: np.ndarray, time_weights: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Weight standardized scores whose last two axes are (m, T), e.g. (n, m, T).

    The result goes to ``out`` when given (``b`` itself is allowed), else to a new array.
    """
    b = np.asarray(b, dtype=float)
    lam = np.asarray(index_weights, dtype=float)
    theta = np.asarray(time_weights, dtype=float)
    if b.ndim < 2 or b.shape[-2:] != (lam.size, theta.size):
        raise ValueError(
            f"dimension mismatch: scores {b.shape} vs {lam.size} index weights "
            f"and {theta.size} time weights"
        )
    return _weigh(b, *_weight_grids(lam, theta), out=out)


def _weight_grids(lam: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both weights as (m, T) arrays, so that numpy runs one m*T-long inner loop per matrix."""
    m, T = lam.size, theta.size
    return lam.repeat(T).reshape(m, T), theta[None, :].repeat(m, axis=0)


def _weigh(b: np.ndarray, lam: np.ndarray, theta: np.ndarray, out: np.ndarray | None = None):
    """C = lambda * B, then times theta, with both weights' (m, T) ``_weight_grids``."""
    c = np.multiply(lam, b, out=out)
    return np.multiply(c, theta, out=c)


def positive_ideal(c: np.ndarray) -> np.ndarray:
    """Elementwise maximum over the leading area axis of (n, m, T) weighted scores."""
    return np.max(c, axis=0)


def negative_ideal(c: np.ndarray) -> np.ndarray:
    """Elementwise minimum over the leading area axis of (n, m, T) weighted scores."""
    return np.min(c, axis=0)
