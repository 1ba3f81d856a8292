"""Superiority degrees, ranking, and the seven-grade risk classification.

The superiority degree s of an area with incidence gamma_pos toward the
riskiest profile and gamma_neg toward the safest one is the minimizer of

    H(s) = sum_i [((1 - s_i) * gamma_pos_i)^2 + (s_i * gamma_neg_i)^2],

which separates per area and has the closed form

    s = gamma_pos^2 / (gamma_pos^2 + gamma_neg^2).

Larger s means higher risk. Areas are ranked by descending s and classified
against seven fixed grade thresholds; a degree falling between two grades
takes the higher grade.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np


class DegenerateAssessmentError(ArithmeticError):
    """Raised when both incidence degrees of an area are zero.

    A zero pair means every grey coefficient hit the degenerate branch;
    the superiority degree is undefined and the run should be inspected
    rather than silently neutralized.
    """


class RiskLevel(IntEnum):
    EXTREMELY_LOW = 1
    LOW = 2
    SLIGHTLY_LOW = 3
    MEDIUM = 4
    SLIGHTLY_HIGH = 5
    HIGH = 6
    EXTREMELY_HIGH = 7

    @property
    def label(self) -> str:
        return self.name.lower().replace("_", " ")


# Grade thresholds for levels 1..7; a degree above the last one is
# extremely high.
RISK_THRESHOLDS: tuple[float, ...] = (0.1, 0.2, 0.4, 0.6, 0.7, 0.8, 0.9)


def superiority_degree(gamma_pos, gamma_neg) -> np.ndarray:
    """Closed-form superiority degree of each (gamma_pos, gamma_neg) pair."""
    gp, gn = np.broadcast_arrays(np.asarray(gamma_pos, dtype=float),
                                 np.asarray(gamma_neg, dtype=float))
    inside = (0.0 <= gp) & (gp <= 1.0) & (0.0 <= gn) & (gn <= 1.0)
    if not inside.all():
        k = np.flatnonzero(~inside)[0]
        raise ValueError(
            "incidence degrees must lie in [0, 1], "
            f"got ({float(gp.flat[k])!r}, {float(gn.flat[k])!r})"
        )
    if ((gp == 0.0) & (gn == 0.0)).any():
        raise DegenerateAssessmentError(
            "both incidence degrees are zero; superiority degree undefined"
        )
    return gp**2 / (gp**2 + gn**2)


def classify(s) -> np.ndarray:
    """Risk level number of each superiority degree (see ``RiskLevel``).

    A degree takes the smallest grade whose threshold covers it.
    """
    s = np.asarray(s, dtype=float)
    inside = (0.0 <= s) & (s <= 1.0)
    if not inside.all():
        raise ValueError(f"superiority degree must lie in [0, 1], got {float(s[~inside][0])!r}")
    grade = np.searchsorted(RISK_THRESHOLDS, s, side="left") + 1
    return np.minimum(grade, RiskLevel.EXTREMELY_HIGH)


def rank_areas(s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank areas by descending superiority degree; rank 1 is the riskiest.

    Returns ``(order, rank, tied)``: ``order`` lists area positions in rank
    order, keeping input order among equal degrees; ``rank[k]`` is 1 + the
    number of areas with a strictly larger degree than area k, so ties share
    the smaller rank; ``tied[k]`` flags a degree that another area shares.
    """
    s = np.asarray(s, dtype=float)
    order = np.argsort(-s, kind="stable")
    sd, pos = s[order], np.arange(s.size)
    bounds = np.ones(s.size + 1, bool)  # bounds[k]: a tie group starts at rank position k
    np.not_equal(sd[1:], sd[:-1], out=bounds[1:-1])
    rank, tied = np.empty_like(pos), np.empty(s.size, bool)
    rank[order] = np.maximum.accumulate(np.where(bounds[:-1], pos, 0)) + 1
    tied[order] = ~(bounds[:-1] & bounds[1:])  # an area alone in its group starts and ends it
    return order, rank, tied
