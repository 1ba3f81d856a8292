import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greyrisk import DegenerateAssessmentError, RiskLevel, classify, rank_areas, superiority_degree
from greyrisk.ranking import RISK_THRESHOLDS

import oracle
from oracle import objective_H


class TestSuperiorityDegree:
    @pytest.mark.parametrize(
        "gp, gn, expected",
        [(0.89, 0.97, 0.457), (0.92, 0.93, 0.495), (0.96, 0.89, 0.538)],
    )
    def test_case_study_pairs(self, gp, gn, expected):
        assert round(superiority_degree(gp, gn), 3) == expected

    def test_symmetric_pair_is_half(self):
        assert superiority_degree(0.7, 0.7) == 0.5

    def test_both_zero_rejected(self):
        with pytest.raises(DegenerateAssessmentError):
            superiority_degree(0.0, 0.0)

    @pytest.mark.parametrize("gp, gn", [(-0.1, 0.5), (0.5, 1.2), (2.0, 2.0)])
    def test_out_of_range_rejected(self, gp, gn):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            superiority_degree(gp, gn)

    def test_extremes(self):
        assert superiority_degree(1.0, 0.0) == 1.0
        assert superiority_degree(0.0, 1.0) == 0.0

    def test_elementwise_over_areas(self):
        s = superiority_degree([0.89, 0.92, 0.96], [0.97, 0.93, 0.89])
        assert np.round(s, 3).tolist() == [0.457, 0.495, 0.538]


unit_open = st.floats(min_value=0.001, max_value=1.0, allow_nan=False)


@given(unit_open, unit_open)
def test_complementarity(gp, gn):
    assert superiority_degree(gn, gp) == pytest.approx(
        1.0 - superiority_degree(gp, gn), abs=1e-12
    )


@given(unit_open, unit_open, unit_open)
def test_monotone_in_both_degrees(gp, gn, other):
    # a raise below float resolution (gp or gn within an ulp of 1) may leave s
    # unchanged, so strict monotonicity is only checked above it
    higher = min(1.0, gp + 0.1)
    if higher - gp > 1e-9:
        assert superiority_degree(higher, gn) > superiority_degree(gp, gn)
    worse = min(1.0, gn + 0.1)
    if worse - gn > 1e-9:
        assert superiority_degree(gp, worse) < superiority_degree(gp, gn)


class TestObjective:
    def test_perfect_split_is_zero(self):
        assert objective_H([1.0], [1.0], [0.0]) == 0.0

    def test_case_study_term(self):
        # direct evaluation of (1 - 0.457)^2 * 0.89^2 + 0.457^2 * 0.97^2
        assert objective_H([0.457], [0.89], [0.97]) == pytest.approx(0.4300559, abs=1e-6)

    def test_perturbation_increases_objective(self):
        gp, gn = 0.89, 0.97
        s_star = superiority_degree(gp, gn)
        base = objective_H([s_star], [gp], [gn])
        for eps in (1e-3, -1e-3):
            assert objective_H([s_star + eps], [gp], [gn]) > base

    def test_sums_over_areas(self):
        single = objective_H([0.4], [0.9], [0.8])
        assert objective_H([0.4, 0.4], [0.9, 0.9], [0.8, 0.8]) == pytest.approx(2 * single)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            objective_H([0.5], [0.9, 0.8], [0.7])


@given(unit_open, unit_open)
@settings(max_examples=100, deadline=None)
def test_closed_form_minimizes_objective(gp, gn):
    s_star = superiority_degree(gp, gn)
    base = objective_H([s_star], [gp], [gn])
    rng = np.random.default_rng(0)
    for s in rng.uniform(0.0, 1.0, 50):
        assert base <= objective_H([s], [gp], [gn])


class TestClassify:
    @pytest.mark.parametrize(
        "s, level",
        [
            (0.3, RiskLevel.SLIGHTLY_LOW),
            (0.46, RiskLevel.MEDIUM),
            (0.1, RiskLevel.EXTREMELY_LOW),
            (0.95, RiskLevel.EXTREMELY_HIGH),
            (0.0, RiskLevel.EXTREMELY_LOW),
            (1.0, RiskLevel.EXTREMELY_HIGH),
        ],
    )
    def test_fixtures(self, s, level):
        assert classify(s) == level

    @pytest.mark.parametrize("threshold, level", list(zip(RISK_THRESHOLDS, RiskLevel)))
    def test_exact_thresholds_map_to_their_level(self, threshold, level):
        assert classify(threshold) == level

    @pytest.mark.parametrize("s", [-0.01, 1.01])
    def test_out_of_range_rejected(self, s):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            classify(s)

    def test_elementwise_matches_scalar_oracle(self):
        s = np.linspace(0.0, 1.0, 1001)
        assert classify(s).tolist() == [oracle.classify(float(v)) for v in s]

    def test_labels(self):
        assert RiskLevel.EXTREMELY_LOW.label == "extremely low"
        assert RiskLevel.SLIGHTLY_HIGH.label == "slightly high"


@given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
def test_classification_monotone(s1, s2):
    lo, hi = sorted((s1, s2))
    assert classify(lo) <= classify(hi)


def ranked(scores):
    """(position, rank, tied) of each area in rank order."""
    order, rank, tied = rank_areas(scores)
    return [(int(k), int(rank[k]), bool(tied[k])) for k in order]


class TestRankAreas:
    def test_case_study_order(self):
        assert ranked([0.46, 0.50, 0.54]) == [(2, 1, False), (1, 2, False), (0, 3, False)]

    def test_single_area(self):
        assert ranked([0.7]) == [(0, 1, False)]

    def test_ties_share_smaller_rank_and_flag(self):
        # input order is preserved among tied entries
        assert ranked([0.5, 0.5]) == [(0, 1, True), (1, 1, True)]

    def test_rank_after_tie_skips(self):
        assert ranked([0.2, 0.5, 0.5]) == [(1, 1, True), (2, 1, True), (0, 3, False)]


@given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=8))
def test_distinct_scores_rank_as_permutation(scores):
    order, rank, tied = rank_areas(scores)
    if len(set(scores)) == len(scores):
        assert sorted(rank.tolist()) == list(range(1, len(scores) + 1))
    supers = [scores[k] for k in order]
    assert supers == sorted(supers, reverse=True)
    assert rank[order[0]] == 1


@given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0, 1), max_size=12))
def test_matches_pairwise_oracle(scores):
    expected = oracle.rank_areas([(str(k), s) for k, s in enumerate(scores)])
    assert ranked(scores) == [(int(name), rank, tied) for name, _, rank, tied in expected]


@given(st.lists(st.sampled_from([0.0, -0.0, 5e-324, 0.25, 0.5, 1.0]), max_size=40))
def test_tie_heavy_ranks_match_pairwise_oracle_with_their_dtypes(scores):
    """Ranks and tie flags come from the tie groups of the sorted degrees; -0.0 ties 0.0."""
    order, rank, tied = rank_areas(scores)
    assert [a.dtype for a in (order, rank, tied)] == [np.dtype(np.intp)] * 2 + [np.dtype(bool)]
    expected = oracle.rank_areas([(str(k), s) for k, s in enumerate(scores)])
    assert ranked(scores) == [(int(name), rank, tied) for name, _, rank, tied in expected]
