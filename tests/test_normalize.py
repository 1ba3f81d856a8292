import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greyrisk import IndexDefinition, Orientation, standardize_all

import oracle
from conftest import make_input, standardized


def std(rows, orientation=Orientation.benefit()):
    """Standardize a single index given as per-area rows (n x T)."""
    x = np.array(rows, dtype=float)[:, None, :]
    return standardize_all(x, [IndexDefinition("x", "x", orientation, 1.0)])[:, 0, :]


class TestComputeExtrema:
    """The oracle's global extrema, which its scalar standardizers rely on."""

    def test_case_dataset_fuel_load(self, bundled_input):
        ex = oracle.compute_extrema(bundled_input)[0]
        assert (ex.min_val, ex.max_val) == (20.0, 50.0)

    def test_case_dataset_slope_aspect(self, bundled_input):
        ex = oracle.compute_extrema(bundled_input)[12]
        assert (ex.min_val, ex.max_val) == (65.0, 75.0)

    def test_toy_min_max(self):
        inp = make_input([[[1.0, 2.0], [9.0, 9.0]], [[3.0, 0.0], [9.0, 9.0]]])
        ex = oracle.compute_extrema(inp)[0]
        assert (ex.min_val, ex.max_val) == (0.0, 3.0)

    def test_intermediate_statistics(self):
        inp = make_input(
            [[[1.0, 1.0], [0.0, 1.0]], [[2.0, 2.0], [0.0, 1.0]], [[5.0, 5.0], [0.0, 1.0]]],
            orientations=[Orientation.intermediate(), Orientation.benefit()],
        )
        ex = oracle.compute_extrema(inp)[0]
        np.testing.assert_array_equal(ex.medians, [2.0, 2.0])
        assert ex.max_abs_dev == 3.0

    def test_benefit_index_has_no_median_statistics(self, bundled_input):
        ex = oracle.compute_extrema(bundled_input)[0]
        assert ex.medians is None and ex.max_abs_dev is None


ROW_20_50 = [[20.0, 30.0, 40.0, 50.0]]


class TestBenefit:
    def test_at_minimum(self):
        assert std(ROW_20_50)[0, 0] == 0.0

    def test_interior(self):
        assert std(ROW_20_50)[0, 2] == pytest.approx(0.6667, abs=5e-5)

    def test_degenerate_constant_index(self):
        np.testing.assert_array_equal(std([[7.0, 7.0], [7.0, 7.0]]), 0.5)


class TestCost:
    def test_at_maximum(self):
        assert std(ROW_20_50, Orientation.cost())[0, 3] == 0.0

    def test_at_minimum(self):
        assert std(ROW_20_50, Orientation.cost())[0, 0] == 1.0

    def test_duality_oracle(self):
        cost = std(ROW_20_50, Orientation.cost())[0, 1]
        assert cost == 1.0 - std(ROW_20_50)[0, 1]
        assert cost == oracle.standardize_cost(30.0, oracle.IndexExtrema("x", 20.0, 50.0))
        assert cost == pytest.approx(0.6667, abs=5e-5)

    def test_degenerate_constant_index(self):
        np.testing.assert_array_equal(std([[7.0, 7.0], [7.0, 7.0]], Orientation.cost()), 0.5)


class TestIntermediate:
    # one period; the cross-area median is 2 and the largest deviation 3
    def b(self):
        return std([[1.0], [2.0], [5.0]], Orientation.intermediate())[:, 0]

    def test_at_median(self):
        assert self.b()[1] == 1.0

    def test_farthest(self):
        assert self.b()[2] == 0.0

    def test_interior(self):
        assert self.b()[0] == pytest.approx(2.0 / 3.0)

    def test_zero_deviation_degenerates_to_one(self):
        np.testing.assert_array_equal(std([[2.0], [2.0]], Orientation.intermediate()), 1.0)

    def test_missing_statistics_rejected(self):
        # the oracle refuses to guess median statistics it was not given
        with pytest.raises(ValueError):
            oracle.standardize_intermediate(2.0, 0, oracle.IndexExtrema("x", 20.0, 50.0))


class TestInterval:
    # observed range [0, 30] around the interval [10, 20]
    def b(self):
        return std([[0.0, 15.0, 5.0, 25.0, 30.0]], Orientation.interval(10.0, 20.0))[0]

    def test_inside(self):
        assert self.b()[1] == 1.0

    def test_below(self):
        assert self.b()[2] == 0.5

    def test_above(self):
        assert self.b()[3] == 0.5

    def test_all_data_inside_degenerates_to_one(self):
        np.testing.assert_array_equal(
            std([[12.0, 18.0]], Orientation.interval(10.0, 20.0)), 1.0)


class TestStandardizeAll:
    def test_case_dataset_constant_rows(self, bundled_input):
        b1, b2, b3 = standardized(bundled_input)
        np.testing.assert_array_equal(b1[12], np.zeros(6))  # slope aspect: 65 = min
        np.testing.assert_array_equal(b2[12], np.ones(6))   # 75 = max
        np.testing.assert_array_equal(b3[14], np.zeros(6))  # elevation: 50 = min

    def test_case_dataset_first_cells(self, bundled_input):
        b1, _, b3 = standardized(bundled_input)
        assert b1[0, 0] == 0.0
        assert b3[0, 0] == pytest.approx(2.0 / 3.0)

    def test_shapes_match_input(self, bundled_input):
        assert standardized(bundled_input).shape == (3, 15, 6)

    def test_integer_scores_are_converted_not_truncated(self):
        x = np.array([[[1, 3]], [[2, 5]]])
        b = standardize_all(x, [IndexDefinition("x", "x", Orientation.benefit(), 1.0)])
        np.testing.assert_array_equal(b, [[[0.0, 0.5]], [[0.25, 1.0]]])
        np.testing.assert_array_equal(x, [[[1, 3]], [[2, 5]]])

    def test_float64_argument_is_left_unchanged(self, bundled_input):
        """The result is a new array and a float64 argument keeps its bytes."""
        kinds = [Orientation.benefit(), Orientation.cost(), Orientation.intermediate(),
                 Orientation.interval(-2.0, 2.0)]
        mixed = make_input((np.arange(160.0) * 37 % 101 - 50).reshape(5, 8, 4) / 10,
                           orientations=[kinds[j % 4] for j in range(8)])
        digests = [  # sha256 of each result, as computed when the argument was overwritten
            (bundled_input, "833120afb1c1100cc31d14ba583fd8dd6ad1c9fff27dbdf0511da46f78275c48"),
            (mixed, "014144256dc5b8b6dd7718ba71810c6d908f673977464371bccabab3f3fd4773"),
        ]
        for inp, digest in digests:
            x = inp.values.copy()
            b = standardize_all(x, inp.indices)
            assert not np.shares_memory(b, x)
            assert x.tobytes() == inp.values.tobytes()
            assert hashlib.sha256(b.tobytes()).hexdigest() == digest

    def test_mixed_orientations_in_range(self):
        inp = make_input(
            [[[1.0, 9.0], [4.0, 2.0], [3.0, 3.0], [8.0, 1.0]],
             [[5.0, 2.0], [1.0, 7.0], [2.0, 6.0], [0.0, 4.0]]],
            orientations=[Orientation.benefit(), Orientation.cost(),
                          Orientation.intermediate(), Orientation.interval(2.0, 5.0)],
        )
        b = standardized(inp)
        assert ((b >= 0.0) & (b <= 1.0)).all()


# --- property tests -------------------------------------------------------

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def value_with_extrema(draw):
    # + 0.0 turns -0.0 into 0.0: sorted() keeps (0.0, -0.0) in that order, and
    # hypothesis rejects the bounds min_value=0.0, max_value=-0.0
    lo, hi = sorted((draw(finite) + 0.0, draw(finite) + 0.0))
    a = draw(st.floats(min_value=lo, max_value=hi, allow_nan=False))
    return a, lo, hi


@given(value_with_extrema())
def test_benefit_and_cost_stay_in_range(case):
    a, lo, hi = case
    for orientation in (Orientation.benefit(), Orientation.cost()):
        b = std([[lo, a, hi]], orientation)
        assert ((0.0 <= b) & (b <= 1.0)).all()


@given(value_with_extrema())
def test_duality_is_exact(case):
    a, lo, hi = case
    row = [[lo, a, hi]]
    np.testing.assert_array_equal(std(row, Orientation.cost()), 1.0 - std(row))


@given(value_with_extrema(), value_with_extrema())
def test_benefit_monotone(p1, p2):
    a1, lo, hi = p1
    a2 = min(max(p2[0], lo), hi)
    lower, upper = sorted((a1, a2))
    row = [[lo, lower, upper, hi]]
    b, c = std(row)[0], std(row, Orientation.cost())[0]
    assert b[1] <= b[2]
    assert c[1] >= c[2]


@given(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.floats(min_value=0, max_value=50, allow_nan=False),
    st.floats(min_value=0, max_value=200, allow_nan=False),
)
def test_interval_peak_and_falloff(low, width, offset):
    high = low + width
    lo, hi = low - 100.0, high + 100.0
    inside = low + width / 2
    below = max(low - offset, lo)
    above = min(high + offset, hi)
    b = std([[lo, inside, below, above, hi]], Orientation.interval(low, high))[0]
    at_lo, at_inside, at_below, at_above, at_hi = b
    assert at_inside == 1.0
    assert at_below >= at_lo
    assert at_above >= at_hi
    assert 0.0 <= at_below <= 1.0
    assert 0.0 <= at_above <= 1.0


matrix_strategy = st.integers(min_value=2, max_value=5).flatmap(
    lambda m: st.integers(min_value=2, max_value=5).flatmap(
        lambda t: st.lists(
            st.lists(
                st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                         min_size=t, max_size=t),
                min_size=m, max_size=m),
            min_size=2, max_size=4)
    )
)


@given(matrix_strategy)
@settings(max_examples=50, deadline=None)
def test_all_orientations_standardize_into_unit_range(mats):
    m = len(mats[0])
    kinds = [Orientation.benefit(), Orientation.cost(), Orientation.intermediate(),
             Orientation.interval(-10.0, 10.0)]
    b = standardized(make_input(mats, orientations=[kinds[j % 4] for j in range(m)]))
    assert ((b >= 0.0) & (b <= 1.0)).all()


@given(matrix_strategy, st.sampled_from([Orientation.benefit(), Orientation.cost()]))
@settings(max_examples=50, deadline=None)
def test_extremum_attainment(mats, orientation):
    m = len(mats[0])
    inp = make_input(mats, orientations=[orientation] * m)
    bs = standardized(inp)  # n x m x T
    for j in range(bs.shape[1]):
        rows = bs[:, j, :]
        vals = inp.values[:, j, :]
        if vals.max() > vals.min():
            assert rows.min() == 0.0 and rows.max() == 1.0
        else:
            assert (rows == 0.5).all()


# integer-valued scores keep the affine comparison well conditioned (any
# non-degenerate index has span >= 1)
int_matrix_strategy = st.integers(min_value=2, max_value=5).flatmap(
    lambda m: st.integers(min_value=2, max_value=5).flatmap(
        lambda t: st.lists(
            st.lists(
                st.lists(st.integers(min_value=-100, max_value=100),
                         min_size=t, max_size=t),
                min_size=m, max_size=m),
            min_size=2, max_size=4)
    )
)


@given(
    int_matrix_strategy,
    st.floats(min_value=0.1, max_value=10, allow_nan=False),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_benefit_affine_covariance(mats, alpha, beta):
    inp = make_input(mats)
    shifted = make_input([alpha * np.asarray(v, dtype=float) + beta for v in mats])
    np.testing.assert_allclose(standardized(shifted), standardized(inp), atol=1e-9)
