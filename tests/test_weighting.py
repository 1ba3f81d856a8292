import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from greyrisk import IndexDefinition, Orientation, ZeroingMode, normalize, pipeline, weighting
from greyrisk import io as gio
from greyrisk.model import index_extrema


def weigh(b, index_weights, time_weights, out=None):
    """Scores whose last two axes are (m, T) weighted as the run weighs each block."""
    lam, theta = np.asarray(index_weights, dtype=float), np.asarray(time_weights, dtype=float)
    return weighting._weigh(b, *weighting._weight_grids(lam, theta), out=out)


def weighted_and_ideals(mats, lam=None, theta=None):
    """(weighted scores, positive ideal, negative ideal) of raw (n, m, T) benefit scores,
    the ideals as the run folds them; unit weights by default, which leave the weighted
    scores the standardized ones."""
    values = np.asarray(mats, dtype=float)
    n, m, T = values.shape
    lam = np.ones(m) if lam is None else lam
    theta = np.ones(T) if theta is None else theta
    indices = [IndexDefinition(f"e{j}", f"e{j}", Orientation("benefit"), 1.0) for j in range(m)]
    operands = normalize.standardization(values, indices, index_extrema(values))
    c = weigh(normalize.standardize(values, operands), lam, theta)
    c_pos, c_neg, _ = pipeline._ideals_and_volumes(values, operands, lam, theta,
                                                   ZeroingMode.FIRST_COLUMN,
                                                   gio.TraceWriter(None, None))
    return c, c_pos, c_neg


class TestApplyWeights:
    def test_identity_weights(self):
        b = np.array([[0.2, 0.8], [0.5, 0.1]])
        np.testing.assert_array_equal(weigh(b, [1.0, 1.0], [1.0, 1.0]), b)

    def test_zero_cells_annihilate(self):
        b = np.array([[0.0, 0.8], [0.5, 0.0]])
        c = weigh(b, [0.3, 0.7], [0.4, 0.6])
        assert c[0, 0] == 0.0 and c[1, 1] == 0.0

    def test_case_dataset_cell(self):
        # first index of the bundled case's third area at the first period
        c = weigh(np.array([[2.0 / 3.0]]), [0.1458], [0.21])
        assert c[0, 0] == pytest.approx(0.020412, rel=1e-9)

    def test_weights_broadcast_over_areas(self):
        b = np.stack(FIXTURE)
        c = weigh(b, [0.3, 0.7], [0.4, 0.6])
        for bk, ck in zip(b, c):
            np.testing.assert_array_equal(ck, weigh(bk, [0.3, 0.7], [0.4, 0.6]))


@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5)),
              elements=st.floats(-1e3, 1e3)))
@settings(max_examples=40, deadline=None)
def test_weighting_in_place_keeps_the_product_order(b):
    n, m, t = b.shape
    lam, theta = np.linspace(0.1, 0.9, m), np.linspace(0.3, 0.7, t)
    expected = (lam[:, None] * b) * theta
    assert weigh(b, lam, theta).tobytes() == expected.tobytes()
    work = b.copy()
    assert weigh(work, lam, theta, out=work) is work
    assert work.tobytes() == expected.tobytes()


FIXTURE = [
    np.array([[1.0, 2.0], [3.0, 4.0]]),
    np.array([[2.0, 1.0], [4.0, 3.0]]),
    np.array([[0.0, 5.0], [1.0, 2.0]]),
]


class TestIdealMatrices:
    """The ideals of FIXTURE's scores, standardized per index: (a - 0) / 5 and (a - 1) / 3."""

    def test_positive_elementwise_max(self):
        c, c_pos, _ = weighted_and_ideals(FIXTURE)
        np.testing.assert_array_equal(c_pos, [[0.4, 1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(c_pos, c.max(axis=0))

    def test_negative_elementwise_min(self):
        c, _, c_neg = weighted_and_ideals(FIXTURE)
        np.testing.assert_array_equal(c_neg, [[0.0, 0.2], [0.0, 1.0 / 3.0]])
        np.testing.assert_array_equal(c_neg, c.min(axis=0))

    def test_idempotent_on_identical_matrices(self):
        c, c_pos, c_neg = weighted_and_ideals([FIXTURE[0], FIXTURE[0].copy()])
        np.testing.assert_array_equal(c_pos, c[0])
        np.testing.assert_array_equal(c_neg, c[0])

    def test_negative_below_positive(self):
        _, c_pos, c_neg = weighted_and_ideals(FIXTURE)
        assert (c_neg <= c_pos).all()


# --- property tests -------------------------------------------------------

unit_matrices = st.integers(min_value=2, max_value=5).flatmap(
    lambda m: st.integers(min_value=2, max_value=5).flatmap(
        lambda t: st.lists(
            arrays(np.float64, (m, t),
                   elements=st.floats(min_value=0, max_value=1, allow_nan=False)),
            min_size=1, max_size=5)
    )
)


@given(unit_matrices)
@settings(max_examples=60, deadline=None)
def test_ideal_dominance_and_tightness(mats):
    m, t = mats[0].shape
    stacked, pos, neg = weighted_and_ideals(mats, np.linspace(0.1, 0.9, m),
                                            np.linspace(0.3, 0.7, t))
    for c in stacked:
        assert (neg <= c).all() and (c <= pos).all()
    # every ideal cell is realized by at least one family member
    assert (stacked == pos[None]).any(axis=0).all()
    assert (stacked == neg[None]).any(axis=0).all()


@given(
    unit_matrices,
    st.floats(min_value=0, max_value=10, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_weighting_linear_in_matrix(mats, alpha):
    b = mats[0]
    m, t = b.shape
    lam = np.linspace(0.1, 1.0, m)
    theta = np.linspace(0.1, 1.0, t)
    np.testing.assert_allclose(
        weigh(alpha * b, lam, theta),
        alpha * weigh(b, lam, theta),
        atol=1e-12,
    )


@given(unit_matrices)
@settings(max_examples=40, deadline=None)
def test_weighted_entries_bounded_by_weight_product(mats):
    b = mats[0]
    m, t = b.shape
    lam = np.linspace(0.05, 0.9, m)
    theta = np.linspace(0.05, 0.9, t)
    c = weigh(b, lam, theta)
    bound = lam[:, None] * theta[None, :]
    assert (c >= 0.0).all()
    assert (c <= bound + 1e-15).all()
