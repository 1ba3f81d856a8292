import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from greyrisk import apply_weights, negative_ideal, positive_ideal


class TestApplyWeights:
    def test_identity_weights(self):
        b = np.array([[0.2, 0.8], [0.5, 0.1]])
        np.testing.assert_array_equal(apply_weights(b, [1.0, 1.0], [1.0, 1.0]), b)

    def test_zero_cells_annihilate(self):
        b = np.array([[0.0, 0.8], [0.5, 0.0]])
        c = apply_weights(b, [0.3, 0.7], [0.4, 0.6])
        assert c[0, 0] == 0.0 and c[1, 1] == 0.0

    def test_case_dataset_cell(self):
        # first index of the bundled case's third area at the first period
        c = apply_weights(np.array([[2.0 / 3.0]]), [0.1458], [0.21])
        assert c[0, 0] == pytest.approx(0.020412, rel=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_weights(np.zeros((2, 3)), [0.5, 0.5], [0.5, 0.5])

    def test_weights_broadcast_over_areas(self):
        b = np.stack(FIXTURE)
        c = apply_weights(b, [0.3, 0.7], [0.4, 0.6])
        for bk, ck in zip(b, c):
            np.testing.assert_array_equal(ck, apply_weights(bk, [0.3, 0.7], [0.4, 0.6]))


@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5)),
              elements=st.floats(-1e3, 1e3)))
@settings(max_examples=40, deadline=None)
def test_weighting_in_place_keeps_the_product_order(b):
    n, m, t = b.shape
    lam, theta = np.linspace(0.1, 0.9, m), np.linspace(0.3, 0.7, t)
    expected = (lam[:, None] * b) * theta
    assert apply_weights(b, lam, theta).tobytes() == expected.tobytes()
    work = b.copy()
    assert apply_weights(work, lam, theta, out=work) is work
    assert work.tobytes() == expected.tobytes()


FIXTURE = [
    np.array([[1.0, 2.0], [3.0, 4.0]]),
    np.array([[2.0, 1.0], [4.0, 3.0]]),
    np.array([[0.0, 5.0], [1.0, 2.0]]),
]


class TestIdealMatrices:
    def test_positive_elementwise_max(self):
        np.testing.assert_array_equal(positive_ideal(FIXTURE), [[2.0, 5.0], [4.0, 4.0]])

    def test_negative_elementwise_min(self):
        np.testing.assert_array_equal(negative_ideal(FIXTURE), [[0.0, 1.0], [1.0, 2.0]])

    def test_idempotent_on_identical_matrices(self):
        same = [FIXTURE[0], FIXTURE[0].copy()]
        np.testing.assert_array_equal(positive_ideal(same), FIXTURE[0])
        np.testing.assert_array_equal(negative_ideal(same), FIXTURE[0])

    def test_negative_below_positive(self):
        assert (negative_ideal(FIXTURE) <= positive_ideal(FIXTURE)).all()

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="zero-size"):
            positive_ideal(np.zeros((0, 2, 2)))
        with pytest.raises(ValueError, match="zero-size"):
            negative_ideal(np.zeros((0, 2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            positive_ideal([np.zeros((2, 2)), np.zeros((2, 3))])



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
    pos, neg = positive_ideal(mats), negative_ideal(mats)
    stacked = np.stack(mats)
    for c in mats:
        assert (neg <= c).all() and (c <= pos).all()
    # every ideal cell is realized by at least one family member
    assert (stacked == pos[None]).any(axis=0).all()
    assert (stacked == neg[None]).any(axis=0).all()


@given(
    unit_matrices,
    st.floats(min_value=0, max_value=10, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_apply_weights_linear_in_matrix(mats, alpha):
    b = mats[0]
    m, t = b.shape
    lam = np.linspace(0.1, 1.0, m)
    theta = np.linspace(0.1, 1.0, t)
    np.testing.assert_allclose(
        apply_weights(alpha * b, lam, theta),
        alpha * apply_weights(b, lam, theta),
        atol=1e-12,
    )


@given(unit_matrices)
@settings(max_examples=40, deadline=None)
def test_weighted_entries_bounded_by_weight_product(mats):
    b = mats[0]
    m, t = b.shape
    lam = np.linspace(0.05, 0.9, m)
    theta = np.linspace(0.05, 0.9, t)
    c = apply_weights(b, lam, theta)
    bound = lam[:, None] * theta[None, :]
    assert (c >= 0.0).all()
    assert (c <= bound + 1e-15).all()
