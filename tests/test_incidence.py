import collections
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from greyrisk import ZeroingMode, incidence, local_volume, zeroing_image
from greyrisk.incidence import grey_coefficients

import oracle

Family = collections.namedtuple("Family", "d_max d_min degrees volume_diffs")


def volume_diffs(reference_volume, volumes):
    """The (n, m-1, T-1) array D of every area's absolute local volume differences, as
    the incidence pass records it block by block."""
    ref, vols = np.asarray(reference_volume, dtype=float), np.asarray(volumes, dtype=float)
    diffs = np.empty(vols.shape)

    def record(symbol, family, first, x):
        if symbol == "D":
            diffs[first:first + len(x)] = x

    incidence._degrees(ref[None], vols, record)
    return diffs


def family(reference, factors, mode=ZeroingMode.FIRST_COLUMN):
    """Incidence of each factor matrix against the reference matrix, and its D."""
    ref = local_volume(zeroing_image(reference, mode))
    vols = local_volume(zeroing_image(np.stack(factors), mode))
    (d_max,), (d_min,), (degrees,) = incidence._degrees(ref[None], vols)
    return Family(d_max, d_min, degrees, volume_diffs(ref, vols))


class TestZeroingImage:
    def test_first_column_rebases_each_row(self):
        out = zeroing_image(np.array([[3.0, 5.0, 4.0], [1.0, 2.0, 0.0]]),
                            ZeroingMode.FIRST_COLUMN)
        np.testing.assert_array_equal(out, [[0.0, 2.0, 1.0], [0.0, 1.0, -1.0]])

    def test_first_element_subtracts_scalar(self):
        out = zeroing_image(np.array([[3.0, 5.0], [1.0, 2.0]]),
                            ZeroingMode.FIRST_ELEMENT)
        np.testing.assert_array_equal(out, [[0.0, 2.0], [-2.0, -1.0]])

    def test_constant_matrix_zeroes_out(self):
        const = np.full((3, 4), 7.5)
        for mode in (ZeroingMode.FIRST_COLUMN, ZeroingMode.FIRST_ELEMENT):
            np.testing.assert_array_equal(zeroing_image(const, mode), np.zeros((3, 4)))

    def test_none_is_identity(self):
        c = np.array([[3.0, 5.0], [1.0, 2.0]])
        np.testing.assert_array_equal(zeroing_image(c, ZeroingMode.NONE), c)

    def test_none_returns_a_new_array_with_the_input_bytes(self):
        c = np.array([[-0.0, 5.0], [1.0, -2.5]])
        z = zeroing_image(c, ZeroingMode.NONE)
        assert not np.shares_memory(z, c)
        assert z.tobytes() == c.tobytes()

    def test_stacked_matrices_rebase_independently(self):
        c = np.array([[[3.0, 5.0], [1.0, 2.0]], [[7.0, 1.0], [0.0, 4.0]]])
        for mode in ZeroingMode:
            stacked = zeroing_image(c, mode)
            for ck, zk in zip(c, stacked):
                np.testing.assert_array_equal(zk, zeroing_image(ck, mode))

    def test_accepts_mode_strings(self):
        c = np.array([[3.0, 5.0], [1.0, 2.0]])
        np.testing.assert_array_equal(
            zeroing_image(c, "first-column"),
            zeroing_image(c, ZeroingMode.FIRST_COLUMN),
        )


class TestLocalVolume:
    def test_unit_corner(self):
        np.testing.assert_allclose(local_volume([[0.0, 0.0], [0.0, 1.0]]),
                                   [[1.0 / 6.0]])

    def test_zero_matrix(self):
        np.testing.assert_array_equal(local_volume(np.zeros((3, 4))), np.zeros((2, 3)))

    def test_ramp_cell(self):
        np.testing.assert_allclose(local_volume([[0.0, 1.0], [1.0, 2.0]]), [[1.0]])

    def test_output_shape(self):
        assert local_volume(np.zeros((5, 7))).shape == (4, 6)

    def test_stacked_matches_per_matrix(self):
        z = np.arange(24.0).reshape(2, 3, 4) ** 1.5
        for zk, vk in zip(z, local_volume(z)):
            np.testing.assert_array_equal(vk, local_volume(zk))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="2x2"):
            local_volume(np.zeros((1, 5)))


class TestVolumeDifference:
    """D, the absolute local volume differences from the reference."""

    def test_self_difference_is_zero(self):
        d = np.array([[1.0, -2.0]])
        np.testing.assert_array_equal(volume_diffs(d, d[None]), [[[0.0, 0.0]]])

    def test_absolute_values(self):
        np.testing.assert_array_equal(volume_diffs([[1.0, -2.0]], [[[0.5, 1.0]]]),
                                      [[[0.5, 3.0]]])

    def test_symmetric(self):
        a, b = np.array([[1.0, 2.0]]), np.array([[-3.0, 5.0]])
        np.testing.assert_array_equal(volume_diffs(a, b[None]), volume_diffs(b, a[None]))


class TestIncidenceFamily:
    def test_identical_factor_has_unit_degree(self):
        ref = np.array([[0.0, 1.0], [2.0, 5.0]])
        other = np.array([[1.0, 0.0], [0.0, 3.0]])
        res = family(ref, [ref.copy(), other])
        assert res.degrees[0] == 1.0
        assert res.degrees[1] < 1.0

    def test_all_identical_factors(self):
        ref = np.array([[0.0, 1.0], [2.0, 5.0]])
        res = family(ref, [ref.copy(), ref.copy()])
        assert res.d_max == 0.0
        assert res.degrees.tolist() == [1.0, 1.0]
        for g in grey_coefficients(res.volume_diffs, res.d_max, res.d_min):
            np.testing.assert_array_equal(g, np.ones((1, 1)))

    def test_hand_computed_family(self):
        # the factor's local volumes are [[0, 4], [1, 3]] and the reference's
        # are all zero, so the difference matrix is [[0, 4], [1, 3]]
        ref = np.zeros((3, 3))
        factor = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 24.0], [0.0, 6.0, -42.0]])
        res = family(ref, [factor], mode=ZeroingMode.NONE)
        np.testing.assert_array_equal(res.volume_diffs[0], [[0.0, 4.0], [1.0, 3.0]])
        assert (res.d_max, res.d_min) == (4.0, 0.0)
        coeffs = grey_coefficients(res.volume_diffs, res.d_max, res.d_min)
        np.testing.assert_allclose(coeffs[0], [[1.0, 0.0], [0.75, 0.25]])
        assert res.degrees[0] == pytest.approx(0.5)

    def test_equal_nonzero_differences_degenerate_to_ones(self):
        # both factors sit at the same volume distance from the reference
        ref = np.zeros((2, 2))
        up = np.array([[0.0, 0.0], [0.0, 6.0]])
        down = np.array([[0.0, 0.0], [0.0, -6.0]])
        res = family(ref, [up, down], mode=ZeroingMode.NONE)
        assert res.d_max == res.d_min == 1.0
        assert res.degrees.tolist() == [1.0, 1.0]


# --- property tests -------------------------------------------------------

def family_strategy(min_factors=2, max_factors=4):
    return st.integers(min_value=2, max_value=6).flatmap(
        lambda m: st.integers(min_value=2, max_value=6).flatmap(
            lambda t: st.lists(
                arrays(np.float64, (m, t),
                       elements=st.floats(min_value=-50, max_value=50,
                                          allow_nan=False)),
                min_size=min_factors + 1, max_size=max_factors + 1)
        )
    )


mode_strategy = st.sampled_from(list(ZeroingMode))


@given(family_strategy(), mode_strategy)
@settings(max_examples=60, deadline=None)
def test_coefficients_in_unit_range_with_attained_bounds(mats, mode):
    ref, factors = mats[0], mats[1:]
    res = family(ref, factors, mode)
    assert (res.d_min <= res.volume_diffs).all() and (res.volume_diffs <= res.d_max).all()
    allg = grey_coefficients(res.volume_diffs, res.d_max, res.d_min).ravel()
    assert ((allg >= 0.0) & (allg <= 1.0)).all()
    assert (allg == 1.0).any()
    if res.d_max > res.d_min:
        assert (allg == 0.0).any()
    for gamma in res.degrees:
        assert 0.0 <= gamma <= 1.0


def _well_spread(res):
    # coefficient ratios are only numerically meaningful when the family's
    # difference spread is comfortably above rounding noise
    return res.d_max - res.d_min > 1e-3 * max(res.d_max, 1.0)


@given(family_strategy(), mode_strategy,
       st.floats(min_value=0.01, max_value=100, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_degree_invariant_under_common_positive_scaling(mats, mode, alpha):
    ref, factors = mats[0], mats[1:]
    base = family(ref, factors, mode)
    assume(_well_spread(base))
    scaled = family(alpha * ref, [alpha * f for f in factors], mode)
    np.testing.assert_allclose(scaled.degrees, base.degrees, atol=1e-8)


@given(family_strategy(),
       st.sampled_from([ZeroingMode.FIRST_COLUMN, ZeroingMode.FIRST_ELEMENT]),
       st.floats(min_value=-100, max_value=100, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_degree_invariant_under_common_translation(mats, mode, shift):
    ref, factors = mats[0], mats[1:]
    base = family(ref, factors, mode)
    assume(_well_spread(base))
    moved = family(ref + shift, [f + shift for f in factors], mode)
    np.testing.assert_allclose(moved.degrees, base.degrees, atol=1e-8)


@given(family_strategy(), mode_strategy)
@settings(max_examples=30, deadline=None)
def test_deterministic(mats, mode):
    ref, factors = mats[0], mats[1:]
    first = family(ref, factors, mode)
    second = family(ref, factors, mode)
    np.testing.assert_array_equal(first.degrees, second.degrees)
    assert first.d_max == second.d_max and first.d_min == second.d_min
    np.testing.assert_array_equal(
        grey_coefficients(first.volume_diffs, first.d_max, first.d_min),
        grey_coefficients(second.volume_diffs, second.d_max, second.d_min))


# --- block-wise and in-place kernels against their one-shot forms ----------

def one_shot_volume(z):
    return ((z[..., :-1, :-1] + z[..., 1:, 1:]) / 6.0
            + (z[..., 1:, :-1] + z[..., :-1, 1:]) / 3.0)


stacked_matrices = st.tuples(st.integers(1, 12), st.integers(2, 5), st.integers(2, 5)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(-50, 50)))


@given(stacked_matrices, mode_strategy)
@settings(max_examples=40, deadline=None)
def test_zeroing_in_place_matches_new_array(c, mode):
    expected = {ZeroingMode.FIRST_COLUMN: lambda: c - c[..., :1],
                ZeroingMode.FIRST_ELEMENT: lambda: c - c[..., :1, :1],
                ZeroingMode.NONE: lambda: c}[mode]()
    assert zeroing_image(c, mode).tobytes() == expected.tobytes()
    work = c.copy()
    assert zeroing_image(work, mode, out=work) is work
    assert work.tobytes() == expected.tobytes()


@given(stacked_matrices, st.sampled_from(["spread", "equal"]))
@settings(max_examples=40, deadline=None)
def test_grey_coefficients_in_place_match_new_array(d, kind):
    d = np.abs(d)
    d_max, d_min = (float(d.max()), float(d.min())) if kind == "spread" else (2.5, 2.5)
    expected = grey_coefficients(d, d_max, d_min)
    work = d.copy()
    assert grey_coefficients(work, d_max, d_min, out=work) is work
    assert work.tobytes() == expected.tobytes()


@given(stacked_matrices, st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_blockwise_volume_matches_one_shot(z, block_cells):
    with mock.patch.object(incidence, "BLOCK_CELLS", block_cells):
        got = local_volume(z)
        single = local_volume(z[0])
    assert got.tobytes() == one_shot_volume(z).tobytes()
    assert single.tobytes() == one_shot_volume(z[0]).tobytes()


@given(stacked_matrices, st.integers(1, 40),
       st.sampled_from(["spread", "equal", "zero"]), st.booleans())
@settings(max_examples=80, deadline=None)
def test_blockwise_degrees_match_one_shot_mean(vols, block_cells, kind, swap):
    """Each family of one pass toward two references, first or second in the stack, and
    of one pass toward one, gives the bits of the one-shot form (``oracle``),
    sign of zero included. The second reference is spread apart from the first, so a
    degenerate family ("equal", "zero") sits beside one that is not."""
    ref = vols[0] / 3.0
    if kind == "equal":  # every difference is 2.5: d_max == d_min != 0
        ref = np.zeros_like(ref)
        vols = np.where(vols < 0.0, -2.5, 2.5)
    elif kind == "zero":  # every area matches the reference: d_max == d_min == 0
        vols = np.broadcast_to(ref, vols.shape).copy()
    refs = np.stack([ref, vols[-1] / 3.0 - np.arange(ref.size).reshape(ref.shape)])
    refs = refs[::-1] if swap else refs
    with mock.patch.object(incidence, "BLOCK_CELLS", block_cells):
        d_max, d_min, degrees = incidence._degrees(refs, vols)
        (alone,) = incidence._degrees(ref[None], vols)[2]
        diffs = volume_diffs(ref, vols)
    for family, r in enumerate(refs):
        expected = oracle.one_shot_degrees(r, vols)
        got = d_max[family], d_min[family], degrees[family]
        assert got[:2] == expected[:2] and got[2].tobytes() == expected[2].tobytes()
        assert np.signbit(got[:2]).tolist() == np.signbit(expected[:2]).tolist()
    assert alone.tobytes() == oracle.one_shot_degrees(ref, vols)[2].tobytes()
    assert diffs.tobytes() == np.abs(vols - ref).tobytes()


EDGE_CELLS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e308, -1e308,
              1.0, -2.5]


@st.composite
def volume_stacks(draw):
    """A stack of matrices re-based by one of the three zeroing images, and a copy of it
    laid out C-ordered, Fortran-ordered, as a strided slice or as a transposed view."""
    lead = draw(st.sampled_from([(), (1,), (3,), (2, 3)]))
    m, T = draw(st.sampled_from([(2, 2), (2, 5), (4, 2), (3, 4), (5, 3)]))
    shape = lead + (m, T)
    with np.errstate(over="ignore", invalid="ignore"):
        z = zeroing_image(draw(arrays(np.float64, shape, elements=st.sampled_from(EDGE_CELLS)
                                      | st.floats(-10.0, 10.0))), draw(mode_strategy))
    layout = draw(st.sampled_from(["C", "F", "strided", "transposed"]))
    if layout == "F":
        view = np.asfortranarray(z)
    elif layout == "strided":
        view = np.repeat(z, 2, axis=-1)[..., ::2]
    elif layout == "transposed":
        view = np.ascontiguousarray(np.swapaxes(z, -1, -2)).swapaxes(-1, -2)
    else:
        view = z.copy()
    return z, view


@given(volume_stacks(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_local_volume_gives_the_bits_of_the_strided_form(stack, with_out):
    """The flat-slice volumes equal those of four strided views (``oracle``), bit for bit
    with signed zeros, subnormals, overflow and NaN, whatever the input's layout, and
    leave the input as it was."""
    z, view = stack
    before = view.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        expected = oracle.strided_local_volume(z)
        out = np.full(expected.shape, np.nan) if with_out else None
        got = local_volume(view, out=out)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    assert out is None or got is out
    assert view.tobytes() == before.tobytes()


def test_blockwise_degrees_with_a_partial_last_block():
    rng = np.random.default_rng(7)
    step = incidence.BLOCK_CELLS // (6 * 8)
    vols = rng.normal(size=(2 * step + 3, 6, 8))
    assert incidence._degrees(vols[1][None], vols)[2][0].tobytes() == \
        oracle.one_shot_degrees(vols[1], vols)[2].tobytes()
    assert local_volume(vols).tobytes() == one_shot_volume(vols).tobytes()
    assert local_volume(vols[:0]).shape == (0, 5, 7)


# --- numerical oracle -----------------------------------------------------

def triangulated_cell_volume(z00, z10, z01, z11):
    """Integrate the two linear triangle patches of one cell with dblquad.

    The cell is split along its anti-diagonal: the lower triangle spans the
    corners (0,0), (1,0), (0,1), the upper one (1,0), (0,1), (1,1).
    """
    from scipy.integrate import dblquad

    def lower(v, u):
        return z00 + (z10 - z00) * u + (z01 - z00) * v

    def upper(v, u):
        return z11 + (z10 - z11) * (1.0 - v) + (z01 - z11) * (1.0 - u)

    i1, _ = dblquad(lower, 0.0, 1.0, 0.0, lambda u: 1.0 - u)
    i2, _ = dblquad(upper, 0.0, 1.0, lambda u: 1.0 - u, 1.0)
    return i1 + i2


def volume_by_integration(z):
    m, t = z.shape
    out = np.empty((m - 1, t - 1))
    for i in range(m - 1):
        for j in range(t - 1):
            out[i, j] = triangulated_cell_volume(
                z[i, j], z[i + 1, j], z[i, j + 1], z[i + 1, j + 1]
            )
    return out


@given(st.integers(min_value=2, max_value=6).flatmap(
    lambda m: st.integers(min_value=2, max_value=6).flatmap(
        lambda t: arrays(np.float64, (m, t),
                         elements=st.floats(min_value=-10, max_value=10,
                                            allow_nan=False))
    )
))
@settings(max_examples=25, deadline=None)
def test_local_volume_matches_integration_oracle(z):
    np.testing.assert_allclose(local_volume(z), volume_by_integration(z), atol=1e-9)
