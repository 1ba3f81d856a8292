import dataclasses
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from greyrisk import (
    AssessmentInput,
    IndexDefinition,
    Orientation,
    ValidationError,
    load_input,
    run_assessment,
)
from greyrisk.io import compute_fingerprint
from greyrisk.model import OrientationKind, index_extrema, validate_input

from conftest import (
    input_from_dict,
    input_to_dict,
    input_to_json,
    make_input,
    write_npy_bundle,
)


def test_bundled_case_is_valid(bundled_input):
    assert validate_input(bundled_input) is bundled_input
    assert bundled_input.values.shape == (3, 15, 6)


def test_validate_is_idempotent(bundled_input):
    once = validate_input(bundled_input)
    twice = validate_input(once)
    assert twice is bundled_input


def _errors(build, *args, **kwargs):
    """Violations that building an input with ``build(*args, **kwargs)`` reports."""
    with pytest.raises(ValidationError) as exc:
        build(*args, **kwargs)
    return exc.value.errors


def test_single_period_rejected():
    errs = _errors(make_input, [[[1.0], [2.0]], [[3.0], [4.0]]], time_weights=[1.0])
    assert any("T >= 2" in e for e in errs)


def test_single_index_rejected():
    errs = _errors(make_input, [[[1.0, 2.0]], [[3.0, 4.0]]], index_weights=[1.0])
    assert any("m >= 2" in e for e in errs)


def test_single_area_rejected():
    assert any("n >= 2" in e for e in _errors(make_input, [[[1.0, 2.0], [3.0, 4.0]]]))


def test_index_weight_sum_out_of_tolerance():
    errs = _errors(make_input, [[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]],
                   index_weights=[0.45, 0.45])
    msgs = [e for e in errs if "index weights sum" in e]
    assert msgs and "0.9" in msgs[0] and "outside tolerance" in msgs[0]


def test_time_weight_sum_within_tolerance_accepted():
    # mirrors the bundled dataset, whose index weights sum to 0.9999
    inp = make_input([[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]],
                     time_weights=[0.501, 0.501])
    assert validate_input(inp) is inp


def test_duplicate_index_ids():
    base = make_input([[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]])
    dup = tuple(
        IndexDefinition(id="e1", name=d.name, orientation=d.orientation, weight=d.weight)
        for d in base.indices
    )
    errs = _errors(AssessmentInput, indices=dup, periods=base.periods,
                   time_weights=base.time_weights, area_names=base.area_names,
                   values=base.values)
    assert any("duplicate index id 'e1'" in e for e in errs)


def test_duplicate_area_names():
    errs = _errors(make_input, [[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]],
                   names=["same", "same"])
    assert any("duplicate area name 'same'" in e for e in errs)


def test_duplicate_and_non_string_area_names_are_located_in_order():
    """A failed set check falls back to the located loop, which keeps each message and
    its order: a non-string name is not counted as a duplicate."""
    values = [k * np.eye(2) for k in range(1, 6)]
    assert _errors(make_input, values, names=["a", 7, "a", None, 7]) == [
        "area_names[1] must be a string, got 7",
        "duplicate area name 'a'",
        "area_names[3] must be a string, got None",
        "area_names[4] must be a string, got 7",
    ]


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                -2.2250738585072014e-308, 1e308, -1e308, 1.0, -1.0])


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=3, max_dims=3, max_side=7),
                  elements=st.one_of(_EDGE_FLOATS, st.floats(allow_nan=False))))
def test_index_extrema_equal_each_index_reduced_alone(values):
    """Bit for bit, including which of 0.0 and -0.0 is returned."""
    lows, highs = index_extrema(values)
    assert lows.tobytes() == b"".join(values[:, j, :].min().tobytes()
                                      for j in range(values.shape[1]))
    assert highs.tobytes() == b"".join(values[:, j, :].max().tobytes()
                                       for j in range(values.shape[1]))


def test_index_extrema_keep_the_sign_of_a_zero_in_fixed_cases():
    """Index 0 holds both zeros, and its minimum reduced over areas first would be +0.0;
    index 1 holds only +0.0 and index 2 only -0.0. Each extremum is its index reduced alone."""
    values = np.array([[[0.0, 1.0, 0.0], [0.0, 2.0, 0.0], [-0.0, -1.0, -0.0]],
                       [[-0.0, 1.0, 1.0], [3.0, 0.0, 4.0], [-2.0, -0.0, -0.0]]])
    lows, highs = index_extrema(values)
    for j in range(3):
        assert lows[j].tobytes() == values[:, j, :].min().tobytes(), j
        assert highs[j].tobytes() == values[:, j, :].max().tobytes(), j
    assert lows[1] == 0.0 and not np.signbit(lows[1])
    assert highs[2] == 0.0 and np.signbit(highs[2])


@pytest.mark.parametrize("bad", [7, None, ["t1"]], ids=["int", "None", "list"])
@pytest.mark.parametrize("field", ["area_names", "periods", "id", "name"])
def test_names_must_be_strings(field, bad):
    """A name, id or label of another type is refused with its field and position, not
    coerced and not left to fail later in a duplicate check or a renderer."""
    base = make_input([np.eye(2), 2 * np.eye(2), 3 * np.eye(2)])
    if field in ("id", "name"):
        first = dataclasses.replace(base.indices[0], **{field: bad})
        changes, where = {"indices": (first, *base.indices[1:])}, f"indices[0].{field}"
    else:
        given = getattr(base, field)
        changes, where = {field: (given[0], bad, *given[2:])}, f"{field}[1]"
    assert _errors(dataclasses.replace, base, **changes) == [
        f"{where} must be a string, got {bad!r}"]


def test_non_finite_entry_located():
    errs = _errors(make_input, [[[1.0, np.nan], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]])
    msgs = [e for e in errs if "non-finite" in e]
    assert msgs and "area1" in msgs[0] and "'e1'" in msgs[0] and "'t2'" in msgs[0]


def test_non_finite_entries_in_three_areas_are_located_in_order():
    grid = np.arange(6.0).reshape(2, 3)
    values = np.stack([grid, grid + 1.0, grid + 2.0, grid + 3.0])
    values[1, 1, 2], values[2, 0, 1], values[3, 1, 0] = np.nan, np.inf, -np.inf
    assert _errors(make_input, values) == [
        "area 'area2': non-finite value at index 'e2', period 't3'",
        "area 'area3': non-finite value at index 'e1', period 't2'",
        "area 'area4': non-finite value at index 'e2', period 't1'",
    ]


def test_shape_mismatch_names_area_and_dims():
    # a loader checks each area's grid before it builds the input
    doc = input_to_dict(make_input([[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]]))
    doc["areas"].append({"name": "short", "values": np.zeros((2, 3)).tolist()})
    msgs = [e for e in _errors(input_from_dict, doc) if "short" in e]
    assert msgs and "2x2" in msgs[0] and "2x3" in msgs[0]


def test_values_array_of_wrong_shape_rejected():
    inp = make_input([[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]])
    errs = _errors(dataclasses.replace, inp, values=np.zeros((2, 2, 3)))
    assert any("expected 2x2x2 array, got 2x2x3" in e for e in errs)


def test_weight_out_of_range():
    errs = _errors(make_input, [[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]],
                   index_weights=[1.2, -0.2])
    assert any("'e1'" in e and "outside (0, 1]" in e for e in errs)
    assert any("'e2'" in e and "outside (0, 1]" in e for e in errs)


def test_non_positive_time_weight():
    errs = _errors(make_input, [[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]],
                   time_weights=[1.0, 0.0])
    assert any("time weight" in e and "not positive" in e for e in errs)


def test_overflowing_time_weight_sum_rejected():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would reach stderr
        errs = _errors(make_input, [[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]],
                       time_weights=[1e308, 1e308])
    assert errs == ["time weights sum inf outside tolerance"]


def test_interval_bounds_required():
    errs = _errors(
        make_input, [[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]],
        orientations=[Orientation(OrientationKind.INTERVAL), Orientation("benefit")],
    )
    assert any("interval orientation missing bounds" in e for e in errs)


def test_interval_bounds_ordered():
    errs = _errors(
        make_input, [[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]],
        orientations=[Orientation("interval", 5.0, 2.0), Orientation("benefit")],
    )
    assert any("interval_low" in e for e in errs)


def test_non_interval_must_not_carry_bounds():
    errs = _errors(
        make_input, [[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]],
        orientations=[Orientation(OrientationKind.BENEFIT, 1.0, 2.0),
                      Orientation("benefit")],
    )
    assert any("must carry no interval bounds" in e for e in errs)


def test_invalid_input_rejected_when_built():
    base = make_input([[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]])
    unbounded = dataclasses.replace(base.indices[1],
                                    orientation=Orientation("interval", 0.0, np.inf))
    errs = _errors(AssessmentInput, indices=(base.indices[0], unbounded), periods=base.periods,
                   time_weights=[0.5, 0.0], area_names=("a", "a"),
                   values=[[[1.0, 2.0], [3.0, 4.0]], [[np.inf, 1.0], [2.0, 3.0]]])
    assert any("duplicate area name 'a'" in e for e in errs)
    assert any("time weight 0.0 not positive" in e for e in errs)
    assert any("time weights sum 0.50" in e for e in errs)
    assert any("non-finite value at index 'e1', period 't1'" in e for e in errs)
    assert "index 'e2': interval bounds must be finite" in errs
    assert _errors(dataclasses.replace, base, time_weights=[0.2, 0.3, 0.5]) == [
        "time_weights length 3 does not match 2 periods"]
    for weight in ("0.5", None, [0.5], True):
        index = dataclasses.replace(base.indices[0], weight=weight)
        assert _errors(dataclasses.replace, base, indices=(index, base.indices[1])) == [
            f"index 'e1': weight must be a number, got {weight!r}"]
    named = dataclasses.replace(base.indices[0], orientation="benefit")
    assert _errors(dataclasses.replace, base, indices=(named, base.indices[1])) == [
        "index 'e1': orientation must be an Orientation, got 'benefit'"]
    assert _errors(dataclasses.replace, base, time_weights=["a", "b"]) == [
        "period 't1': time weight must be a number, got 'a'",
        "period 't2': time weight must be a number, got 'b'"]
    assert _errors(dataclasses.replace, base, time_weights=[True, 0.5]) == [
        "period 't1': time weight must be a number, got True"]
    assert _errors(dataclasses.replace, base, time_weights=[0.5, 0.5, "c"]) == [
        "time_weights[2]: time weight must be a number, got 'c'"]
    assert _errors(dataclasses.replace, base, time_weights=None) == [
        "time_weights must be a sequence of numbers, got None"]
    for values, detail in (([[[1.0, 2.0], [3.0, 4.0]], [[0.0, "x"], [2.0, 3.0]]],
                            "could not convert string to float: 'x'"),
                           ([[[1.0, 2.0], [3.0]], [[0.0, 1.0], [2.0, 3.0]]],
                            "inhomogeneous shape")):
        [error] = _errors(dataclasses.replace, base, values=values)
        assert error.startswith("values must be an (n, m, T) array of numbers: ")
        assert detail in error
    assert _errors(dataclasses.replace, base, values=None) == [
        "values: expected 2x2x2 array, got a 0-d array"]


def test_a_real_weight_is_held_as_a_float_and_hashed_as_one():
    """Weights that are real numbers but not floats run, and give the fingerprint of the
    float weights; an int weight is held as a float."""
    base = make_input([[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]])
    exotic = dataclasses.replace(base, indices=tuple(
        dataclasses.replace(d, weight=w) for d, w in zip(base.indices,
                                                         (Fraction(1, 2), np.float32(0.5)))))
    assert [type(d.weight) for d in exotic.indices] == [float, float]
    assert run_assessment(exotic).fingerprint == compute_fingerprint(base)
    assert type(IndexDefinition("e1", "e1", Orientation("benefit"), 1).weight) is float


def test_load_and_run_validate_once(bundled_input, tmp_path, monkeypatch):
    import greyrisk.model as model

    path = tmp_path / "case.json"
    path.write_text(input_to_json(bundled_input))
    calls = []

    def counted(inp):
        calls.append(inp)
        return validate_input(inp)

    monkeypatch.setattr(model, "validate_input", counted)
    run_assessment(load_input(path))
    assert len(calls) == 1


@pytest.mark.parametrize("read_only", [False, True], ids=["writable", "read-only"])
def test_input_does_not_share_the_given_array(bundled_input, read_only):
    raw = np.array(bundled_input.values)
    raw.setflags(write=not read_only)
    inp = dataclasses.replace(bundled_input, values=raw)
    raw.setflags(write=True)
    raw[0, 0, 0] = 99.0
    assert inp.values[0, 0, 0] == bundled_input.values[0, 0, 0]


def test_input_copies_a_read_only_view_of_a_writable_array(bundled_input):
    raw = np.array(bundled_input.values)
    view = raw[:]
    view.setflags(write=False)
    inp = dataclasses.replace(bundled_input, values=view)
    assert not np.shares_memory(inp.values, raw)
    raw[0, 0, 0] = 99.0
    assert inp.values[0, 0, 0] == bundled_input.values[0, 0, 0]


def test_input_copies_a_read_only_view_of_an_owner_the_caller_keeps(bundled_input):
    owner = np.array(bundled_input.values)
    owner.setflags(write=False)
    view = owner[:]  # numpy refuses to make this view writable, but not its owner
    inp = dataclasses.replace(bundled_input, values=view)
    owner.setflags(write=True)
    owner[0, 0, 0] = 99.0
    assert inp.values[0, 0, 0] == bundled_input.values[0, 0, 0]


def test_input_copies_a_read_only_file_map_the_caller_passes(bundled_input, tmp_path):
    write_npy_bundle(tmp_path / "bundle", bundled_input)
    mapped = np.load(tmp_path / "bundle" / "values.npy", mmap_mode="r", allow_pickle=False)
    inp = dataclasses.replace(bundled_input, values=mapped)
    assert not np.shares_memory(inp.values, mapped)  # only load_input hands over the map
    np.testing.assert_array_equal(inp.values, mapped)
    assert input_to_dict(inp) == input_to_dict(bundled_input)


def test_validation_records_the_extrema_before_interval_bounds_widen_them(bundled_input):
    doc = input_to_dict(bundled_input)
    doc["indices"][0]["orientation"] = {"interval": [-1e3, 1e3]}
    inp = input_from_dict(doc)
    lows, highs = inp._extrema
    np.testing.assert_array_equal(lows, inp.values.min(axis=(0, 2)))
    np.testing.assert_array_equal(highs, inp.values.max(axis=(0, 2)))
    assert not (lows.flags.writeable or highs.flags.writeable)


def test_all_violations_reported_together():
    errs = _errors(make_input, [[[1.0, np.inf], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]],
                   index_weights=[0.4, 0.4], time_weights=[0.9, 0.2])
    assert len(errs) >= 3  # weight sum, time sum, non-finite entry


class TestDefaultSchema:
    """The bundled case's index system: 15 benefit indices with their weights."""

    def test_fifteen_benefit_indices(self, bundled_input):
        schema = bundled_input.indices
        assert len(schema) == 15
        assert all(d.orientation.kind is OrientationKind.BENEFIT for d in schema)
        assert len({d.id for d in schema}) == 15

    def test_weights(self, bundled_input):
        schema = bundled_input.indices
        assert schema[0].weight == 0.1458
        assert abs(sum(d.weight for d in schema) - 0.9999) < 1e-12

    def test_eighth_index(self, bundled_input):
        d = bundled_input.indices[7]
        assert d.name == "Precipitation Levels"
        assert d.weight == 0.0650

    def test_embeds_into_valid_input(self, bundled_input):
        rng = np.random.default_rng(42)
        inp = AssessmentInput(
            indices=bundled_input.indices,
            periods=bundled_input.periods,
            time_weights=bundled_input.time_weights,
            area_names=tuple(f"random{k}" for k in range(3)),
            values=rng.uniform(0, 100, (3, 15, 6)),
        )
        assert validate_input(inp) is inp


def test_inputs_are_immutable(bundled_input):
    with pytest.raises(ValueError):
        bundled_input.values[0, 0, 0] = 99.0
    with pytest.raises(ValueError):
        bundled_input.time_weights[0] = 99.0
