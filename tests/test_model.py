import numpy as np
import pytest

from greyrisk import (
    AreaSeries,
    AssessmentInput,
    IndexDefinition,
    Orientation,
    ValidationError,
    default_wui_schema,
)
from greyrisk.model import OrientationKind, validate_input

from conftest import make_input


def test_bundled_case_is_valid(bundled_input):
    assert validate_input(bundled_input) is bundled_input
    assert bundled_input.num_areas == 3
    assert bundled_input.num_indices == 15
    assert bundled_input.num_periods == 6


def test_validate_is_idempotent(bundled_input):
    once = validate_input(bundled_input)
    twice = validate_input(once)
    assert twice is bundled_input


def _errors(inp):
    with pytest.raises(ValidationError) as exc:
        validate_input(inp)
    return exc.value.errors


def test_single_period_rejected():
    inp = make_input([[[1.0], [2.0]], [[3.0], [4.0]]], time_weights=[1.0])
    assert any("T >= 2" in e for e in _errors(inp))


def test_single_index_rejected():
    inp = make_input([[[1.0, 2.0]], [[3.0, 4.0]]], index_weights=[1.0])
    assert any("m >= 2" in e for e in _errors(inp))


def test_single_area_rejected():
    inp = make_input([[[1.0, 2.0], [3.0, 4.0]]])
    assert any("n >= 2" in e for e in _errors(inp))


def test_index_weight_sum_out_of_tolerance():
    inp = make_input([[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]],
                     index_weights=[0.45, 0.45])
    msgs = [e for e in _errors(inp) if "index weights sum" in e]
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
    inp = AssessmentInput(indices=dup, periods=base.periods,
                          time_weights=base.time_weights, areas=base.areas)
    assert any("duplicate index id 'e1'" in e for e in _errors(inp))


def test_duplicate_area_names():
    inp = make_input([[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]],
                     names=["same", "same"])
    assert any("duplicate area name 'same'" in e for e in _errors(inp))


def test_non_finite_entry_located():
    inp = make_input([[[1.0, np.nan], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]])
    msgs = [e for e in _errors(inp) if "non-finite" in e]
    assert msgs and "area1" in msgs[0] and "'e1'" in msgs[0] and "'t2'" in msgs[0]


def test_shape_mismatch_names_area_and_dims():
    inp = make_input([[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]])
    bad = AssessmentInput(
        indices=inp.indices, periods=inp.periods, time_weights=inp.time_weights,
        areas=(inp.areas[0], AreaSeries("short", np.zeros((2, 3)))),
    )
    msgs = [e for e in _errors(bad) if "short" in e]
    assert msgs and "2x2" in msgs[0] and "2x3" in msgs[0]


def test_weight_out_of_range():
    inp = make_input([[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]],
                     index_weights=[1.2, -0.2])
    errs = _errors(inp)
    assert any("'e1'" in e and "outside (0, 1]" in e for e in errs)
    assert any("'e2'" in e and "outside (0, 1]" in e for e in errs)


def test_non_positive_time_weight():
    inp = make_input([[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]],
                     time_weights=[1.0, 0.0])
    assert any("time weight" in e and "not positive" in e for e in _errors(inp))


def test_interval_bounds_required():
    inp = make_input(
        [[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]],
        orientations=[Orientation(OrientationKind.INTERVAL), Orientation.benefit()],
    )
    assert any("interval orientation missing bounds" in e for e in _errors(inp))


def test_interval_bounds_ordered():
    inp = make_input(
        [[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]],
        orientations=[Orientation.interval(5.0, 2.0), Orientation.benefit()],
    )
    assert any("interval_low" in e for e in _errors(inp))


def test_non_interval_must_not_carry_bounds():
    inp = make_input(
        [[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]],
        orientations=[Orientation(OrientationKind.BENEFIT, 1.0, 2.0),
                      Orientation.benefit()],
    )
    assert any("must carry no interval bounds" in e for e in _errors(inp))


def test_all_violations_reported_together():
    inp = make_input([[[1.0, np.inf], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]]],
                     index_weights=[0.4, 0.4], time_weights=[0.9, 0.2])
    errs = _errors(inp)
    assert len(errs) >= 3  # weight sum, time sum, non-finite entry


class TestDefaultSchema:
    def test_fifteen_benefit_indices(self):
        schema = default_wui_schema()
        assert len(schema) == 15
        assert all(d.orientation.kind is OrientationKind.BENEFIT for d in schema)
        assert len({d.id for d in schema}) == 15

    def test_weights(self):
        schema = default_wui_schema()
        assert schema[0].weight == 0.1458
        assert abs(sum(d.weight for d in schema) - 0.9999) < 1e-12

    def test_eighth_index(self):
        d = default_wui_schema()[7]
        assert d.name == "Precipitation Levels"
        assert d.weight == 0.0650

    def test_embeds_into_valid_input(self, bundled_input):
        rng = np.random.default_rng(42)
        inp = AssessmentInput(
            indices=tuple(default_wui_schema()),
            periods=bundled_input.periods,
            time_weights=bundled_input.time_weights,
            areas=tuple(
                AreaSeries(f"random{k}", rng.uniform(0, 100, (15, 6)))
                for k in range(3)
            ),
        )
        assert validate_input(inp) is inp


def test_inputs_are_immutable(bundled_input):
    with pytest.raises(ValueError):
        bundled_input.areas[0].values[0, 0] = 99.0
    with pytest.raises(ValueError):
        bundled_input.time_weights[0] = 99.0
