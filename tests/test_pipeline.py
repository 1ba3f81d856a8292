
import contextlib
import dataclasses
import sys
import tempfile
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from greyrisk import (
    AssessmentInput,
    DegenerateAssessmentError,
    IndexDefinition,
    Orientation,
    RiskLevel,
    RunConfig,
    ZeroingMode,
    apply_weights,
    cli,
    incidence,
    local_volume,
    pipeline,
    run_assessment,
    standardize_all,
    zeroing_image,
)
from greyrisk import io as gio
from greyrisk.io import render_csv, render_json, render_text
from greyrisk.model import index_extrema
from greyrisk.pipeline import AreaAssessment, load_bundled_case

import oracle
from conftest import make_input, read_matrix, report_to_dict

# frozen full-precision results for the bundled case under the default
# configuration (regression anchors; the case's reference tabulation
# normalizes its incidence degrees differently, see README)
CASE_GAMMA_POS = (0.8184627900, 0.8561393916, 0.9043678977)
CASE_GAMMA_NEG = (0.9043427229, 0.8694091547, 0.8179313515)
CASE_SUPERIORITY = (0.4502746786, 0.4923102839, 0.5500606297)


def by_name(report):
    return {a.name: a for a in report.result.areas}


class TestDemo:
    def test_ranking(self, bundled_input):
        report = run_assessment(bundled_input)
        assert [a.name for a in report.result.areas] == ["area3", "area2", "area1"]
        assert [a.rank for a in report.result.areas] == [1, 2, 3]

    def test_all_levels_medium(self, bundled_input):
        report = run_assessment(bundled_input)
        assert all(a.level is RiskLevel.MEDIUM for a in report.result.areas)

    def test_gamma_and_superiority_regression(self, bundled_input):
        areas = by_name(run_assessment(bundled_input))
        for k, name in enumerate(("area1", "area2", "area3")):
            assert areas[name].gamma_pos == pytest.approx(CASE_GAMMA_POS[k], abs=1e-9)
            assert areas[name].gamma_neg == pytest.approx(CASE_GAMMA_NEG[k], abs=1e-9)
            assert areas[name].superiority == pytest.approx(CASE_SUPERIORITY[k], abs=1e-9)

    def test_runs_quickly(self, bundled_input):
        assert run_assessment(bundled_input).duration_seconds < 1.0

    def test_config_echo_records_renormalization(self, bundled_input):
        echo = run_assessment(bundled_input).result.config_echo
        assert echo["zeroing_mode"] == "first-column"
        assert echo["index_weight_sum"] == pytest.approx(0.9999)
        assert echo["index_weights_renormalized"] is True
        assert echo["time_weight_sum"] == pytest.approx(1.0)


class TestRunAssessment:
    def test_trace_off_by_default(self, bundled_input, tmp_path, monkeypatch):
        assert RunConfig().trace_dir is None
        monkeypatch.chdir(tmp_path)
        run_assessment(bundled_input)
        assert not any(tmp_path.iterdir())

    def test_trace_shapes(self, bundled_input, tmp_path):
        run_assessment(bundled_input, RunConfig(trace_dir=tmp_path))
        for name in ("positive_ideal", "negative_ideal"):
            assert read_matrix(tmp_path / f"{name}.csv").shape == (15, 6)
        for name in ("positive_ideal_volume", "negative_ideal_volume"):
            assert read_matrix(tmp_path / f"{name}.csv").shape == (14, 5)
        for area in ("area1", "area2", "area3"):
            for stage in ("standardized", "weighted"):
                assert read_matrix(tmp_path / f"{area}_{stage}.csv").shape == (15, 6)
            for stage in ("volume_diff_pos", "volume_diff_neg", "coeff_pos", "coeff_neg"):
                assert read_matrix(tmp_path / f"{area}_{stage}.csv").shape == (14, 5)
            for stage in ("coeff_pos", "coeff_neg"):
                coeff = read_matrix(tmp_path / f"{area}_{stage}.csv")
                assert ((coeff >= 0) & (coeff <= 1)).all()

    def test_trace_ideal_dominance(self, bundled_input, tmp_path):
        run_assessment(bundled_input, RunConfig(trace_dir=tmp_path))
        c_pos = read_matrix(tmp_path / "positive_ideal.csv")
        c_neg = read_matrix(tmp_path / "negative_ideal.csv")
        for area in ("area1", "area2", "area3"):
            c = read_matrix(tmp_path / f"{area}_weighted.csv")
            assert (c_neg <= c).all()
            assert (c <= c_pos).all()

    def test_deterministic_apart_from_duration(self, bundled_input):
        d1 = report_to_dict(run_assessment(bundled_input))
        d2 = report_to_dict(run_assessment(bundled_input))
        d1.pop("duration_seconds"), d2.pop("duration_seconds")
        assert d1 == d2

    def test_areas_view_matches_columns(self):
        grid = [[1.0, 4.0], [2.0, 8.0]]
        result = run_assessment(make_input([[[0.0, 9.0], [5.0, 1.0]], grid, grid],
                                           names=["other", "twin1", "twin2"])).result
        assert result.gamma_pos.dtype == result.superiority.dtype == np.float64
        assert result.rank.dtype.kind == result.level.dtype.kind == "i"
        assert result.tied.dtype == bool
        assert np.all(np.diff(result.superiority) <= 0) and result.tied.any()
        columns = zip(result.names, result.gamma_pos, result.gamma_neg, result.superiority,
                      result.rank, result.level, result.tied)
        assert [dataclasses.astuple(a) for a in result.areas] == list(columns)
        assert all(type(a.level) is RiskLevel for a in result.areas)

    def test_no_area_record_on_run_or_report_path(self, bundled_input, monkeypatch):
        def refuse(*args):
            raise AssertionError("per-area object built")

        monkeypatch.setattr(AreaAssessment, "__init__", refuse)
        monkeypatch.setattr(RiskLevel, "label", property(refuse))
        report = run_assessment(bundled_input)
        assert render_text(report, 2) and render_json(report) and render_csv(report)
        with pytest.raises(AssertionError, match="per-area object"):
            report.result.areas

    def test_area_order_invariance(self, bundled_input):
        base = by_name(run_assessment(bundled_input))
        shuffled = AssessmentInput(
            indices=bundled_input.indices,
            periods=bundled_input.periods,
            time_weights=bundled_input.time_weights,
            area_names=bundled_input.area_names[::-1],
            values=bundled_input.values[::-1],
        )
        permuted = by_name(run_assessment(shuffled))
        assert set(base) == set(permuted)
        for name in base:
            for field in ("gamma_pos", "gamma_neg", "superiority", "rank", "level"):
                assert getattr(base[name], field) == getattr(permuted[name], field)

    def test_affine_invariance_on_benefit_dataset(self, bundled_input):
        rng = np.random.default_rng(3)
        alphas = rng.uniform(0.5, 3.0, 15)
        betas = rng.uniform(-20.0, 20.0, 15)
        scaled = AssessmentInput(
            indices=bundled_input.indices,
            periods=bundled_input.periods,
            time_weights=bundled_input.time_weights,
            area_names=bundled_input.area_names,
            values=alphas[:, None] * bundled_input.values + betas[:, None],
        )
        base, moved = by_name(run_assessment(bundled_input)), by_name(run_assessment(scaled))
        for name in base:
            assert moved[name].gamma_pos == pytest.approx(base[name].gamma_pos, abs=1e-9)
            assert moved[name].gamma_neg == pytest.approx(base[name].gamma_neg, abs=1e-9)
            assert moved[name].superiority == pytest.approx(base[name].superiority, abs=1e-9)
            assert moved[name].rank == base[name].rank
            assert moved[name].level is base[name].level

    def test_dominant_area_ranks_first_with_unit_incidence(self):
        rng = np.random.default_rng(11)
        others = [rng.uniform(0.0, 50.0, (4, 3)) for _ in range(3)]
        dominant = np.maximum.reduce(others) + rng.uniform(5.0, 10.0, (4, 3))
        report = run_assessment(
            make_input([dominant] + others, names=["top", "a", "b", "c"])
        )
        top = report.result.areas[0]
        assert top.name == "top" and top.rank == 1
        assert top.gamma_pos == 1.0

    def test_identical_areas_tie(self):
        grid = [[1.0, 4.0], [2.0, 8.0]]
        report = run_assessment(make_input([grid, grid, [[0.0, 9.0], [5.0, 1.0]]],
                                           names=["twin1", "twin2", "other"]))
        areas = by_name(report)
        assert areas["twin1"].superiority == areas["twin2"].superiority
        assert areas["twin1"].rank == areas["twin2"].rank
        assert areas["twin1"].tied and areas["twin2"].tied
        assert not areas["other"].tied

    def test_degenerate_pair_reports_failing_step(self, degenerate_input):
        with pytest.raises(DegenerateAssessmentError, match="superiority step.*area1"):
            run_assessment(degenerate_input)

    def test_invalid_decimals_rejected(self, bundled_input):
        with pytest.raises(ValueError, match="report_decimals"):
            run_assessment(bundled_input, RunConfig(report_decimals=13))

    def test_unknown_output_format_rejected(self, bundled_input):
        with pytest.raises(ValueError, match="output format"):
            run_assessment(bundled_input, RunConfig(output_format="xml"))


class TestZeroingModes:
    def test_first_element_mode_runs(self, bundled_input):
        report = run_assessment(bundled_input,
                                RunConfig(zeroing_mode=ZeroingMode.FIRST_ELEMENT))
        assert [a.name for a in report.result.areas] == ["area3", "area2", "area1"]

    def test_none_mode_changes_case_ranking(self, bundled_input):
        report = run_assessment(bundled_input, RunConfig(zeroing_mode=ZeroingMode.NONE))
        assert [a.name for a in report.result.areas] == ["area3", "area1", "area2"]
        areas = by_name(report)
        assert areas["area3"].superiority == pytest.approx(0.5905310525, abs=1e-9)

    def test_mode_recorded_in_echo(self, bundled_input):
        report = run_assessment(bundled_input, RunConfig(zeroing_mode=ZeroingMode.NONE))
        assert report.result.config_echo["zeroing_mode"] == "none"

    @pytest.mark.parametrize("mode", list(ZeroingMode), ids=lambda m: m.value)
    def test_mode_value_runs_as_the_member(self, bundled_input, mode):
        by_value = run_assessment(bundled_input, RunConfig(zeroing_mode=mode.value)).result
        by_member = run_assessment(bundled_input, RunConfig(zeroing_mode=mode)).result
        assert by_value.names == by_member.names
        assert by_value.config_echo == by_member.config_echo
        for key in RESULT_COLUMNS:
            assert getattr(by_value, key).tobytes() == getattr(by_member, key).tobytes(), key


@pytest.mark.parametrize("kwargs", [
    {"zeroing_mode": "bogus"},
    {"report_decimals": True},
    {"report_decimals": 2.5},
    {"report_decimals": -1},
    {"report_decimals": 13},
    {"output_format": "xml"},
], ids=["zeroing-bogus", "decimals-True", "decimals-2.5", "decimals--1", "decimals-13",
        "format-xml"])
def test_bad_config_raises_when_built(bundled_input, tmp_path, kwargs):
    """A bad config raises ValueError before any run, so no trace file is written."""
    with pytest.raises(ValueError):
        RunConfig(**kwargs)
    trace = tmp_path / "trace"
    with pytest.raises(ValueError):
        run_assessment(bundled_input, RunConfig(trace_dir=trace, **kwargs))
    assert not trace.exists()


def test_fingerprint_tracks_dataset_not_config(bundled_input):
    a = run_assessment(bundled_input)
    b = run_assessment(bundled_input, RunConfig(zeroing_mode=ZeroingMode.NONE))
    assert a.fingerprint == b.fingerprint
    other = run_assessment(load_bundled_case())
    assert other.fingerprint == a.fingerprint


# --- agreement with the per-area oracle ------------------------------------

KINDS = (Orientation.benefit(), Orientation.cost(), Orientation.intermediate())


@st.composite
def assessment_inputs(draw, kinds=KINDS):
    """Valid inputs over ``kinds`` and the interval orientation, with exact duplicate areas."""
    m = draw(st.integers(2, 5))
    T = draw(st.integers(2, 5))
    cell = st.integers(-50, 50).map(float) | st.floats(-50, 50, allow_subnormal=False)
    grid = st.lists(st.lists(cell, min_size=T, max_size=T), min_size=m, max_size=m)
    mats = draw(st.lists(grid, min_size=2, max_size=5))
    for source in draw(st.lists(st.integers(0, len(mats) - 1), max_size=3)):
        mats.append(mats[source])
    orientations = []
    for _ in range(m):
        low = draw(st.integers(-30, 30))
        interval = Orientation.interval(low, low + draw(st.integers(0, 20)))
        orientations.append(draw(st.sampled_from(kinds + (interval,))))
    return make_input(mats, orientations=orientations, names=[f"a{k}" for k in range(len(mats))])


@given(assessment_inputs(), st.sampled_from(list(ZeroingMode)))
@settings(max_examples=150, deadline=None)
def test_matches_per_area_oracle(inp, mode):
    try:
        expected = oracle.assess(inp, mode)
    except DegenerateAssessmentError:
        with pytest.raises(DegenerateAssessmentError):
            run_assessment(inp, RunConfig(zeroing_mode=mode))
        return
    got = run_assessment(inp, RunConfig(zeroing_mode=mode)).result.areas
    assert [a.name for a in got] == [row["name"] for row in expected]
    for a, row in zip(got, expected):
        for key in ("gamma_pos", "gamma_neg", "superiority"):
            assert getattr(a, key) == pytest.approx(row[key], abs=1e-12)
        assert (a.rank, a.tied, a.level) == (row["rank"], row["tied"], row["level"])
    # duplicate areas stay exactly tied
    by_name = {a.name: a for a in got}
    copies = {}
    for name, raw in zip(inp.area_names, inp.values):
        copies.setdefault(raw.tobytes(), []).append(by_name[name])
    for twins in copies.values():
        assert len({(a.gamma_pos, a.gamma_neg, a.superiority, a.rank) for a in twins}) == 1
        assert len(twins) == 1 or all(a.tied for a in twins)


RESULT_COLUMNS = ("gamma_pos", "gamma_neg", "superiority", "rank", "tied", "level")


@given(assessment_inputs(), st.sampled_from(list(ZeroingMode)))
@settings(max_examples=100, deadline=None)
def test_traced_run_gives_the_same_bits(inp, mode):
    """Writing the trace as the run goes leaves every result column as it is."""
    runs = []
    with tempfile.TemporaryDirectory() as trace_dir:
        for config in (RunConfig(zeroing_mode=mode),
                       RunConfig(zeroing_mode=mode, trace_dir=trace_dir)):
            try:
                runs.append(run_assessment(inp, config))
            except DegenerateAssessmentError as exc:
                runs.append(str(exc))
    lean, traced = runs
    if isinstance(lean, str):
        assert lean == traced
        return
    assert lean.result.names == traced.result.names
    for key in RESULT_COLUMNS:
        got, expected = getattr(lean.result, key), getattr(traced.result, key)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), key


def _run_peak_in_inputs(n, m, T, config, kinds=KINDS + (Orientation.interval(0.25, 0.75),)):
    """tracemalloc peak of one run on random (n, m, T) scores of the orientations ``kinds``
    in turn, as a multiple of the input array's size."""
    rng = np.random.default_rng(1)
    inp = make_input(rng.random((n, m, T)), orientations=[kinds[j % len(kinds)] for j in range(m)])
    # a first call may import modules, which tracemalloc would count; the trace imports
    # none, and an untraced call spares writing every file twice
    run_assessment(inp)
    tracemalloc.start()
    try:
        run_assessment(inp, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / inp.values.nbytes


@pytest.mark.parametrize("n, m, T", [(2000, 15, 6), (500, 50, 24)])
def test_untraced_run_peak_is_the_volumes_and_one_block(n, m, T):
    """Beside the input a run holds the (n, m-1, T-1) local volumes and temporaries of
    one block of areas (1.16 and 1.08 inputs); the bound is 1.35 inputs."""
    ratio = _run_peak_in_inputs(n, m, T, RunConfig())
    assert ratio <= 1.35, ratio


@pytest.mark.parametrize("kinds", [(Orientation.benefit(),),
                                   KINDS + (Orientation.interval(0.25, 0.75),)],
                         ids=["benefit", "all-four"])
def test_untraced_run_peak_at_20000_areas_is_under_one_input(kinds):
    """At 15 x 6 the local volumes are 70/90 of the input, and the blocks and the
    intermediate and interval indices' (n, T) temporaries are small beside them."""
    ratio = _run_peak_in_inputs(20000, 15, 6, RunConfig(), kinds)
    assert ratio <= 0.95, ratio


@pytest.mark.parametrize("n, m, T", [(2000, 15, 6), (500, 50, 24)])
def test_traced_run_peak_keeps_no_stage(n, m, T, tmp_path):
    """A traced run writes each stage from a block or one block at a time, so it keeps
    no stage (1.26 and 1.08 inputs); the bound is 1.45 inputs."""
    ratio = _run_peak_in_inputs(n, m, T, RunConfig(trace_dir=tmp_path))
    assert ratio <= 1.45, ratio


@pytest.mark.parametrize("mode", list(ZeroingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("k, m, T", [(364, 15, 6), (27, 50, 24)])
def test_block_pass_allocates_one_flat_temporary(k, m, T, mode):
    """A block pass of all four orientations holds, beyond the block's max and min, only the
    flat (k*m*T - T - 1) temporary of its anti-diagonal terms: no (k, m-1, T-1) temporary
    and no buffer for a strided operand (numpy's are 8192 cells)."""
    kinds = KINDS + (Orientation.interval(0.25, 0.75),)
    inp = make_input(np.random.default_rng(2).random((k, m, T)),
                     orientations=[kinds[j % len(kinds)] for j in range(m)])
    plan = pipeline._run_plan(inp.values, inp.indices, np.full(m, 1 / m), np.full(T, 1 / T),
                              mode, index_extrema(inp.values))
    buffer, out = np.empty((k, m, T)), np.empty((k, m - 1, T - 1))
    pipeline._block_pass(plan, inp.values, buffer, out)
    tracemalloc.start()
    try:
        pipeline._block_pass(plan, inp.values, buffer, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    anti, extrema = (k * m * T - T - 1) * 8, 2 * m * T * 8
    assert peak <= anti + extrema + 2048, (peak, anti, extrema)


# --- the stages against their earlier whole-array forms ---------------------

STAGE_CELLS = [-0.0, 0.0, -1.0, 1.0, 2.5, 4.0]  # also the finite interval bounds below


@st.composite
def stage_inputs(draw):
    """(values, indices, index weights, time weights) with odd and even n (n = 2 among
    them), ties, both zeros and scores on the interval bounds. A row may be constant,
    which degenerates it for every orientation. An interval row's scores may be clipped
    into its bounds, which gives den = 0 when they reach the lower one; the interval
    [-10, 10] holds every score, so its den < 0."""
    n, m, T = draw(st.integers(1, 6)), draw(st.integers(2, 5)), draw(st.integers(2, 4))
    cell = st.sampled_from(STAGE_CELLS) | st.floats(-8.0, 8.0)
    values = draw(arrays(np.float64, (n, m, T), elements=cell, fill=st.nothing()))
    bounds = st.sampled_from(STAGE_CELLS).flatmap(
        lambda low: st.sampled_from([v for v in STAGE_CELLS if v >= low] + [9.0]).map(
            lambda high: (low, high))) | st.just((-10.0, 10.0))
    indices = []
    for j in range(m):
        if draw(st.booleans()):
            values[:, j, :] = draw(cell)
        orientation = draw(st.sampled_from(
            [Orientation.benefit(), Orientation.cost(), Orientation.intermediate(), None]))
        if orientation is None:
            low, high = draw(bounds)
            orientation = Orientation.interval(low, high)
            if draw(st.booleans()):
                values[:, j, :] = np.clip(values[:, j, :], low, high)
        indices.append(IndexDefinition(f"e{j}", f"e{j}", orientation, 1.0))
    weights = st.floats(0.01, 1.0)
    return (values, indices, draw(arrays(np.float64, m, elements=weights)),
            draw(arrays(np.float64, T, elements=weights)))


def _blocked_run(values, indices, lam, theta, mode):
    """The run's (c_pos, c_neg, volumes) and its (d_max, d_min, degrees) toward each ideal,
    from one incidence pass toward both, as ``pipeline._ranked`` makes them."""
    c_pos, c_neg, vol = pipeline._ideals_and_volumes(values, indices, lam, theta, mode,
                                                     gio.TraceWriter(None, None),
                                                     index_extrema(values))
    refs = np.stack([local_volume(zeroing_image(c, mode)) for c in (c_pos, c_neg)])
    return c_pos, c_neg, vol, list(zip(*incidence._degrees(refs, vol)))


@given(stage_inputs(), st.sampled_from(list(ZeroingMode)), st.sampled_from([1, 25, None]))
@settings(max_examples=200, deadline=None)
def test_stages_give_the_bits_of_their_whole_array_forms(case, mode, block_cells):
    """Standardization, weighting in place and the blocked pass that standardizes,
    weights, re-bases and takes the local volumes of each block each give the bits of
    the plainer form they replaced (``oracle``)."""
    values, indices, lam, theta = case
    expected = oracle.standardize_by_row(values, indices)
    x = standardize_all(values, indices)
    assert x.tobytes() == expected.tobytes()
    expected = oracle.weigh_by_broadcast(expected, lam, theta)
    assert apply_weights(x, lam, theta, out=x).tobytes() == expected.tobytes()
    with mock.patch.object(incidence, "BLOCK_CELLS", block_cells or incidence.BLOCK_CELLS):
        _, _, vol, _ = _blocked_run(values, indices, lam, theta, mode)
    assert vol.tobytes() == oracle.rebased_volumes(expected, mode).tobytes()


def _edge_case(n):
    """(values, indices, index weights, time weights) of n areas of 7 x 3 scores, with the
    four orientations on random rows, a constant benefit and a constant intermediate row
    (both degenerate), an interval row wholly inside its bounds, and 0.0 and -0.0 cells
    in the benefit and cost rows, the only rows whose standardized cells can be -0.0."""
    rng = np.random.default_rng(n)
    values = rng.random((n, 7, 3))
    values[:, :2] = rng.choice([-0.0, 0.0, 0.5, 1.0], (n, 2, 3))
    values[:, 4], values[:, 5] = 3.0, -0.0
    kinds = KINDS + (Orientation.interval(0.25, 0.75), Orientation.benefit(),
                     Orientation.intermediate(), Orientation.interval(-1.0, 2.0))
    indices = [IndexDefinition(f"e{j}", f"e{j}", kind, 1.0) for j, kind in enumerate(kinds)]
    return values, indices, np.full(7, 1 / 7), np.full(3, 1 / 3)


@given(stage_inputs(), st.sampled_from(list(ZeroingMode)), st.integers(1, 40))
@example(_edge_case(5), ZeroingMode.NONE, 21)
@example(_edge_case(6), ZeroingMode.FIRST_COLUMN, 1)
@settings(max_examples=200, deadline=None)
def test_blocked_run_gives_the_bits_of_the_whole_array_run(case, mode, block_cells):
    """The ideals, the local volumes, d_max, d_min and the degrees toward both ideals of
    the blocked pass equal those of the sequence on one working array, bit for bit and
    sign of zero included, wherever the blocks end."""
    with mock.patch.object(incidence, "BLOCK_CELLS", block_cells):
        got = _blocked_run(*case, mode)
        c_pos, c_neg, vol, families = oracle.whole_array_run(*case, mode)
    assert [a.tobytes() for a in got[:3]] == [c_pos.tobytes(), c_neg.tobytes(), vol.tobytes()]
    for (d_max, d_min, degrees), expected in zip(got[3], families):
        assert (d_max, d_min, degrees.tobytes()) == (expected[0], expected[1],
                                                     expected[2].tobytes())
        assert np.signbit([d_max, d_min]).tolist() == np.signbit(expected[:2]).tolist()


# --- the fingerprint's worker thread ----------------------------------------

@contextlib.contextmanager
def _fingerprint_on_worker():
    """Every input crosses the size rule, and two CPUs count as usable."""
    with mock.patch.object(pipeline, "FINGERPRINT_THREAD_CELLS", -1), \
            mock.patch.object(pipeline, "_usable_cpus", return_value=2):
        yield


@contextlib.contextmanager
def _hashing_threads():
    """Record whether each fingerprint was hashed on the main thread."""
    on_main, real = [], gio.compute_fingerprint

    def recorded(inp):
        on_main.append(threading.current_thread() is threading.main_thread())
        return real(inp)

    with mock.patch.object(gio, "compute_fingerprint", recorded):
        yield on_main


@pytest.mark.parametrize("mode", list(ZeroingMode), ids=lambda m: m.value)
def test_fingerprint_worker_changes_no_result_fingerprint_or_trace_byte(mode, tmp_path):
    inp = make_input(np.random.default_rng(3).random((7, 4, 3)),
                     orientations=KINDS + (Orientation.interval(0.25, 0.75),))
    runs = []
    with _hashing_threads() as on_main:
        for side, rule in (("calling", contextlib.nullcontext()),
                           ("worker", _fingerprint_on_worker())):
            with rule:
                config = RunConfig(zeroing_mode=mode, trace_dir=tmp_path / side)
                report = run_assessment(inp, config)
            columns = [report.result.names] + [getattr(report.result, key).tobytes()
                                               for key in RESULT_COLUMNS]
            files = {p.name: p.read_bytes() for p in (tmp_path / side).iterdir()}
            runs.append((columns, report.fingerprint, files))
    assert on_main == [True, False]
    assert runs[0] == runs[1]
    assert len(runs[0][2]) == 4 + 6 * 7


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


@pytest.mark.parametrize("error", [OSError, RuntimeError])
def test_fingerprint_error_reaches_the_caller_on_both_sides_of_the_rule(
        error, bundled_input, degenerate_input, capsys):
    """The same exception type from run_assessment and the same CLI exit code (OSError
    exits 2; a RuntimeError leaves main). A hash error comes before a degenerate step's,
    as when the hash runs first."""
    outcomes = []
    for rule in (contextlib.nullcontext(), _fingerprint_on_worker()):
        with rule, mock.patch.object(gio, "compute_fingerprint", side_effect=error("hash")):
            outcomes.append((_outcome(lambda: run_assessment(bundled_input)),
                             _outcome(lambda: run_assessment(degenerate_input)),
                             _outcome(lambda: cli.main(["demo"]))))
    assert outcomes[0] == outcomes[1] == (error, error, 2 if error is OSError else error)
    capsys.readouterr()


def test_worker_thread_is_joined_after_a_run_and_after_a_degenerate_one(
        bundled_input, degenerate_input):
    before = threading.active_count()
    with _fingerprint_on_worker(), _hashing_threads() as on_main:
        run_assessment(bundled_input)
        assert threading.active_count() == before
        with pytest.raises(DegenerateAssessmentError):
            run_assessment(degenerate_input)
        assert threading.active_count() == before
    assert on_main == [False, False]


def test_worker_hash_under_a_short_switch_interval():
    """With threads switched every microsecond the worker still hands over the whole
    hash, and the columns stay as a run that hashes on the calling thread makes them."""
    inp = make_input(np.random.default_rng(5).random((300, 6, 5)))
    expected = run_assessment(inp)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _fingerprint_on_worker():
            reports = [run_assessment(inp) for _ in range(10)]
    finally:
        sys.setswitchinterval(interval)
    for report in reports:
        assert report.fingerprint == expected.fingerprint
        assert report.result.names == expected.result.names
        for key in RESULT_COLUMNS:
            assert getattr(report.result, key).tobytes() == \
                getattr(expected.result, key).tobytes(), key


# --- block boundaries and index order --------------------------------------

def _run_and_trace(inp, mode, trace_dir):
    """Every result column's bytes and every trace file's bytes of one traced run."""
    result = run_assessment(inp, RunConfig(zeroing_mode=mode, trace_dir=trace_dir)).result
    columns = [result.names] + [getattr(result, key).tobytes() for key in RESULT_COLUMNS]
    return columns, {path.name: path.read_bytes() for path in trace_dir.iterdir()}


@pytest.mark.parametrize("mode", list(ZeroingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("n", [2, 7])
def test_block_boundaries_change_no_result_or_trace_byte(n, mode, tmp_path):
    """1 cell puts each area in a block of its own. 25 cells hold two areas' 4 x 3
    matrices and four areas' 3 x 2 volume differences, so 7 areas end in a partial
    block at both stages; of the 7 x 3 edge case they hold one area's matrix and two
    areas' 6 x 2 volumes, and 50 cells two and four. The default holds every area in
    one block."""
    random = make_input(np.random.default_rng(n).random((n, 4, 3)),
                        orientations=KINDS + (Orientation.interval(0.25, 0.75),))
    values, indices, _, _ = _edge_case(n)
    edge = make_input(values, orientations=[d.orientation for d in indices])
    for name, inp in (("random", random), ("edge", edge)):
        runs = []
        for cells in (1, 25, 50, incidence.BLOCK_CELLS):
            with mock.patch.object(incidence, "BLOCK_CELLS", cells):
                runs.append(_run_and_trace(inp, mode, tmp_path / name / str(cells)))
        assert len(runs[0][1]) == 4 + 6 * n
        assert runs[0] == runs[1] == runs[2] == runs[3], name


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("n", [2, 7])
def test_a_run_makes_each_blocks_grey_coefficients_once(n, traced, tmp_path):
    """The trace's coefficient files are written as the incidence pass makes them: a
    run, traced or not, makes the coefficients once per block of areas and ideal. 13
    cells hold two areas' 3 x 2 volume differences, so 7 areas make four blocks."""
    inp = make_input(np.random.default_rng(n).random((n, 4, 3)))
    code, calls = incidence.grey_coefficients.__code__, []

    def count(frame, event, arg):  # every call, under whatever name it is reached
        if event == "call" and frame.f_code is code:
            calls.append(frame)

    with mock.patch.object(incidence, "BLOCK_CELLS", 13):
        sys.setprofile(count)
        try:
            run_assessment(inp, RunConfig(trace_dir=tmp_path if traced else None))
        finally:
            sys.setprofile(None)
    assert len(calls) == 2 * -(-n // 2)


def _with_area_copied(inp, source, at_front):
    """``inp`` with a copy of area ``source`` named 'copy' put first or last."""
    names, values = ("copy",), inp.values[source][None]
    if at_front:
        names, values = names + inp.area_names, np.concatenate([values, inp.values])
    else:
        names, values = inp.area_names + names, np.concatenate([inp.values, values])
    return dataclasses.replace(inp, area_names=names, values=values)


def _gammas_by_name(inp):
    result = run_assessment(inp).result
    return {name: (gp.tobytes(), gn.tobytes())
            for name, gp, gn in zip(result.names, result.gamma_pos, result.gamma_neg)}


def _assert_copy_moves_no_other_gamma(inp, source, at_front):
    base = _gammas_by_name(inp)
    copied = _gammas_by_name(_with_area_copied(inp, source, at_front))
    assert copied.pop("copy") == base[inp.area_names[source]]
    assert copied == base


@given(assessment_inputs(kinds=(Orientation.benefit(), Orientation.cost())), st.data(),
       st.booleans(), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_a_copied_area_moves_no_other_areas_gammas(inp, data, at_front, block_cells):
    """With no intermediate index the ideals, the extrema and d_max, d_min stay where
    they are, so every other area keeps its gamma+- to the bit; a copy put first moves
    every block boundary. (An intermediate index standardizes around the cross-area
    median, which the copy moves.)"""
    source = data.draw(st.integers(0, len(inp.area_names) - 1))
    try:
        run_assessment(inp)
    except DegenerateAssessmentError:
        return
    with mock.patch.object(incidence, "BLOCK_CELLS", block_cells):
        _assert_copy_moves_no_other_gamma(inp, source, at_front)


def test_a_copied_area_moves_no_other_areas_gammas_across_default_blocks():
    """1000 areas of 15 x 6 benefit and cost scores fill three default blocks of local
    volumes and three of volume differences; a copy put first moves each boundary."""
    rng = np.random.default_rng(4)
    kinds = (Orientation.benefit(), Orientation.cost())
    inp = make_input(np.round(rng.uniform(0.0, 100.0, (1000, 15, 6)), 1),
                     orientations=[kinds[j % 2] for j in range(15)])
    _assert_copy_moves_no_other_gamma(inp, 500, at_front=True)


def test_an_index_order_changes_grades_of_the_bundled_case(bundled_input):
    """The local volumes span adjacent index rows, so the order in which a dataset lists
    its indices is part of the result (README, "Index order"). Pinned so that a change
    to this documented behaviour shows."""
    order = [7, 3, 11, 1, 14, 9, 10, 2, 4, 12, 6, 0, 13, 5, 8]
    permuted = dataclasses.replace(
        bundled_input, indices=tuple(bundled_input.indices[j] for j in order),
        values=bundled_input.values[:, order, :])
    result = run_assessment(permuted).result
    assert result.names == ("area3", "area2", "area1")
    assert result.level.tolist() == [RiskLevel.SLIGHTLY_HIGH, RiskLevel.MEDIUM,
                                     RiskLevel.SLIGHTLY_LOW]
    assert result.superiority.tolist() == pytest.approx(
        [0.6071154389, 0.4279326510, 0.3469713974], abs=1e-9)
    assert run_assessment(bundled_input).result.level.tolist() == [RiskLevel.MEDIUM] * 3


@pytest.mark.parametrize("h", [3.0, 5.0, 6.0, 7.0])
def test_constant_difference_family_gives_degrees_in_unit_range(h):
    # every local volume difference of an area is the same here, which is where
    # a degree formed from the mean difference can round outside [0, 1]
    for m in range(2, 40):
        inp = make_input([np.full((m, 2), 10.0), np.tile([0.0, h], (m, 1))],
                         time_weights=[0.5, 0.5])
        for a in run_assessment(inp).result.areas:
            assert 0.0 <= a.gamma_pos <= 1.0 and 0.0 <= a.gamma_neg <= 1.0
