import ast
import copy
import csv
import dataclasses
import functools
import gc
import hashlib
import io
import json
import os
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greyrisk import (
    AssessmentInput,
    IndexDefinition,
    InputFormatError,
    Orientation,
    RunConfig,
    ValidationError,
    ZeroingMode,
    load_input,
    run_assessment,
)
from greyrisk import io as gio
from greyrisk.io import (
    compute_fingerprint,
    emit_report,
    render_csv,
    render_json,
    render_text,
)
from greyrisk.model import OrientationKind
from greyrisk.pipeline import load_bundled_case
from greyrisk.ranking import RiskLevel

from conftest import (
    input_from_dict,
    input_to_dict,
    input_to_json,
    make_input,
    read_matrix,
    report_to_dict,
    standardized,
    write_bundle,
    write_npy_bundle,
)

# the bundled case's reports in each zeroing mode, byte for byte (JSON duration 0.0)
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def case_dict(bundled_input):
    return input_to_dict(bundled_input)


class TestLoadJson:
    def test_bundled_dataset_dimensions(self, bundled_input):
        assert bundled_input.values.shape == (3, 15, 6)

    def test_wrong_width_is_validation_error_naming_area(self, tmp_path, case_dict):
        case_dict["areas"][1]["values"] = [row[:-1] for row in case_dict["areas"][1]["values"]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(case_dict))
        with pytest.raises(ValidationError) as exc:
            load_input(path)
        assert any("area2" in e and "15x6" in e for e in exc.value.errors)

    @pytest.mark.parametrize("fmt", ["json", "csv-bundle"])
    @pytest.mark.parametrize("field, keep, message", [
        ("periods", 0, "T >= 2 required (local volume needs a 2x2 grid), got T=0"),
        ("indices", 1, "m >= 2 required (local volume needs a 2x2 grid), got m=1"),
    ], ids=["no-periods", "one-index"])
    def test_too_few_periods_or_indices_lead_the_errors(self, tmp_path, case_dict, fmt,
                                                        field, keep, message):
        case_dict[field] = case_dict[field][:keep]
        path = tmp_path / "case.json"
        if fmt == "json":
            path.write_text(json.dumps(case_dict))
        else:
            write_bundle(path, case_dict)
        with pytest.raises(ValidationError) as exc:
            load_input(path, fmt)
        assert exc.value.errors == [message]

    def test_wrong_shapes_allocate_no_value_array(self):
        # 400 indices x 400 periods x 50 areas would be a 64 MB value array
        doc = {
            "indices": [{"id": f"i{j}", "name": f"i{j}", "orientation": "benefit",
                         "weight": 1 / 400} for j in range(400)],
            "periods": [{"label": f"p{t}", "weight": 1 / 400} for t in range(400)],
            "areas": [{"name": f"a{k}", "values": [[0.0]]} for k in range(50)],
        }
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError) as exc:
                input_from_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(exc.value.errors) == 50
        assert exc.value.errors[0] == "area 'a0': expected 400x400 value matrix, got 1x1"
        assert peak < 8e6

    @staticmethod
    def _load_peak_in_scores(path, values, write=None):
        """tracemalloc peak of loading ``path`` as a multiple of the score array's size;
        ``write(path, input)`` writes the file, by default as json. The area names sort
        in their order, as a csv bundle's files are stacked."""
        inp = make_input(values, names=[f"area{k:05d}" for k in range(len(values))])
        if write is None:
            path.write_text(json.dumps(input_to_dict(inp)))
        else:
            write(path, inp)
        del inp
        gc.collect()
        tracemalloc.start()
        try:
            inp = load_input(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(inp.values, values)
        return peak / inp.values.nbytes

    def test_load_peak_is_a_few_score_arrays(self, tmp_path):
        # scores with three decimals, as the benchmark writes them: a 1.5 MB file, read
        # one window at a time, each window's grids copied into the one score array and
        # freed: 1.32x, the rest being the names, a window's text and its parsed areas.
        # Held whole, the text and the parsed document came to 2.6x
        values = np.round(np.random.default_rng(3).uniform(0.0, 100.0, (2000, 15, 6)), 3)
        assert self._load_peak_in_scores(tmp_path / "areas.json", values) <= 1.5

    def test_load_peak_of_full_precision_scores(self, tmp_path):
        # 17-digit scores: a 3.6 MB file, whose text was the larger part of a whole-text
        # load (4.0x); read one window at a time, it peaks at 1.28x
        values = np.random.default_rng(3).uniform(0.0, 100.0, (2000, 15, 6))
        assert self._load_peak_in_scores(tmp_path / "areas.json", values) <= 1.5

    def test_csv_bundle_load_peak_is_one_score_array(self, tmp_path):
        # the stacked scores are handed to the input, not copied, and each area file is
        # freed once it is stacked
        values = np.round(np.random.default_rng(3).uniform(0.0, 100.0, (500, 50, 24)), 3)
        write = lambda root, inp: write_bundle(root, input_to_dict(inp))  # noqa: E731
        assert self._load_peak_in_scores(tmp_path / "bundle", values, write) <= 1.2

    def test_npy_bundle_load_peak_holds_no_score_array(self, tmp_path):
        # the scores are a map of the file, which tracemalloc does not trace
        values = np.random.default_rng(3).uniform(0.0, 100.0, (500, 50, 24))
        assert self._load_peak_in_scores(tmp_path / "bundle", values, write_npy_bundle) <= 0.1

    def test_array_grids_read_as_their_lists_and_the_document_is_left_alone(self, case_dict):
        before = copy.deepcopy(case_dict)
        expected = input_from_dict(case_dict)
        assert case_dict == before
        grids = [np.array(area["values"]) for area in case_dict["areas"]]
        for area, grid in zip(case_dict["areas"], grids):
            area["values"] = grid
        assert input_from_dict(case_dict).values.tobytes() == expected.values.tobytes()
        assert all(a["values"] is grid for a, grid in zip(case_dict["areas"], grids))
        assert [grid.tolist() for grid in grids] == [a["values"] for a in before["areas"]]

    def test_unknown_orientation_lists_allowed(self, tmp_path, case_dict):
        case_dict["indices"][0]["orientation"] = "bigger"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(case_dict))
        with pytest.raises(InputFormatError, match="benefit, cost, intermediate, interval"):
            load_input(path)

    def test_bare_interval_string_requires_bounds(self, tmp_path, case_dict):
        case_dict["indices"][0]["orientation"] = "interval"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(case_dict))
        with pytest.raises(InputFormatError, match="bounds"):
            load_input(path)

    def test_interval_orientation_parses(self, case_dict):
        case_dict["indices"][0]["orientation"] = {"interval": [10, 20]}
        inp = input_from_dict(case_dict)
        o = inp.indices[0].orientation
        assert (o.interval_low, o.interval_high) == (10.0, 20.0)

    def test_ragged_values_is_parse_error(self, tmp_path, case_dict):
        case_dict["areas"][0]["values"][2] = case_dict["areas"][0]["values"][2][:-1]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(case_dict))
        with pytest.raises(InputFormatError, match="area1"):
            load_input(path)

    def test_missing_field_located(self, tmp_path, case_dict):
        del case_dict["indices"][3]["weight"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(case_dict))
        with pytest.raises(InputFormatError, match=r"indices\[3\].*weight"):
            load_input(path)

    @pytest.mark.parametrize("edit, locus", [
        (lambda doc: doc["indices"][2].update(weight=None), r"indices\[2\]: weight"),
        (lambda doc: doc["indices"][2].update(weight="heavy"), r"indices\[2\]: weight"),
        (lambda doc: doc["periods"][1].update(weight=[0.5]), r"periods\[1\]: weight"),
        (lambda doc: doc["indices"][0].update(orientation={"interval": [None, 5]}),
         r"indices\[0\]: interval low"),
        (lambda doc: doc["indices"][0].update(orientation={"interval": [1, "x"]}),
         r"indices\[0\]: interval high"),
        (lambda doc: doc["indices"].__setitem__(1, 7), r"indices\[1\]: expected an object"),
        (lambda doc: doc["periods"].__setitem__(0, "t1"), r"periods\[0\]: expected an object"),
        (lambda doc: doc["areas"].__setitem__(2, [[1.0]]), r"areas\[2\]: expected an object"),
        (lambda doc: doc["areas"][1]["values"][4].__setitem__(2, True),
         r"areas\[1\] \('area2'\): values must be numbers, not true/false"),
        (lambda doc: doc["indices"][2].update(weight=True), r"indices\[2\]: weight"),
        (lambda doc: doc["periods"][1].update(weight=False), r"periods\[1\]: weight"),
        (lambda doc: doc["indices"][0].update(orientation={"interval": [0, True]}),
         r"indices\[0\]: interval high"),
        (lambda doc: doc["areas"][0]["values"][0].__setitem__(0, "0.5"),
         r"areas\[0\] \('area1'\): values must be numbers, not true/false or strings"),
        (lambda doc: doc["indices"][0].update(weight="0.1458"),
         r"indices\[0\]: weight must be a number, got '0.1458'"),
        (lambda doc: doc["periods"][1].update(weight="0.2"),
         r"periods\[1\]: weight must be a number, got '0.2'"),
        (lambda doc: doc["indices"][0].update(orientation={"interval": [1]}),
         r"indices\[0\]: interval bounds must be a \[low, high\] pair"),
        (lambda doc: doc["indices"][0].update(orientation={"interval": 5}),
         r"indices\[0\]: interval bounds must be a \[low, high\] pair"),
        (lambda doc: doc["indices"][0].update(orientation=7),
         r"indices\[0\]: orientation must be one of benefit, cost, intermediate, interval or"),
        (lambda doc: doc["indices"][0].update(orientation={"interval": [1, 2], "x": 1}),
         r"indices\[0\]: orientation must be one of benefit, cost, intermediate, interval or"),
        (lambda doc: [1, 2], r"^top level must be an object$"),
        (lambda doc: 3, r"^top level must be an object$"),
    ], ids=["null-weight", "text-weight", "list-period-weight", "null-interval-low",
            "text-interval-high", "number-index", "string-period", "list-area",
            "boolean-cell", "boolean-weight", "boolean-period-weight", "boolean-interval-high",
            "string-cell", "string-weight", "string-period-weight", "short-interval",
            "number-interval", "number-orientation", "extra-interval-key", "list-document",
            "number-document"])
    def test_malformed_entry_located(self, tmp_path, case_dict, edit, locus):
        replaced = edit(case_dict)  # a whole new document, or None after an edit in place
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(case_dict if replaced is None else replaced))
        with pytest.raises(InputFormatError, match=locus):
            load_input(path)

    @pytest.mark.parametrize("field, value, kind", [
        ("indices", 5, "int"), ("periods", "abc", "str"), ("areas", {"a": 1}, "dict"),
    ], ids=["indices", "periods", "areas"])
    def test_top_level_field_must_be_a_list(self, tmp_path, case_dict, field, value, kind):
        case_dict[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(case_dict))
        with pytest.raises(InputFormatError,
                           match=f"input: field '{field}' must be a list, got {kind}$"):
            load_input(path)

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"indices": [,]}')
        with pytest.raises(InputFormatError, match="broken.json:1:"):
            load_input(path)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(InputFormatError, match="unknown input format"):
            load_input(tmp_path / "x.json", "yaml")


# JSON files that fail to parse, and the message after "<path>" that each gives. The
# file is read as bytes and decoded with its line ends translated as text mode does, so
# the line and column numbers are those of text mode.
READ_ERRORS = {
    "empty": (b"", ":1:1: Expecting value"),
    "crlf": (b'{"indices": [],\r\n "periods": [,]}\r\n', ":2:14: Expecting value"),
    "lone-cr": (b'{"indices": [],\r "periods": [,]}\r', ":2:14: Expecting value"),
    "bad-utf8": (b'{"indices": [],\r\n "name": "\xff\xfe"}',
                 ": 'utf-8' codec can't decode byte 0xff in position 27: invalid start byte"),
    "control": (b'{"indices": ["a\x01b"]}', ":1:16: Invalid control character at"),
    "bom": (b'\xef\xbb\xbf{"indices": []}',
            ":1:1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    "deep": (b"[" * 100_000 + b"]" * 100_000, ": JSON arrays or objects nested too deeply"),
}


@pytest.mark.parametrize("data, message", READ_ERRORS.values(), ids=READ_ERRORS)
def test_json_read_errors_keep_their_messages(data, message, tmp_path):
    path = tmp_path / "in.json"
    path.write_bytes(data)
    with pytest.raises(InputFormatError) as exc:
        load_input(path)
    assert str(exc.value) == f"{path}{message}"


@st.composite
def small_inputs(draw):
    """Valid inputs of 2-3 areas, 2-4 indices of any orientation and 2-3 periods.

    Some index names equal their id, which a csv bundle may leave blank.
    """
    n, m, T = draw(st.integers(2, 3)), draw(st.integers(2, 4)), draw(st.integers(2, 3))
    number = st.floats(-1e3, 1e3)
    text = st.text(alphabet='ab ,"', min_size=1, max_size=5).map(str.strip).filter(bool)

    def unit_weights(k):
        w = draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k))
        return [x / sum(w) for x in w]

    indices = []
    for j, w in enumerate(unit_weights(m)):
        kind = draw(st.sampled_from(list(OrientationKind)))
        if kind is OrientationKind.INTERVAL:
            orientation = Orientation("interval", *sorted(draw(st.tuples(number, number))))
        else:
            orientation = Orientation(kind)
        name = draw(st.one_of(st.just(f"e{j}"), text))
        indices.append(IndexDefinition(f"e{j}", name, orientation, w))
    values = draw(st.lists(number, min_size=n * m * T, max_size=n * m * T))
    return AssessmentInput(indices, [draw(text) for _ in range(T)], unit_weights(T),
                           [f"a{k}" for k in range(n)], np.reshape(values, (n, m, T)))


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(inp=small_inputs())
    def test_json_and_csv_bundle_load_equal(self, inp):
        doc = input_to_dict(inp)
        bundle_doc = copy.deepcopy(doc)
        for d in bundle_doc["indices"]:
            if d["name"] == d["id"]:
                d["name"] = ""  # a blank name cell takes the id
        with tempfile.TemporaryDirectory() as tmp:
            path, root = Path(tmp) / "case.json", Path(tmp) / "bundle"
            path.write_text(input_to_json(inp))
            write_bundle(root, bundle_doc)
            for loaded in (load_input(path), load_input(root)):
                assert input_to_dict(loaded) == doc
                assert compute_fingerprint(loaded) == compute_fingerprint(inp)

    @settings(max_examples=40, deadline=None)
    @given(inp=small_inputs())
    def test_json_csv_and_npy_bundles_hash_equal(self, inp):
        # the area names a0, a1, ... sort as listed, so the csv files stack in that order
        with tempfile.TemporaryDirectory() as tmp:
            path, csv_root, npy_root = (Path(tmp) / name for name in ("case.json", "csv", "npy"))
            path.write_text(input_to_json(inp))
            write_bundle(csv_root, input_to_dict(inp))
            write_npy_bundle(npy_root, inp)
            fingerprints = {compute_fingerprint(load_input(p)) for p in (path, csv_root, npy_root)}
        assert fingerprints == {compute_fingerprint(inp)}

    def test_json_round_trip_is_lossless(self, bundled_input, tmp_path):
        path = tmp_path / "case.json"
        path.write_text(input_to_json(bundled_input))
        reloaded = load_input(path)
        assert input_to_dict(reloaded) == input_to_dict(bundled_input)
        assert compute_fingerprint(reloaded) == compute_fingerprint(bundled_input)

    def test_fingerprint_changes_with_data(self, bundled_input, case_dict):
        case_dict["areas"][0]["values"][0][0] += 1.0
        assert compute_fingerprint(input_from_dict(case_dict)) != compute_fingerprint(
            bundled_input
        )


class TestFingerprint:
    def test_bundled_case_value(self, bundled_input):
        assert compute_fingerprint(bundled_input) == (
            "dae8317b5f788e1a7bad1fb3b2ce00bad99a480f40f01f12da4e09975941f0ce"
        )

    def test_json_and_csv_bundle_hash_equal(self, tmp_path, bundled_input, case_dict):
        write_bundle(tmp_path / "bundle", case_dict)
        assert compute_fingerprint(load_input(tmp_path / "bundle")) == compute_fingerprint(
            bundled_input
        )

    def test_hash_depends_only_on_the_inputs_value(self, bundled_input, case_dict, tmp_path):
        def with_bounds(low, high):
            first = dataclasses.replace(bundled_input.indices[0], orientation=Orientation(
                OrientationKind.INTERVAL, low, high))
            return dataclasses.replace(bundled_input, indices=(first, *bundled_input.indices[1:]))

        case_dict["indices"][0]["orientation"] = {"interval": [10, 20]}
        path = tmp_path / "case.json"
        path.write_text(json.dumps(case_dict))
        inputs = (with_bounds(10, 20), with_bounds(10.0, 20.0), load_input(path))
        assert len({compute_fingerprint(inp) for inp in inputs}) == 1

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["areas"][0].update(name="area9"),
        lambda doc: doc["areas"].reverse(),
        lambda doc: doc["indices"][5].update(weight=0.0586),
        lambda doc: doc["periods"][2].update(weight=doc["periods"][2]["weight"] + 0.005),
        lambda doc: doc["indices"][0].update(orientation={"interval": [10, 21]}),
    ], ids=["area-name", "area-order", "index-weight", "time-weight",
            "interval-bound"])
    def test_hash_tracks_every_field(self, case_dict, edit):
        case_dict["indices"][0]["orientation"] = {"interval": [10, 20]}
        edited = copy.deepcopy(case_dict)
        edit(edited)
        assert compute_fingerprint(input_from_dict(edited)) != compute_fingerprint(
            input_from_dict(case_dict)
        )


class TestNpyBundle:
    def test_bundle_loads_identically_to_json(self, tmp_path, bundled_input):
        root = tmp_path / "bundle"
        write_npy_bundle(root, bundled_input)
        loaded = load_input(root)  # a directory holding values.npy
        assert input_to_dict(loaded) == input_to_dict(bundled_input)
        assert compute_fingerprint(loaded) == compute_fingerprint(bundled_input)

    def test_scores_are_held_as_the_read_only_map(self, tmp_path, bundled_input):
        root = tmp_path / "bundle"
        write_npy_bundle(root, bundled_input)
        inp = load_input(root, "npy-bundle")
        assert isinstance(inp.values.base, np.memmap)
        with pytest.raises(ValueError):
            inp.values.setflags(write=True)

    def test_fortran_ordered_scores_load_as_c_ordered_ones(self, tmp_path, bundled_input):
        write_npy_bundle(tmp_path / "c", bundled_input)
        write_npy_bundle(tmp_path / "f", bundled_input, order="F")
        c_order, f_order = (load_input(tmp_path / k) for k in ("c", "f"))
        assert not isinstance(f_order.values.base, np.memmap)  # copied into C order
        assert f_order.values.flags.c_contiguous
        assert report_to_dict(run_assessment(f_order)) == {
            **report_to_dict(run_assessment(c_order)), "duration_seconds": mock.ANY}

    def test_big_endian_scores_load_as_native_ones(self, tmp_path, bundled_input):
        root = tmp_path / "bundle"
        write_npy_bundle(root, bundled_input)
        np.save(root / "values.npy", bundled_input.values.astype(">f8"))
        loaded = load_input(root)
        assert loaded.values.dtype == np.dtype(float)
        assert compute_fingerprint(loaded) == compute_fingerprint(bundled_input)

    def test_without_values_npy_a_directory_is_a_csv_bundle(self, tmp_path, case_dict):
        root = tmp_path / "bundle"
        write_bundle(root, case_dict)
        (root / "meta.json").write_text("{}")
        assert input_to_dict(load_input(root)) == case_dict

    def test_areas_that_disagree_with_the_array_are_named(self, tmp_path, bundled_input):
        root = tmp_path / "bundle"
        write_npy_bundle(root, bundled_input)
        meta = json.loads((root / "meta.json").read_text())
        meta["areas"].append("area4")
        (root / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(InputFormatError) as exc:
            load_input(root)
        assert str(exc.value) == (f"{root / 'values.npy'}: shape (3, 15, 6) does not match "
                                  "meta.json's 4 areas x 15 indices x 6 periods")


class TestCsvBundle:
    def test_bundle_loads_identically_to_json(self, tmp_path, bundled_input, case_dict):
        root = tmp_path / "bundle"
        write_bundle(root, case_dict)
        loaded = load_input(root)  # format inferred from directory
        assert input_to_dict(loaded) == input_to_dict(bundled_input)

    def test_missing_indices_file(self, tmp_path):
        root = tmp_path / "bundle"
        root.mkdir()
        (root / "periods.csv").write_text("label,weight\nt1,0.5\n")
        with pytest.raises(InputFormatError, match="indices.csv"):
            load_input(root, "csv-bundle")

    def test_no_area_files(self, tmp_path, case_dict):
        root = tmp_path / "bundle"
        write_bundle(root, case_dict)
        for area in case_dict["areas"]:
            os.remove(root / f"{area['name']}.csv")
        with pytest.raises(InputFormatError, match="no area files"):
            load_input(root)

    def test_ragged_area_rows(self, tmp_path, case_dict):
        root = tmp_path / "bundle"
        write_bundle(root, case_dict)
        (root / "area1.csv").write_text("1,2,3\n4,5\n")
        with pytest.raises(InputFormatError, match="differing widths"):
            load_input(root)

    @pytest.mark.parametrize("name, text, message", [
        ("indices.csv", "orientation,weight,id,name\nbenefit,0.5\n",
         "indices.csv row 2: missing required field 'id'"),
        ("periods.csv", "weight,label\n0.5\n",
         "periods.csv row 2: missing required field 'label'"),
        ("indices.csv", "id,name,orientation,weight\ne1,,benefit,heavy\n",
         "indices.csv row 2: weight must be a number, got 'heavy'"),
        ("indices.csv", "id,name,orientation,weight\ne1,,benefit,1\ne2,,interval,0.5\n",
         "indices.csv row 3: missing required field 'interval_low'"),
        ("periods.csv", "label,weight\nt1,0.21,9\n", "periods.csv row 2: 3 cells, header has 2"),
        ("indices.csv", "id,name,orientation,weight\ne1,,benefit,0.5,x,y\n",
         "indices.csv row 2: 6 cells, header has 4"),
        ("periods.csv", "label,weight,weight\nt1,0.21,0.21,9\n",
         "periods.csv row 2: 4 cells, header has 3"),
        ("periods.csv", "label,weight\nt1,0.21,\nt2,heavy,\n",
         "periods.csv row 3: weight must be a number, got 'heavy'"),
        ("periods.csv", "label,weight\n\nt1,0.21\nt2,heavy\n",
         "periods.csv row 4: weight must be a number, got 'heavy'"),
    ], ids=["short-index-row", "short-period-row", "text-weight", "interval-without-bounds",
            "long-period-row", "long-index-row", "long-row-repeated-column",
            "blank-cell-beyond-header", "blank-line"])
    def test_malformed_row_located(self, tmp_path, case_dict, name, text, message):
        root = tmp_path / "bundle"
        write_bundle(root, case_dict)
        (root / name).write_text(text)
        with pytest.raises(InputFormatError, match=f"^{message}$"):
            load_input(root)

    def test_blank_cells_beyond_header_are_dropped(self, tmp_path, case_dict):
        root = tmp_path / "bundle"
        write_bundle(root, case_dict)
        expected = compute_fingerprint(load_input(root))
        for name in ("indices.csv", "periods.csv"):
            lines = (root / name).read_text().splitlines()
            (root / name).write_text("".join(f"{line}, \n" for line in lines))
        assert compute_fingerprint(load_input(root)) == expected

    def test_utf8_byte_order_marks_are_ignored(self, tmp_path, case_dict):
        # as Excel's "CSV UTF-8" writes them; a JSON file with one is refused (READ_ERRORS)
        orientations = ["cost", "intermediate", {"interval": [10, 20]}]
        for entry, orientation in zip(case_dict["indices"], orientations):
            entry["orientation"] = orientation
        root = tmp_path / "bundle"
        write_bundle(root, case_dict)
        expected = load_input(root)
        for name in ("indices.csv", "periods.csv", "area1.csv"):
            (root / name).write_bytes(b"\xef\xbb\xbf" + (root / name).read_bytes())
        loaded = load_input(root)
        assert loaded.values.tobytes() == expected.values.tobytes()
        assert compute_fingerprint(loaded) == compute_fingerprint(expected)
        assert input_to_dict(loaded) == case_dict

    def test_bad_number_reports_row(self, tmp_path, case_dict):
        root = tmp_path / "bundle"
        write_bundle(root, case_dict)
        (root / "area1.csv").write_text("1,2\nx,4\n")
        with pytest.raises(InputFormatError, match="area1.csv row 2"):
            load_input(root)

    @pytest.mark.parametrize("text, message", [
        ("1,2,3\n4,5\n", "area1.csv row 2: rows have differing widths, 2 cells where row 1 has 3"),
        ("\n1,2\n\n3,4\n5,6,7\n8\n",
         "area1.csv row 5: rows have differing widths, 3 cells where row 2 has 2"),
    ], ids=["second-row", "blank-lines-counted"])
    def test_ragged_area_row_located(self, tmp_path, case_dict, text, message):
        root = tmp_path / "bundle"
        write_bundle(root, case_dict)
        (root / "area1.csv").write_text(text)
        with pytest.raises(InputFormatError, match=f"^{message}$"):
            load_input(root)

    def test_plain_grids_never_reach_the_cell_reader(self, tmp_path, case_dict, monkeypatch):
        root = tmp_path / "bundle"
        write_bundle(root, case_dict)

        def refuse(path):
            raise AssertionError(f"{path.name} was read cell by cell")

        monkeypatch.setattr(gio, "_csv_grid_cells", refuse)
        assert input_to_dict(load_input(root)) == case_dict

    @pytest.mark.parametrize("text", ["", "\n\n", "\r\n\r\n"],
                             ids=["empty", "blank-lines", "crlf-blank-lines"])
    def test_area_file_without_rows_is_a_shape_error(self, tmp_path, case_dict, text):
        root = tmp_path / "bundle"
        write_bundle(root, case_dict)
        (root / "area1.csv").write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt's "input contained no data" stays inside
            with pytest.raises(ValidationError, match="'area1': expected 15x6 value matrix, got 0"):
                load_input(root)

    @pytest.mark.parametrize("cell, value", [("1_0", 10.0), ("\u0661", 1.0), (" 7 ", 7.0)],
                             ids=["underscore", "arabic-indic-digit", "spaces"])
    def test_cells_float_accepts_still_load(self, tmp_path, case_dict, cell, value):
        root = tmp_path / "bundle"
        write_bundle(root, case_dict)
        rows = (root / "area1.csv").read_text(encoding="utf-8").splitlines()
        rows[0] = ",".join([cell] + rows[0].split(",")[1:])
        (root / "area1.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert load_input(root).values[0, 0, 0] == value


def _read_grid(reader, path):
    """The array an area-file reader returns, or the message of the error it raises."""
    try:
        grid = reader(path)
    except InputFormatError as exc:
        return str(exc)
    return grid.shape, grid.dtype, grid.tobytes()


_CELLS = st.one_of(
    st.sampled_from(["1", "-2.5", "3e-2", "1E+400", ".5", "7.", "1_0", "\u0661", ' "4" ', "\t6 ",
                     "", "-", "e", "\ufeff8", "1\u20282"]),
    st.text("0123456789.eE+-_ \t\"\u0661\ufeff\u2028", max_size=5),
)
_GRIDS = st.builds(
    lambda rows, newline, tail: newline.join(",".join(r) for r in rows) + tail,
    st.lists(st.lists(_CELLS, min_size=1, max_size=4), max_size=4),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.sampled_from(["", "\n", "\n\n", "\r\n \n"]),
)
_AREA_TEXT = st.one_of(
    st.text("0123456789.eE+-_ \t,\"\r\n\u0661\ufeff\u2028", max_size=40), _GRIDS)


@given(_AREA_TEXT)
@settings(max_examples=300, deadline=None)
@example("")
@example("\n\n")
@example("1_0,2\n3,4\n")
@example("\u0661,2\n3,4\n")
@example("1,2\u20283,4\n")
@example("\ufeff1,2\n3,4\n")
@example('"1",2\r\n3, 4 \r\n')
@example("1,2,3\n\n4,5\n")
def test_area_grid_reader_matches_cell_reader(text):
    """np.loadtxt with the cell reader as fallback reads exactly what the cell reader does."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = Path(tmp) / "area1.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _read_grid(gio._csv_grid, path) == _read_grid(gio._csv_grid_cells, path)


# a 2-index, 3-period document without its areas
_JSON_META = {
    "indices": [{"id": f"e{j}", "name": f"e{j}", "orientation": "benefit", "weight": 0.5}
                for j in range(2)],
    "periods": [{"label": f"t{t}", "weight": 1 / 3} for t in range(3)],
}
_NUMBERS = st.one_of(st.floats(), st.integers(-2**70, 2**70))


def _odd(values):
    """One of ``values``, copied: a later edit of a drawn area may write into it."""
    return st.sampled_from(values).map(copy.deepcopy)


_ODD_CELLS = _odd([2**53 + 1, 10**400, -10**400, True, False, "0.5", "1", "x", None,
                   [0.5], [], {}])
_ODD_ROWS = st.one_of(st.lists(_NUMBERS, max_size=4), _odd([None, "x", 0.5, {}]))
_ODD_GRIDS = st.one_of(st.lists(st.lists(_NUMBERS, min_size=3, max_size=3), max_size=3),
                       _odd([None, "x", 0.5, [1.0, 2.0, 3.0], {}]))
_ODD_ENTRIES = _odd([None, "x", [], [[1.0] * 3] * 2, {"name": "x"}, {"values": [[1.0] * 3] * 2}])
_ODD_NAMES = _odd([None, 1, 0.5, True, ["a"], {}])


@st.composite
def _json_area_lists(draw, numbers=_NUMBERS, cells=_ODD_CELLS):
    """0-4 areas of plain 2 x 3 grids of ``numbers``, then 0-3 nodes replaced: a cell
    (drawn from ``cells``), a row, a grid, a whole entry or a name."""
    grid = st.lists(st.lists(numbers, min_size=3, max_size=3), min_size=2, max_size=2)
    areas = [{"name": f"a{k}", "values": draw(grid)} for k in range(draw(st.integers(0, 4)))]
    for _ in range(draw(st.integers(0, 3)) if areas else 0):
        k = draw(st.integers(0, len(areas) - 1))
        kind = draw(st.sampled_from(["cell", "row", "grid", "entry", "name"]))
        try:
            if kind == "cell":
                areas[k]["values"][draw(st.integers(0, 1))][draw(st.integers(0, 2))] = draw(
                    cells)
            elif kind == "row":
                areas[k]["values"][draw(st.integers(0, 1))] = draw(_ODD_ROWS)
            elif kind == "grid":
                areas[k]["values"] = draw(_ODD_GRIDS)
            elif kind == "entry":
                areas[k] = draw(_ODD_ENTRIES)
            else:
                areas[k]["name"] = draw(_ODD_NAMES)
        except (TypeError, KeyError, IndexError):  # an earlier edit removed the node
            pass
    return areas


def _read_document(doc):
    """What input_from_dict reads from ``doc``, or the type and message of its error."""
    try:
        inp = input_from_dict(doc)
    except (InputFormatError, ValidationError) as exc:
        return type(exc), str(exc)
    return inp.area_names, inp.values.shape, inp.values.tobytes()


@given(_json_area_lists())
@settings(max_examples=300, deadline=None)
@example([{"name": "a", "values": [[1, 2**53 + 1, 0.5], [3, 4, 5]]},
          {"name": "b", "values": [[-0.0, 1e308, 2], [7, 8, 9]]}])
@example([{"name": "a", "values": [[1.0, 2.0, 3.0], [4.0, 5.0, 10**400]]},
          {"name": "b", "values": [[1.0, 2.0], [4.0, 5.0, 6.0]]}])
@example([{"name": "a", "values": [[1.0, True, 3.0], [4.0, 5.0, 6.0]]},
          {"name": "b", "values": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]}])
def test_one_pass_json_reader_matches_per_area_reader(areas):
    """Stacking the grids as ``_grid_hook`` leaves them when it checks for bools gives
    exactly what reading the document's list grids area by area gives."""
    text = json.dumps({**_JSON_META, "areas": areas})
    per_area = _read_document(json.loads(text))  # no list grid is stacked in one pass
    hooked = json.loads(text, object_hook=functools.partial(gio._grid_hook, bools=True))
    assert _read_document(hooked) == per_area


# grids that numpy reads as float64 or int64, with cells that json.dumps writes as true,
# false, null, NaN and Infinity, and numbers at the edges of int64 and float64
_FILE_NUMBERS = st.one_of(st.floats(), st.integers(-2**63, 2**63 - 1))
_FILE_CELLS = st.one_of(_ODD_CELLS, st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 2**53 + 1, 2**63, 2**70, 10**400]))


@given(_json_area_lists(_FILE_NUMBERS, _FILE_CELLS),
       st.sampled_from([None, "true", "false"]), st.booleans())
@settings(max_examples=300, deadline=None)
@example([{"name": "a", "values": [[1, 2**63, 0.5], [3, 4, 5]]},
          {"name": "b", "values": [[-0.0, 2**70, 2], [7, 8, float("nan")]]}], None, False)
@example([{"name": "a", "values": [[1.0, True, 3.0], [4.0, 5.0, 6.0]]}], None, False)
@example([{"name": "a", "values": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]},
          {"name": "b", "values": [[1, 2, 3], [4, 5, 6]]}], "false", True)
def test_json_file_reads_as_the_per_area_reader_reads_its_document(areas, word, in_name):
    """A JSON file, its clean grids parsed straight into arrays, and checked for bools
    where the text spells true or false, loads exactly as its parsed document does
    when read area by area."""
    doc = {**_JSON_META, "areas": areas}
    if word and in_name and areas and isinstance(areas[0], dict):
        areas[0]["name"] = f"{word} north"
    elif word:
        doc["description"] = f"no {word} alarms"
    text = json.dumps(doc)
    per_area = _read_document(json.loads(text))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.json"
        path.write_text(text, encoding="utf-8")
        try:
            inp = load_input(path)
        except (InputFormatError, ValidationError) as exc:
            assert (type(exc), str(exc)) == per_area
        else:
            assert (inp.area_names, inp.values.shape, inp.values.tobytes()) == per_area


def test_plain_json_documents_never_reach_the_per_area_reader(monkeypatch, tmp_path):
    def refuse(entries):
        raise AssertionError("the areas were read one at a time")

    rng = np.random.default_rng(5)
    values = rng.uniform(-1e3, 1e3, (50, 15, 6))
    values[:, :, 0] = rng.integers(-1000, 1000, (50, 15))
    generated = input_to_dict(make_input(values))
    for area in generated["areas"]:  # JSON integers, as a writer may leave them
        for row in area["values"]:
            row[0] = int(row[0])
    expected = load_bundled_case()
    monkeypatch.setattr(gio, "_json_areas", refuse)
    assert input_to_dict(load_bundled_case()) == input_to_dict(expected)
    path = tmp_path / "case.json"
    for extra in ({}, {"description": "false alarms excluded"}):  # checked for bools
        path.write_text(json.dumps({**generated, **extra}))
        np.testing.assert_array_equal(load_input(path).values, values)


def test_clean_json_files_of_every_size_are_never_read_whole(monkeypatch, tmp_path):
    def refuse(path):
        raise AssertionError("the whole text was parsed")

    monkeypatch.setattr(gio, "_parse_json", refuse)
    load_bundled_case()
    path = tmp_path / "case.json"
    for n in (2, 40, 300):  # one window, or several
        values = np.random.default_rng(n).uniform(-1e3, 1e3, (n, 15, 6))
        generated = input_to_dict(make_input(values))
        for extra in ({}, {"description": "false alarms excluded"}):  # checked for bools
            path.write_text(json.dumps({**extra, **generated}))
            np.testing.assert_array_equal(load_input(path).values, values)
    generated["areas"][-1]["values"][0][0] = True
    path.write_text(json.dumps(generated))
    with pytest.raises(AssertionError, match="the whole text was parsed"):
        load_input(path)


@pytest.mark.parametrize("after", [{}, {"description": "x"}], ids=["areas-last", "member-after"])
def test_a_file_of_many_windows_converts_each_grid_once(monkeypatch, tmp_path, after):
    """The last window's areas, closed by the areas' own "]", are parsed in one call."""
    converted, grid_hook = [], gio._grid_hook

    def hook(obj, bools=False):
        obj = grid_hook(obj, bools)
        converted.append(isinstance(obj.get("values"), np.ndarray))
        return obj

    monkeypatch.setattr(gio, "_grid_hook", hook)
    values = np.random.default_rng(7).uniform(-1e3, 1e3, (300, 15, 6))
    path = tmp_path / "case.json"
    path.write_text(json.dumps({**input_to_dict(make_input(values)), **after}))
    assert path.stat().st_size > 4 * gio._JSON_WINDOW
    np.testing.assert_array_equal(load_input(path).values, values)
    assert sum(converted) == len(values)


def _file_bytes(members, ensure_ascii=True, indent=None) -> bytes:
    """A JSON object of the (key, value) ``members`` in order, duplicates kept, as UTF-8."""
    dumps = functools.partial(json.dumps, ensure_ascii=ensure_ascii, indent=indent)
    return ("{" + ", ".join(f"{dumps(key)}: {dumps(value)}" for key, value in members)
            + "}").encode()


@st.composite
def _json_files(draw):
    """The bytes of a JSON file of _JSON_META and areas from _json_area_lists, in any
    member order, with extra members, keys and names, a top-level member perhaps
    repeated, and whether it is well formed: without a BOM, trailing data, a truncation
    or an inserted token."""
    areas = draw(_json_area_lists(_FILE_NUMBERS, _FILE_CELLS))
    for k, area in enumerate(areas):
        if isinstance(area, dict) and draw(st.booleans()):
            if "name" in area and draw(st.booleans()):  # UTF-8 bytes that straddle windows
                area["name"] = draw(st.text("aé北\U0001f30d", min_size=1, max_size=4))
            note = draw(_odd([1.5, "true", None, [[1.0]], {"values": [[1, 2, 3]]}]))
            areas[k] = {"note": note, **area} if draw(st.booleans()) else {**area, "note": note}
    extras = draw(st.lists(st.tuples(st.sampled_from(["description", "version", "source"]),
                                     st.one_of(_FILE_NUMBERS, _odd(
                                         ["no false alarms", "é北", [1, 2], {}]))),
                           max_size=2, unique_by=lambda member: member[0]))
    members = draw(st.permutations([*_JSON_META.items(), ("areas", areas), *extras]))
    if draw(st.booleans()):
        members.append(draw(st.sampled_from(members)))
    text = _file_bytes(members, draw(st.booleans()), draw(st.sampled_from([None, 1]))).decode()
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    if draw(st.booleans()):
        text = text.replace('"values"', '"\\u0076alues"')
    data = text.encode()
    flaw = draw(st.sampled_from([None, None, "bom", "trailing", "truncated", "inserted"]))
    if flaw == "bom":
        data = b"\xef\xbb\xbf" + data
    elif flaw == "trailing":
        data += draw(st.sampled_from([b" x", b"{}", b" \r\n ,"]))
    elif flaw == "truncated":
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif flaw == "inserted":
        k = draw(st.integers(0, len(data)))
        data = data[:k] + draw(st.sampled_from([b",", b'"', b" 1", b"]", b"}", b"x"])) + data[k:]
    return data, flaw is None


def _read_file(path, load=load_input):
    """What ``load`` reads from ``path``, or the type and message of its error."""
    try:
        inp = load(path)
    except (InputFormatError, ValidationError) as exc:
        return type(exc), str(exc)
    return (inp.indices, inp.periods, inp.time_weights.tobytes(), inp.area_names,
            inp.values.shape, inp.values.tobytes())


def _whole_text(path):
    """The input of the JSON file at ``path`` read as one text, area by area."""
    return AssessmentInput(*gio._input_fields(gio._parse_json(path)))


def _read_streamed(path):
    """What load_input reads from ``path``, as ``_read_file`` gives it, and how many
    times it parsed the whole text."""
    with mock.patch.object(gio, "_parse_json", wraps=gio._parse_json) as parse:
        return _read_file(path), parse.call_count


_CLEAN_AREAS = [{"name": "a", "values": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]},
                {"name": "b", "values": [[0.5, 25, -0.0], [7.0, 8.0, 9.0]]}]


@given(_json_files(), st.integers(1, 64))
@settings(max_examples=300, deadline=None)
# a number that the text ends inside of, read again once the next window is added
@example((_file_bytes([*_JSON_META.items(), ("version", 1234567.125), ("areas", _CLEAN_AREAS)]),
          True), 1)
# a grid's true in a later window than the first, which spells neither true nor false
@example((_file_bytes([*_JSON_META.items(), ("areas", [
    _CLEAN_AREAS[0], {"name": "b", "values": [[1.0, True, 3.0], [4.0, 5.0, 6.0]]}])]), True), 64)
@example((_file_bytes([*_JSON_META.items(), ("areas", [  # every grid 3 x 2, not 2 x 3
    {"name": name, "values": [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]} for name in "ab"])]), True), 16)
@example((_file_bytes([*_JSON_META.items(), ("areas", [  # every grid 2 x 0
    {"name": name, "values": [[], []]} for name in "ab"])]), True), 8)
@example((_file_bytes([("areas", _CLEAN_AREAS[:1]), *_JSON_META.items(),
                       ("areas", _CLEAN_AREAS)]), True), 3)
@example((_file_bytes([*_JSON_META.items(), ("regions", _CLEAN_AREAS)]), True), 5)
# whitespace after the document that runs on past the window holding its closing brace
@example((_file_bytes([*_JSON_META.items(), ("areas", _CLEAN_AREAS)]) + b" \r\n" * 40, True), 16)
@example((_file_bytes([("areas", []), *_JSON_META.items()]), True), 8)  # an empty batch
@example((_file_bytes([("indices", [{**_JSON_META["indices"][0], "weight": {"values": [[1, 2]]}},
                                    _JSON_META["indices"][1]]),  # its repr is in the message
                       ("periods", _JSON_META["periods"]), ("areas", _CLEAN_AREAS)]), True), 64)
def test_streamed_json_loads_as_the_whole_text(file, window):
    """Read in windows of 1-64 bytes, a JSON file loads exactly as its whole text does,
    or fails with the same error; a well-formed file with no areas, or whose areas are
    clean grids of one shape, is never read whole."""
    data, well_formed = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.json"
        path.write_bytes(data)
        whole = _read_file(path, _whole_text)
        with mock.patch.object(gio, "_JSON_WINDOW", window):
            read, parses = _read_streamed(path)
        assert read == whole
        if well_formed:
            doc = json.loads(data, object_hook=functools.partial(gio._grid_hook, bools=True))
            if "areas" not in doc or gio._clean_grids(doc["areas"]) is not None:
                assert parses == 0


def test_a_value_cut_by_a_window_is_no_flaw(tmp_path):
    """A window that ends inside a number, a literal, an escape, a string or an area's
    nested object never makes the reader decline a clean file, at any window of 1-200
    bytes."""
    note = {"ratio": -1234567.125e-30, "flags": [True, False, None, float("nan"), -float("inf")],
            "text": 'a "quoted" \\ é \U0001f30d ' * 4}
    data = _file_bytes([("description", note["text"]), *_JSON_META.items(), ("version", note),
                        ("areas", [{"note": note, **area} for area in _CLEAN_AREAS])])
    path = tmp_path / "case.json"
    path.write_bytes(data)
    whole = _read_file(path, _whole_text)
    for window in range(1, 201):
        with mock.patch.object(gio, "_JSON_WINDOW", window):
            assert _read_streamed(path) == (whole, 0), window


def _members_read_to_the_end(case: str) -> list:
    """The members of a 60-area JSON document of 15 x 6 grids that the streamed reader
    parses to its end but does not load as it stands."""
    values = np.random.default_rng(4).uniform(-1e3, 1e3, (60, 15, 6))
    doc = input_to_dict(make_input(values))
    header = [("indices", doc["indices"]), ("periods", doc["periods"])]
    if case == "shape":  # a 5-period header
        return [header[0], ("periods", doc["periods"][:5]), ("areas", doc["areas"])]
    if case == "repeated":  # the last "areas" and "source" count
        return [("source", 1), ("areas", doc["areas"][30:]), *doc.items(), ("source", "b")]
    return [*header, ("regions", doc["areas"])]  # no "areas"


@pytest.mark.parametrize("case", ["shape", "repeated", "missing"])
def test_a_json_file_read_to_its_end_is_never_read_whole(monkeypatch, tmp_path, case):
    """A file of clean grids whose header has another shape, one with a repeated
    top-level key, and one without "areas" are decided by the streamed read: each
    loads, or fails, as its whole text does, with no whole-text parse."""
    window = 4096
    data = _file_bytes(_members_read_to_the_end(case))
    assert len(data) >= 20 * window
    path = tmp_path / "case.json"
    path.write_bytes(data)
    whole = _read_file(path, _whole_text)
    monkeypatch.setattr(gio, "_JSON_WINDOW", window)
    assert _read_streamed(path) == (whole, 0)
    if case == "shape":
        assert whole[0] is ValidationError
        assert whole[1].count("expected 15x5 value matrix, got 15x6") == 60
    elif case == "repeated":
        assert whole[3] == tuple(f"area{k + 1}" for k in range(60))
    else:
        assert whole == (InputFormatError, "input: missing required field 'areas'")


# A grid separator with the flaw that replaces it there: "Expecting value" (the C scanner's
# StopIteration), "Expecting ',' delimiter" (a JSONDecodeError), and a string opened just
# before a window's end, which is unterminated in that window and closed in the next.
_REFUSED = {"value": b", , ", "delimiter": b"  ", "unterminated": b', "'}


@pytest.mark.parametrize("kind", _REFUSED)
@pytest.mark.parametrize("at", [0.1, 0.5, 0.9])
def test_a_refused_json_file_is_declined_at_its_flaw(monkeypatch, tmp_path, kind, at):
    """The streamed reader stops within two windows of a flaw, and the whole text, parsed
    once, gives the error."""
    window = 4096
    values = np.random.default_rng(3).uniform(-1e3, 1e3, (60, 15, 6))
    data = json.dumps(input_to_dict(make_input(values))).encode()
    assert len(data) >= 3 * window
    start = int(at * len(data))
    if kind == "unterminated":
        start = (start // window + 1) * window - 40
    flaw = re.compile(rb"\d(, )").search(data, start).start(1)
    data = data[:flaw] + _REFUSED[kind] + data[flaw + 2:]
    if kind == "unterminated":
        assert flaw < start + 40 < data.index(b'"', flaw + 3)
    path = tmp_path / "case.json"
    path.write_bytes(data)
    whole = _read_file(path, _whole_text)
    assert whole[0] is InputFormatError

    reads, parses = [], []
    extend, parse = gio._JsonWindows.extend, gio._parse_json

    def counted_extend(self, pos):
        reads.append(self.read)
        return extend(self, pos)

    def counted_parse(path):
        parses.append(path)
        return parse(path)

    monkeypatch.setattr(gio, "_JSON_WINDOW", window)
    monkeypatch.setattr(gio._JsonWindows, "extend", counted_extend)
    monkeypatch.setattr(gio, "_parse_json", counted_parse)
    assert _read_file(path) == whole
    assert parses == [path]
    assert sum(read > flaw for read in reads) <= 2, reads


class TestEmitReport:
    def test_text_rounding(self, bundled_input, capsys):
        config = RunConfig(report_decimals=2)
        emit_report(run_assessment(bundled_input, config), config)
        out = capsys.readouterr().out
        assert "0.55" in out and "0.49" in out and "0.45" in out
        assert "medium" in out
        assert out.index("area3") < out.index("area2") < out.index("area1")

    def test_json_round_trips_full_precision(self, bundled_input, tmp_path):
        config = RunConfig(output_format="json")
        report = run_assessment(bundled_input, config)
        dest = tmp_path / "report.json"
        emit_report(report, config, dest)
        assert json.loads(dest.read_text()) == report_to_dict(report)

    def test_csv_rows_parse_back(self, bundled_input):
        report = run_assessment(bundled_input)
        rows = list(csv.DictReader(render_csv(report).splitlines()))
        assert len(rows) == 3
        assert rows[0]["name"] == "area3"
        assert float(rows[0]["superiority"]) == report.result.areas[0].superiority
        assert rows[0]["level"] == "medium"

    @settings(max_examples=60, deadline=None)
    @given(names=st.lists(st.text(alphabet=st.sampled_from('ab,"\r\n é'), max_size=6),
                          min_size=3, max_size=3, unique=True))
    @example(names=["a\rb", 'North, "upper"', "c\n"])
    def test_csv_names_and_values_read_back(self, bundled_input, names):
        report = run_assessment(dataclasses.replace(bundled_input, area_names=tuple(names)))
        rows = list(csv.DictReader(io.StringIO(render_csv(report), newline="")))
        expected = report_to_dict(report)["areas"]
        assert [r["name"] for r in rows] == [a["name"] for a in expected]
        for row, area in zip(rows, expected):
            for key in ("gamma_pos", "gamma_neg", "superiority"):
                assert float(row[key]) == area[key]
            assert int(row["rank"]) == area["rank"]
            assert row["level"] == area["level"]
            assert row["tied"] == str(area["tied"]).lower()

    @pytest.mark.parametrize("mode", list(ZeroingMode), ids=lambda m: m.value)
    def test_bundled_reports_match_golden_bytes(self, bundled_input, mode):
        """The bundled case's reports, with the JSON report's duration set to 0.0."""
        report = run_assessment(bundled_input, RunConfig(zeroing_mode=mode))
        report = dataclasses.replace(report, duration_seconds=0.0)
        rendered = {
            f"{mode.value}-d2.txt": render_text(report, 2),
            f"{mode.value}-d12.txt": render_text(report, 12),
            f"{mode.value}.csv": render_csv(report),
            f"{mode.value}.json": render_json(report),
        }
        for name, text in rendered.items():
            assert text.encode("utf-8") == (GOLDEN / name).read_bytes(), name

    # The identity holds because every float in a report is finite, where json.dumps
    # writes float.__repr__: superiority_degree refuses a gamma outside [0, 1].
    @settings(max_examples=100, deadline=None)
    @given(names=st.lists(st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028\u00e9'),
                                            st.characters()), max_size=8),
                          min_size=3, max_size=3, unique=True),
           tie=st.booleans(), duration=st.floats(allow_nan=False, allow_infinity=False))
    @example(names=['"q"', "a\\b", "\u2028\x00\u00e9"], tie=True, duration=0.0)
    def test_json_report_is_json_dumps_of_the_report(self, bundled_input, names, tie, duration):
        values = bundled_input.values.copy()
        if tie:
            values[2] = values[0]
        inp = dataclasses.replace(bundled_input, area_names=tuple(names), values=values)
        report = dataclasses.replace(run_assessment(inp), duration_seconds=duration)
        assert report.result.tied.any() == tie
        assert render_json(report) == json.dumps(report_to_dict(report), indent=2) + "\n"

    def test_every_level_label_is_its_own_json_string_body(self):
        """render_json writes each level label between quotes as it is, as json.dumps would."""
        for level in RiskLevel:
            assert json.dumps(level.label) == f'"{level.label}"'

    def test_unwritable_destination_raises_oserror(self, bundled_input, tmp_path):
        config = RunConfig()
        report = run_assessment(bundled_input, config)
        with pytest.raises(OSError):
            emit_report(report, config, tmp_path / "missing_dir" / "report.txt")

    def test_text_flags_ties(self):
        grid = [[1.0, 4.0], [2.0, 8.0]]
        inp = make_input([grid, grid], names=["twin1", "twin2"])
        report = run_assessment(inp)
        text = render_text(report, 2)
        assert "tied superiority degree" in text


class TestTrace:
    def test_demo_trace_file_count_and_shapes(self, bundled_input, tmp_path):
        run_assessment(bundled_input, RunConfig(trace_dir=tmp_path / "trace"))
        written = list((tmp_path / "trace").iterdir())
        assert len(written) == 22
        full, windowed = 0, 0
        for path in written:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            header, body = rows[0], rows[1:]
            shape = (len(body), len(body[0]) - 1)
            if shape == (15, 6):
                full += 1
                assert header[1:] == [f"t{k}" for k in range(1, 7)]
                assert body[0][0] == "fuel_load"
            else:
                assert shape == (14, 5)
                windowed += 1
                assert header[1:] == [f"t{k}" for k in range(1, 6)]
        assert full == 8 and windowed == 14

    def test_trace_names_cover_shared_and_per_area(self, bundled_input, tmp_path):
        run_assessment(bundled_input, RunConfig(trace_dir=tmp_path / "t"))
        names = {p.name for p in (tmp_path / "t").iterdir()}
        for shared in ("positive_ideal.csv", "negative_ideal.csv",
                       "positive_ideal_volume.csv", "negative_ideal_volume.csv"):
            assert shared in names
        for kind in ("standardized", "weighted", "volume_diff_pos", "volume_diff_neg",
                     "coeff_pos", "coeff_neg"):
            for area in ("area1", "area2", "area3"):
                assert f"{area}_{kind}.csv" in names

    def test_colliding_slugs_get_unused_suffixes(self, bundled_input, tmp_path):
        renamed = dataclasses.replace(bundled_input, area_names=("x", "x_3", "X"))
        run_assessment(renamed, RunConfig(trace_dir=tmp_path))
        assert len(list(tmp_path.glob("*.csv"))) == 22

    def test_trace_values_round_trip(self, bundled_input, tmp_path):
        run_assessment(bundled_input, RunConfig(trace_dir=tmp_path))
        parsed = read_matrix(tmp_path / "area1_standardized.csv")
        np.testing.assert_array_equal(parsed, standardized(bundled_input)[0])

    @pytest.mark.parametrize("mode", list(ZeroingMode), ids=lambda m: m.value)
    def test_bundled_trace_matches_pinned_digests(self, bundled_input, tmp_path, mode):
        """sha256 of each of the bundled case's 22 trace files, pinned per zeroing mode."""
        pinned = json.loads((GOLDEN / "trace-sha256.json").read_text())[mode.value]
        run_assessment(bundled_input, RunConfig(zeroing_mode=mode, trace_dir=tmp_path))
        written = tmp_path.iterdir()
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written} == pinned


_LABEL_TEXT = st.text(alphabet=st.sampled_from('a,"\r\n é'), max_size=5)


@settings(max_examples=40, deadline=None)
@given(ids=st.lists(_LABEL_TEXT, min_size=15, max_size=15, unique=True),
       periods=st.lists(_LABEL_TEXT, min_size=6, max_size=6))
@example(ids=["a,b", '"q"', "a\rb", "a\nb", "a\r\nb", " é", "", "a", ",", '"', "\r", "\n",
              "aa", "a a", 'a"a'], periods=["t,1", 't"2', "t\r3", "t\n4", "", " é"])
def test_trace_labels_are_quoted_as_the_csv_module_quotes(bundled_input, ids, periods):
    """Each trace file's bytes are its parsed rows written again by csv.writer, and its
    labels parse back to the index ids and period labels."""
    inp = dataclasses.replace(
        bundled_input, periods=tuple(periods),
        indices=tuple(dataclasses.replace(d, id=i) for d, i in zip(bundled_input.indices, ids)))
    with tempfile.TemporaryDirectory() as tmp:
        run_assessment(inp, RunConfig(trace_dir=tmp))
        files = list(Path(tmp).iterdir())
        assert len(files) == 22
        for path in files:
            text = path.read_bytes().decode("utf-8")
            rows = list(csv.reader(io.StringIO(text, newline="")))
            rewritten = io.StringIO(newline="")
            csv.writer(rewritten).writerows(rows)
            assert rewritten.getvalue() == text, path.name
            k = len(rows) - 1  # 15 labeled rows, or 14 for a volume stage
            assert [row[0] for row in rows[1:]] == ids[:k]
            assert rows[0] == [""] + periods[:len(rows[0]) - 1]


def test_io_imports_no_numeric_stage():
    """The file-format module writes what the pipeline hands it and computes no stage."""
    source = Path(__file__).parents[1] / "src" / "greyrisk" / "io.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import in io.py is from the greyrisk package
            module = ".".join(filter(None, ["greyrisk" if node.level else "", node.module]))
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    stages = {f"greyrisk.{name}" for name in ("incidence", "normalize", "weighting")}
    assert not {m for m in imported if m in stages or m.rpartition(".")[0] in stages}
