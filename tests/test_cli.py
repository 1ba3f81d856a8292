import contextlib
import copy
import csv
import importlib.metadata
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import greyrisk
from greyrisk.cli import main
from greyrisk.pipeline import load_bundled_case

from conftest import (
    DEGENERATE_MATRICES,
    input_to_json,
    make_input,
    write_bundle,
    write_npy_bundle,
)


@pytest.fixture
def case_json(tmp_path):
    path = tmp_path / "case.json"
    path.write_text(input_to_json(load_bundled_case()))
    return path


def test_demo_prints_ranked_table(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert out.index("area3") < out.index("area2") < out.index("area1")
    assert "medium" in out


def test_assess_text_output(case_json, capsys):
    assert main(["assess", "--input", str(case_json)]) == 0
    out = capsys.readouterr().out
    assert "area3" in out and "rank" in out


def test_assess_json_to_file(case_json, tmp_path, capsys):
    dest = tmp_path / "report.json"
    rc = main(["assess", "--input", str(case_json), "--format", "json",
               "--output", str(dest)])
    assert rc == 0
    doc = json.loads(dest.read_text())
    assert [a["name"] for a in doc["areas"]] == ["area3", "area2", "area1"]
    assert doc["config"]["zeroing_mode"] == "first-column"


def test_assess_decimals_flag(case_json, capsys):
    assert main(["assess", "--input", str(case_json), "--decimals", "4"]) == 0
    assert "0.5501" in capsys.readouterr().out


def test_out_of_range_decimals_is_usage_error(case_json, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["assess", "--input", str(case_json), "--decimals", "20"])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["abc", "1.5", ""])
def test_non_integer_decimals_is_usage_error(case_json, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["assess", "--input", str(case_json), "--decimals", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"argument --decimals: must be an integer in [0, 12], got {value!r}\n")
    assert "_decimals" not in err


def test_assess_zeroing_flag_changes_result(case_json, capsys):
    assert main(["assess", "--input", str(case_json), "--zeroing", "none"]) == 0
    out = capsys.readouterr().out
    assert out.index("area3") < out.index("area1") < out.index("area2")


def test_assess_trace_dir(case_json, tmp_path, capsys):
    trace_dir = tmp_path / "trace"
    assert main(["assess", "--input", str(case_json), "--trace-dir", str(trace_dir)]) == 0
    assert len(list(trace_dir.glob("*.csv"))) == 22


def test_demo_trace_dir(tmp_path, capsys):
    trace_dir = tmp_path / "trace"
    assert main(["demo", "--trace-dir", str(trace_dir)]) == 0
    assert len(list(trace_dir.glob("*.csv"))) == 22


def test_demo_enters_every_public_function(capsys):
    """Each function that ``greyrisk.__all__`` names is one a run calls: the demo enters it."""
    assert greyrisk.__all__ == [
        "__version__", "AssessmentInput", "DegenerateAssessmentError", "IndexDefinition",
        "InputFormatError", "Orientation", "RiskLevel", "RunConfig", "ValidationError",
        "ZeroingMode", "classify", "load_input", "local_volume", "rank_areas",
        "run_assessment", "superiority_degree", "zeroing_image",
    ]
    functions = {getattr(greyrisk, name).__code__: name for name in greyrisk.__all__
                 if inspect.isfunction(getattr(greyrisk, name))}
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        assert main(["demo"]) == 0
    finally:
        sys.setprofile(previous)
    assert sorted(functions.values()) == ["classify", "load_input", "local_volume",
                                          "rank_areas", "run_assessment",
                                          "superiority_degree", "zeroing_image"]
    assert [name for code, name in functions.items() if code not in entered] == []


def test_validate_ok(case_json, capsys):
    assert main(["validate", "--input", str(case_json)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "3 areas" in out


def test_validate_reports_all_violations(tmp_path, capsys):
    doc = json.loads(input_to_json(load_bundled_case()))
    doc["indices"][0]["weight"] = 5.0       # out of range and breaks the sum
    doc["areas"][0]["values"][0][0] = 1e309  # serialized as Infinity
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert "validation failed" in err
    assert "weight" in err and "non-finite" in err


def _overflow_values(doc):
    doc["areas"][0]["values"][3][0] = 1e308
    doc["areas"][1]["values"][3][2] = -1e308


def _overflow_bounds(doc):
    doc["indices"][3]["orientation"] = {"interval": [1e308, 1e308]}
    doc["areas"][2]["values"][3][5] = -1e308


@pytest.mark.parametrize("edit", [_overflow_values, _overflow_bounds])
def test_overflowing_index_range_is_validation_failure(tmp_path, capsys, edit):
    doc = json.loads(input_to_json(load_bundled_case()))
    edit(doc)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["assess", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert "index 'agri_fire_spread'" in err and "overflows float64" in err


def _overflowing_time_weights():
    """The bundled case's json document with every period weight 1e308."""
    doc = json.loads(input_to_json(load_bundled_case()))
    for period in doc["periods"]:
        period["weight"] = 1e308
    return doc


def test_overflowing_time_weight_sum_is_validation_failure(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_overflowing_time_weights()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would reach stderr
        assert main(["assess", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert "time weights sum inf outside tolerance" in captured.err
    assert not captured.out


def test_parse_failure_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["assess", "--input", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def _bad_utf8_json(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff" + input_to_json(load_bundled_case()).encode("utf-8"))
    return path


def _bad_utf8_bundle_area(tmp_path):
    doc = json.loads(input_to_json(load_bundled_case()))
    root = tmp_path / "bundle"
    write_bundle(root, doc)
    path = root / "area2.csv"
    path.write_bytes(path.read_bytes().replace(b"\n", b"\xff\n", 1))
    return path


def _oversized_integer(tmp_path):
    doc = json.loads(input_to_json(load_bundled_case()))
    doc["areas"][0]["values"][0][0] = "BIG"
    path = tmp_path / "huge_int.json"
    path.write_text(json.dumps(doc).replace('"BIG"', "9" * 5000))
    return path


@pytest.mark.parametrize("make", [_bad_utf8_json, _bad_utf8_bundle_area, _oversized_integer],
                         ids=["json-not-utf8", "bundle-area-not-utf8", "oversized-integer"])
def test_undecodable_input_names_path_and_exits_2(tmp_path, capsys, make):
    path = make(tmp_path)
    source = path.parent if path.suffix == ".csv" else path
    assert main(["assess", "--input", str(source)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["assess", "validate"])
def test_deeply_nested_json_names_path_and_exits_2(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert main([command, "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: JSON arrays or objects nested too deeply\n"


@pytest.mark.parametrize("field, options", [
    ("areas", ["--format", "text"]),
    ("areas", ["--format", "csv"]),
    ("periods", ["--format", "json", "--trace-dir"]),
], ids=["area-text", "area-csv", "period-trace"])
def test_unencodable_name_exits_2(tmp_path, capsys, field, options):
    doc = json.loads(input_to_json(load_bundled_case()))
    doc[field][1]["name" if field == "areas" else "label"] = "\ud800"
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(doc))
    if options[-1] == "--trace-dir":
        options = options + [str(tmp_path / "trace")]
    assert main(["assess", "--input", str(path), *options]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 'utf-8' codec can't encode character '\\ud800'")
    assert "Traceback" not in err


@pytest.mark.parametrize("field, k, key, value", [
    ("areas", 0, "name", None),
    ("areas", 1, "name", 7),
    ("indices", 0, "id", [0.5]),
    ("periods", 2, "label", 2019),
    ("indices", 3, "name", None),
], ids=["area-name-null", "area-name-number", "index-id-list", "period-label-number",
        "index-name-null"])
def test_non_string_name_id_or_label_exits_2(tmp_path, capsys, field, k, key, value):
    doc = json.loads(input_to_json(load_bundled_case()))
    doc[field][k][key] = value
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    assert main(["assess", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {field}[{k}]: field '{key}' must be a str, "
                            f"got {type(value).__name__}\n")
    assert not captured.out


@pytest.mark.parametrize("name, text", [
    ("indices.csv", "orientation,weight,id,name\nbenefit,0.5\n"),
    ("periods.csv", "weight,label\n0.5\n"),
], ids=["index-row", "period-row"])
def test_short_bundle_row_exits_2(tmp_path, name, text):
    root = tmp_path / "bundle"
    write_bundle(root, json.loads(input_to_json(load_bundled_case())))
    (root / name).write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "greyrisk.cli", "assess", "--input", str(root)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {name} row 2: missing required field")
    assert "Traceback" not in proc.stderr


def test_long_bundle_row_exits_2(tmp_path):
    root = tmp_path / "bundle"
    write_bundle(root, json.loads(input_to_json(load_bundled_case())))
    (root / "periods.csv").write_text("label,weight\nt1,0.21,9\n")
    proc = subprocess.run(
        [sys.executable, "-m", "greyrisk.cli", "validate", "--input", str(root)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: periods.csv row 2: 3 cells, header has 2\n"


@pytest.mark.parametrize("bundle", [False, True], ids=["json", "csv-bundle"])
def test_empty_periods_exit_1_naming_t(tmp_path, capsys, bundle):
    doc = json.loads(input_to_json(load_bundled_case()))
    doc["periods"] = []
    path = tmp_path / "case.json"
    if bundle:
        write_bundle(path, doc)
    else:
        path.write_text(json.dumps(doc))
    assert main(["assess", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation failed:\n  - T >= 2 required")
    assert "value matrix" not in err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["assess", "--input", str(tmp_path / "absent.json")]) == 2


def test_degenerate_computation_exits_3(tmp_path, capsys):
    path = tmp_path / "degenerate.json"
    path.write_text(input_to_json(make_input(DEGENERATE_MATRICES)))
    assert main(["assess", "--input", str(path)]) == 3
    err = capsys.readouterr().err
    assert "degenerate computation" in err and "area1" in err


def test_degenerate_computation_leaves_its_trace(tmp_path, capsys):
    path = tmp_path / "degenerate.json"
    path.write_text(input_to_json(make_input(DEGENERATE_MATRICES)))
    assert main(["assess", "--input", str(path)]) == 3
    untraced = capsys.readouterr()
    trace_dir = tmp_path / "trace"
    assert main(["assess", "--input", str(path), "--trace-dir", str(trace_dir)]) == 3
    assert capsys.readouterr() == untraced
    assert len(list(trace_dir.glob("*.csv"))) == 4 + 6 * len(DEGENERATE_MATRICES)


def test_csv_bundle_input(case_json, tmp_path, capsys):
    import csv

    doc = json.loads(case_json.read_text())
    root = tmp_path / "bundle"
    root.mkdir()
    with open(root / "indices.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "name", "orientation", "weight"])
        for d in doc["indices"]:
            w.writerow([d["id"], d["name"], d["orientation"], d["weight"]])
    with open(root / "periods.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["label", "weight"])
        for p in doc["periods"]:
            w.writerow([p["label"], p["weight"]])
    for area in doc["areas"]:
        with open(root / f"{area['name']}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerows(area["values"])
    assert main(["assess", "--input", str(root)]) == 0
    out = capsys.readouterr().out
    assert out.index("area3") < out.index("area1")


def test_npy_bundle_input_prints_the_golden_report(tmp_path, capsys):
    write_npy_bundle(tmp_path / "bundle", load_bundled_case())
    assert main(["assess", "--input", str(tmp_path / "bundle")]) == 0
    golden = Path(__file__).parent / "golden" / "first-column-d2.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_assess_frees_its_input_before_rendering(case_json, monkeypatch, capsys):
    import greyrisk.io as gio

    loaded = []

    def load(*args):
        inp = load_input(*args)
        loaded.append(weakref.ref(inp))
        return inp

    def emit(*args):
        assert loaded[0]() is None, "the input is alive while the report renders"
        emit_report(*args)

    load_input, emit_report = gio.load_input, gio.emit_report
    monkeypatch.setattr(gio, "load_input", load)
    monkeypatch.setattr(gio, "emit_report", emit)
    assert main(["assess", "--input", str(case_json)]) == 0
    assert "area3" in capsys.readouterr().out


def test_assess_takes_each_index_extrema_once(case_json, monkeypatch, capsys):
    import greyrisk.model as model

    calls = []

    def counted(values):
        calls.append(values.shape)
        return model_index_extrema(values)

    model_index_extrema = model.index_extrema
    monkeypatch.setattr(model, "index_extrema", counted)
    assert main(["assess", "--input", str(case_json)]) == 0
    assert calls == [(3, 15, 6)]


_CASE_VALUES = load_bundled_case().values


def _save(name, array, **kwargs):
    return lambda root: np.save(root / name, array, **kwargs)


def _edit_meta(edit):
    def write(root):
        meta = json.loads((root / "meta.json").read_text(encoding="utf-8"))
        edit(meta)
        (root / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    return write


def _save_npz(root):
    with open(root / "values.npy", "wb") as fh:
        np.savez(fh, _CASE_VALUES)


_NPY_BUNDLE_EDITS = {
    "truncated": ("values.npy", lambda root: (root / "values.npy").write_bytes(
        (root / "values.npy").read_bytes()[:-100])),
    "truncated-header": ("values.npy", lambda root: (root / "values.npy").write_bytes(
        (root / "values.npy").read_bytes()[:40])),
    "int": ("values.npy", _save("values.npy", _CASE_VALUES.astype(np.int64))),
    "bool": ("values.npy", _save("values.npy", _CASE_VALUES > 50.0)),
    "float32": ("values.npy", _save("values.npy", _CASE_VALUES.astype(np.float32))),
    "ndim": ("values.npy", _save("values.npy", _CASE_VALUES.reshape(3, 90))),
    "shape": ("values.npy", _save("values.npy", _CASE_VALUES[:, :, :5])),
    "pickled": ("values.npy", _save("values.npy", np.array([{"a": 1}, None]),
                                    allow_pickle=True)),
    "names": ("meta.json", _edit_meta(lambda meta: meta["areas"].pop())),
    "indices": ("meta.json", _edit_meta(lambda meta: meta["indices"].pop())),
    "periods": ("meta.json", _edit_meta(lambda meta: meta["periods"].pop())),
    "npz": ("values.npy", _save_npz),
    "no-meta": ("meta.json", lambda root: os.remove(root / "meta.json")),
    "no-values": ("values.npy", lambda root: os.remove(root / "values.npy")),
    "non-utf8-meta": ("meta.json", lambda root: (root / "meta.json").write_bytes(
        (root / "meta.json").read_bytes() + b"\xff")),
}


@pytest.mark.parametrize("report_format", ["text", "csv"])
@pytest.mark.parametrize("name, edit", _NPY_BUNDLE_EDITS.values(), ids=_NPY_BUNDLE_EDITS)
def test_broken_npy_bundles_keep_the_error_contract(tmp_path, capsys, name, edit,
                                                    report_format):
    """A broken npy bundle exits 0-3 naming the broken file, with no traceback or NaN."""
    root = tmp_path / "bundle"
    write_npy_bundle(root, load_bundled_case())
    edit(root)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would have reached stderr
        code = main(["assess", "--input", str(root), "--input-format", "npy-bundle",
                     "--format", report_format])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), err
    assert name in err
    assert "Traceback" not in err
    assert "nan" not in out.lower()
    assert (code == 0) == bool(out) == (not err)


@given(st.integers(0, 5000))
@settings(max_examples=40, deadline=None)
def test_npy_bundle_cut_anywhere_keeps_the_error_contract(length):
    """values.npy cut to any length exits 2 naming the file, with no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        root = Path(tmp) / "bundle"
        write_npy_bundle(root, load_bundled_case())
        data = (root / "values.npy").read_bytes()
        (root / "values.npy").write_bytes(data[:length % len(data)])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["assess", "--input", str(root)])
    assert code == 2, err.getvalue()
    assert "values.npy" in err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert not out.getvalue()


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "greyrisk.cli", "demo"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "area3" in proc.stdout


def test_console_script_entry_point_prints_the_demo(monkeypatch, capsys):
    """The [project.scripts] entry that an install makes the `greyrisk` command, resolved
    as an installer resolves it and run as `greyrisk demo`."""
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    repo = Path(__file__).parents[1]
    with open(repo / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["greyrisk"]
    assert target == "greyrisk.cli:entrypoint"
    entrypoint = importlib.metadata.EntryPoint("greyrisk", target, "console_scripts").load()
    monkeypatch.setattr(sys, "argv", ["greyrisk", "demo"])
    with pytest.raises(SystemExit) as exc:
        entrypoint()
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (repo / "tests" / "golden" / "first-column-d2.txt").read_bytes()


def test_zeroing_sensitivity_script_prints_the_pinned_table():
    """The script writes README's zeroing-sensitivity table; its stdout is pinned byte for byte."""
    repo = Path(__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "zeroing_sensitivity.py")],
        capture_output=True, timeout=60, env={**os.environ, "PYTHONPATH": str(repo / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (repo / "tests" / "golden" / "zeroing-sensitivity.txt").read_bytes()


_CELL_EDITS = st.sampled_from([
    "0.25", " 7 ", "", "x", "nan", "-inf", "1e308", "-1e308", "1e400", "1_0", "\u0661", ' "2" ',
    "true", "0x10", "\ufeff3", "1,2", "1\u20282", '"', "-0", "1e-320",
]) | st.text("0123456789.e-, ", max_size=4)


@st.composite
def _mutated_bundle_files(draw):
    """(file name, bytes) of one bundled-case area file after 1-4 cell or line edits."""
    case = json.loads(input_to_json(load_bundled_case()))
    area = draw(st.sampled_from(case["areas"]))
    lines = [[repr(v) for v in row] for row in area["values"]]
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["cell", "cell", "drop-line", "repeat-line", "blank-line",
                                     "drop-cell", "extra-cell"]))
        if edit == "cell" and lines[k]:
            j = draw(st.integers(0, len(lines[k]) - 1))
            lines[k][j] = draw(_CELL_EDITS)
        elif edit == "drop-line" and len(lines) > 1:
            del lines[k]
        elif edit == "repeat-line":
            lines.insert(k, list(lines[k]))
        elif edit == "blank-line":
            lines.insert(k, [])
        elif edit == "drop-cell":
            lines[k] = lines[k][:-1]
        elif edit == "extra-cell":
            lines[k] = lines[k] + ["0.5"]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    data = "".join(",".join(cells) + newline for cells in lines).encode("utf-8")
    if draw(st.booleans()) and draw(st.booleans()):
        data += b"\xff"  # not UTF-8
    return f"{area['name']}.csv", data


@given(_mutated_bundle_files(), st.sampled_from(["text", "csv"]))
@settings(max_examples=60, deadline=None)
def test_mutated_bundle_area_files_keep_the_error_contract(edited, report_format):
    """A csv bundle with edited area files exits 0, 1 or 2, with no traceback, NaN or warning."""
    name, data = edited
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would have reached stderr
        root = Path(tmp) / "bundle"
        write_bundle(root, json.loads(input_to_json(load_bundled_case())))
        (root / name).write_bytes(data)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["assess", "--input", str(root), "--format", report_format])
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert "nan" not in out.getvalue().lower()
    assert (code == 0) == bool(out.getvalue()) == (not err.getvalue())


_NODE_VALUES = st.sampled_from([
    None, True, False, 1e308, -1e308, 10**400, float("nan"), 0, -1, "", "x", "0.5", "benefit",
    [], [0.5], [[1.0, 2.0]], {}, {"interval": [0.0, 1.0]}, {"name": "a"},
])


def _paths(node, path=()):
    """The path of every node below the document's root, as keys and list indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def _mutated_documents(draw):
    """The bundled case's json document with 1-3 nodes replaced."""
    doc = json.loads(input_to_json(load_bundled_case()))
    for _ in range(draw(st.integers(1, 3))):
        *parents, key = draw(st.sampled_from(list(_paths(doc))))
        node = doc
        for k in parents:
            node = node[k]
        node[key] = copy.deepcopy(draw(_NODE_VALUES))  # a later edit may write inside it
    return doc


@given(_mutated_documents(), st.sampled_from(["text", "csv"]))
@example(_overflowing_time_weights(), "text")
@settings(max_examples=60, deadline=None)
def test_mutated_json_documents_keep_the_error_contract(doc, report_format):
    """A json document with replaced nodes exits 0-3, with no traceback, NaN or warning."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would have reached stderr
        path = Path(tmp) / "case.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["assess", "--input", str(path), "--format", report_format])
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert "nan" not in out.getvalue().lower()
    assert (code == 0) == bool(out.getvalue()) == (not err.getvalue())


_METADATA_CELLS = st.sampled_from([
    "", " ", "nan", "inf", "-inf", "1e308", "-1e308", "1e400", "x", '"', '"a"', "a,b", "\r",
    "\n", "a\r\nb", "benefit", "cost", "intermediate", "interval", "1_0", "\u0661",
    "\ufeff", "\ufeff0.5", "\x00", "0.5", "-0",
])


@given(st.data(), st.sampled_from(["indices.csv", "periods.csv"]), st.sampled_from(["text", "csv"]))
@settings(max_examples=60, deadline=None)
def test_mutated_bundle_index_and_period_files_keep_the_error_contract(data, name, report_format):
    """A csv bundle whose indices.csv or periods.csv has 1-3 cells edited or rows inserted
    exits 0-3, with no traceback, NaN or warning."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would have reached stderr
        root = Path(tmp) / "bundle"
        write_bundle(root, json.loads(input_to_json(load_bundled_case())))
        rows = list(csv.reader(io.StringIO((root / name).read_text(encoding="utf-8"))))
        for _ in range(data.draw(st.integers(1, 3))):
            k = data.draw(st.integers(0, len(rows)))
            if k < len(rows) and rows[k] and data.draw(st.booleans()):
                rows[k][data.draw(st.integers(0, len(rows[k]) - 1))] = data.draw(_METADATA_CELLS)
            else:
                width = data.draw(st.integers(0, len(rows[0]) + 1))
                rows.insert(k, [data.draw(_METADATA_CELLS) for _ in range(width)])
        newline = data.draw(st.sampled_from(["\n", "\r\n"]))
        text = "".join(",".join(cells) + newline for cells in rows)
        (root / name).write_bytes(text.encode("utf-8"))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["assess", "--input", str(root), "--format", report_format])
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert "nan" not in out.getvalue().lower()
    assert (code == 0) == bool(out.getvalue()) == (not err.getvalue())
