"""CLI reports on random documents, checked against the independent reference.

``benchmark/reference.py`` implements the method again with numpy alone, and
``benchmark/check.py`` compares a written report with it at 1e-12. Both are
imported by path; neither imports greyrisk. The reference knows first-column
zeroing only, so that is the mode run here.
"""

import importlib.util
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from greyrisk import cli
from greyrisk.pipeline import MAX_REPORT_DECIMALS

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def _benchmark_module(name: str):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _benchmark_module("reference")
with mock.patch.dict(sys.modules, {"reference": reference}):  # check.py imports it by name
    check = _benchmark_module("check")

# scores as benchmark/workloads.py draws them: multiples of 0.001 in [0, 100]
_SCORES = st.integers(0, 100_000).map(lambda k: k / 1000)


def _unit_weights(draw, k: int) -> list:
    w = np.array(draw(st.lists(st.integers(1, 3), min_size=k, max_size=k)), dtype=float)
    return (w / w.sum()).tolist()


@st.composite
def _documents(draw):
    """A JSON document of n <= 40 areas on m, T <= 6, all four orientations, interval
    bounds inside or outside the data, constant indices and exact duplicate areas;
    and the duplicates as a {copy: original} map."""
    m, T = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    n = draw(st.integers(2, 36))
    values = np.array(draw(st.lists(_SCORES, min_size=n * m * T, max_size=n * m * T)))
    values = values.reshape(n, m, T)
    for j in draw(st.sets(st.integers(0, m - 1), max_size=m)):
        values[:, j, :] = draw(_SCORES)
    sources = draw(st.lists(st.integers(0, n - 1), max_size=4))
    values = np.concatenate([values, values[sources]])
    names = [f"a{k:02d}" for k in range(n)] + [f"d{k:02d}" for k in range(len(sources))]
    indices = []
    for j, w in enumerate(_unit_weights(draw, m)):
        kind = draw(st.sampled_from(["benefit", "cost", "intermediate", "interval"]))
        if kind == "interval":
            low = draw(st.integers(-50_000, 150_000)) / 1000
            kind = {"interval": [low, low + draw(st.integers(0, 60_000)) / 1000]}
        indices.append({"id": f"e{j}", "name": f"index {j}", "orientation": kind, "weight": w})
    doc = {
        "indices": indices,
        "periods": [{"label": f"t{t}", "weight": w} for t, w in enumerate(_unit_weights(draw, T))],
        "areas": [{"name": a, "values": v} for a, v in zip(names, values.tolist())],
    }
    return doc, {names[n + k]: names[s] for k, s in enumerate(sources)}


@given(_documents())
@settings(max_examples=80, deadline=None)
def test_reports_match_the_reference(case):
    """Each report format of ``greyrisk assess`` matches the reference at 1e-12, and a
    run exits 3 exactly where the reference has an area with both degrees zero."""
    doc, duplicates = case
    with np.errstate(invalid="ignore"):  # 0 / 0 where both degrees are zero
        names, ref = reference.from_document(doc)
    degenerate = bool(((ref["gamma_pos"] == 0.0) & (ref["gamma_neg"] == 0.0)).any())
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "case.json"
        source.write_text(json.dumps(doc), encoding="utf-8")
        for fmt in ("text", "json", "csv"):
            out = Path(tmp) / f"report.{fmt}"
            code = cli.main(["assess", "--input", str(source), "--zeroing", "first-column",
                             "--format", fmt, "--decimals", str(MAX_REPORT_DECIMALS),
                             "--output", str(out)])
            assert code == (3 if degenerate else 0), fmt
            if code == 0:
                rows = check.parse_report(out.read_text(encoding="utf-8"), fmt)
                decimals = MAX_REPORT_DECIMALS if fmt == "text" else None
                assert check.check_report(rows, names, ref, duplicates, decimals) == [], fmt
