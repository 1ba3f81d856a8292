import csv
import json

import numpy as np
import pytest

from greyrisk import AssessmentInput, IndexDefinition, Orientation, normalize
from greyrisk.io import _ROW_FIELDS, _input_fields, _metadata, _rows
from greyrisk.model import index_extrema
from greyrisk.pipeline import load_bundled_case


def read_matrix(path):
    """A trace CSV's values, without its row and column labels."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in row[1:]] for row in rows[1:]])


def make_input(matrices, index_weights=None, time_weights=None, orientations=None,
               names=None):
    """Assemble an AssessmentInput from raw m x T matrices, one per area.

    Defaults: uniform weights summing to 1, benefit orientation, names
    area1..areaN. Building the input validates it.
    """
    values = np.asarray(matrices, dtype=float)
    n, m, T = values.shape
    if index_weights is None:
        index_weights = [1.0 / m] * m
    if time_weights is None:
        time_weights = [1.0 / T] * T
    if orientations is None:
        orientations = [Orientation("benefit")] * m
    if names is None:
        names = [f"area{k + 1}" for k in range(n)]
    indices = tuple(
        IndexDefinition(id=f"e{j + 1}", name=f"criterion {j + 1}",
                        orientation=orientations[j], weight=float(index_weights[j]))
        for j in range(m)
    )
    return AssessmentInput(
        indices=indices,
        periods=tuple(f"t{t + 1}" for t in range(T)),
        time_weights=np.asarray(time_weights, dtype=float),
        area_names=tuple(names),
        values=values,
    )


def standardized(inp):
    """Standardized (n, m, T) scores of an input's areas, with the run's operands taken
    over all of them."""
    x = inp.values
    return normalize.standardize(x, normalize.standardization(x, inp.indices, index_extrema(x)))


def input_to_dict(inp):
    """An input as the json document schema."""
    areas = zip(inp.area_names, inp.values.tolist())
    return {**_metadata(inp), "areas": [{"name": a, "values": v} for a, v in areas]}


def input_from_dict(doc):
    """The input of a json-schema document, typed and checked as a JSON file's is."""
    return AssessmentInput(*_input_fields(doc))


def input_to_json(inp):
    return json.dumps(input_to_dict(inp), indent=2)


def report_to_dict(report):
    """A report as a dict; json.dumps of it with indent=2 is the JSON report's oracle."""
    return {
        "areas": [dict(zip(_ROW_FIELDS, row)) for row in _rows(report)],
        "config": report.result.config_echo,
        "fingerprint": report.fingerprint,
        "version": report.version,
        "duration_seconds": report.duration_seconds,
    }


def write_bundle(root, case_dict):
    """Write a json-schema document as a csv bundle under ``root``."""
    root.mkdir(exist_ok=True)
    with open(root / "indices.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "name", "orientation", "weight", "interval_low", "interval_high"])
        for d in case_dict["indices"]:
            kind, bounds = d["orientation"], ("", "")
            if isinstance(kind, dict):
                kind, bounds = "interval", kind["interval"]
            w.writerow([d["id"], d["name"], kind, d["weight"], *bounds])
    with open(root / "periods.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["label", "weight"])
        for p in case_dict["periods"]:
            w.writerow([p["label"], p["weight"]])
    for area in case_dict["areas"]:
        with open(root / f"{area['name']}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            for row in area["values"]:
                w.writerow(row)


def write_npy_bundle(root, inp, order="C"):
    """Write an input as an npy bundle under ``root``, its scores in ``order``."""
    root.mkdir(exist_ok=True)
    np.save(root / "values.npy", np.asarray(inp.values, order=order))
    meta = {**_metadata(inp), "areas": list(inp.area_names)}
    (root / "meta.json").write_text(json.dumps(meta), encoding="utf-8")


# Three tiny areas where area1 sits strictly farthest from both ideal
# matrices, so both of its incidence degrees are exactly zero and the
# superiority degree is undefined.
DEGENERATE_MATRICES = (
    [[6.0, 2.0], [0.0, 2.0]],
    [[3.0, 6.0], [3.0, 0.0]],
    [[2.0, 4.0], [6.0, 5.0]],
)


@pytest.fixture(scope="session")
def bundled_input():
    return load_bundled_case()


@pytest.fixture
def degenerate_input():
    return make_input(DEGENERATE_MATRICES)
