"""Seeded inputs of the benchmark workloads.

Each builder writes the files the program reads into a work directory and
returns a Dataset (where the input is and how ``greyrisk assess`` reports on
it) and the same data as a JSON-schema document for the reference
implementation.
The same seed always gives the same files. Area counts and shapes do not
depend on the seed, so call counts repeat exactly from run to run.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

KINDS = ("benefit", "cost", "intermediate", "interval")


@dataclass(frozen=True)
class Dataset:
    input_path: Path               # dataset file or csv-bundle directory
    input_format: str              # json | csv-bundle
    report_format: str             # text | json | csv
    decimals: int                  # text report precision
    duplicates: dict[str, str] = field(default_factory=dict)  # copy -> original


def _scores(rng: np.random.Generator, n: int, m: int, t: int) -> np.ndarray:
    """Expert-style scores on [0, 100]: a level and a trend per area and index, plus noise."""
    level = rng.uniform(20.0, 80.0, (n, m, 1))
    trend = rng.normal(0.0, 3.0, (n, m, 1)) * np.arange(t)
    noise = rng.normal(0.0, 4.0, (n, m, t))
    return np.round(np.clip(level + trend + noise, 0.0, 100.0), 3)


def _unit_weights(rng: np.random.Generator, k: int) -> list[float]:
    w = rng.uniform(0.5, 1.5, k)
    return (w / w.sum()).tolist()


def _document(rng, names, values, kinds, intervals) -> dict:
    m, t = values.shape[1:]
    indices = [
        {"id": f"e{j + 1}", "name": f"Index {j + 1}",
         "orientation": {"interval": list(bounds)} if bounds else kind, "weight": w}
        for j, (kind, bounds, w) in enumerate(zip(kinds, intervals, _unit_weights(rng, m)))
    ]
    periods = [{"label": f"t{k + 1}", "weight": w}
               for k, w in enumerate(_unit_weights(rng, t))]
    areas = [{"name": name, "values": v.tolist()} for name, v in zip(names, values)]
    return {"indices": indices, "periods": periods, "areas": areas}


def _benefit_json(seed: int, work: Path, n: int) -> tuple[Dataset, dict]:
    rng = np.random.default_rng(seed)
    m, t = 15, 6
    doc = _document(rng, [f"r{k:05d}" for k in range(n)], _scores(rng, n, m, t),
                    ["benefit"] * m, [None] * m)
    path = work / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return Dataset(path, "json", "json", 2), doc


def wui_case(seed: int, work: Path, root: Path) -> tuple[Dataset, dict]:
    """The bundled three-area case, read as it ships; the seed does not change it."""
    path = root / "src" / "greyrisk" / "data" / "wui-case.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    return Dataset(path, "json", "text", 12), doc


def regional_benefit(seed: int, work: Path, root: Path) -> tuple[Dataset, dict]:
    return _benefit_json(seed, work, 5000)


def mixed_orientation(seed: int, work: Path, root: Path) -> tuple[Dataset, dict]:
    """1000 areas, 50 indices of all four orientations, 24 periods, as a csv-bundle.

    50 of the areas are exact copies of distinct originals under new names.
    """
    rng = np.random.default_rng(seed)
    n_orig, n_copy, m, t = 950, 50, 50, 24
    values = _scores(rng, n_orig, m, t)
    sources = rng.choice(n_orig, n_copy, replace=False)
    names = [f"a{k:04d}" for k in range(n_orig)] + [f"d{k:04d}" for k in range(n_copy)]
    values = np.concatenate([values, values[sources]])
    kinds = [KINDS[j % 4] for j in range(m)]
    intervals = []
    for kind in kinds:
        low = float(np.round(rng.uniform(35.0, 45.0), 3))
        intervals.append((low, low + 15.0) if kind == "interval" else None)
    doc = _document(rng, names, values, kinds, intervals)

    bundle = work / "bundle"
    bundle.mkdir()
    with open(bundle / "indices.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "name", "orientation", "weight", "interval_low", "interval_high"])
        for d, bounds in zip(doc["indices"], intervals):
            kind = "interval" if bounds else d["orientation"]
            w.writerow([d["id"], d["name"], kind, repr(d["weight"]),
                        *(map(repr, bounds) if bounds else ("", ""))])
    with open(bundle / "periods.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["label", "weight"])
        w.writerows([p["label"], repr(p["weight"])] for p in doc["periods"])
    for name, v in zip(names, values):
        (bundle / f"{name}.csv").write_text(
            "".join(",".join(map(repr, row)) + "\n" for row in v.tolist()), encoding="utf-8")
    duplicates = {names[n_orig + k]: names[s] for k, s in enumerate(sources)}
    return Dataset(bundle, "csv-bundle", "csv", 2, duplicates), doc


BUILDERS = {
    "wui-case": wui_case,
    "regional-benefit": regional_benefit,
    "mixed-orientation": mixed_orientation,
}
