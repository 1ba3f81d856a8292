"""Dataset ingestion, report rendering, and trace emission.

Two input formats normalize to the same AssessmentInput:

json            {"indices": [{"id", "name", "orientation", "weight"}, ...],
                 "periods": [{"label", "weight"}, ...],
                 "areas":   [{"name", "values": [[m rows of T reals]]}, ...]}
                where orientation is "benefit" | "cost" | "intermediate" |
                {"interval": [low, high]}. An optional top-level
                "description" string documents the dataset.

csv-bundle      a directory with indices.csv (id,name,orientation,weight,
                interval_low,interval_high), periods.csv (label,weight), and
                one plain numeric m x T grid per area in any other *.csv;
                the area name is the file stem. indices.csv and periods.csv
                rows are read into json entries and typed as json is.

Values are laid out row = index, column = period throughout.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .incidence import IncidenceFamilyResult, grey_coefficients
from .model import (
    AssessmentInput,
    IndexDefinition,
    Orientation,
    OrientationKind,
    ValidationError,
    grid_errors,
)
from .ranking import RiskLevel

if TYPE_CHECKING:
    from .pipeline import AssessmentReport, RunConfig

_ORIENTATION_NAMES = tuple(k.value for k in OrientationKind)


class InputFormatError(ValueError):
    """Raised when a dataset file cannot be parsed into the documented schema."""


def _parse_orientation(raw, locus: str) -> Orientation:
    if isinstance(raw, str):
        if raw == "interval":
            raise InputFormatError(
                f"{locus}: interval orientation requires bounds, "
                'use {"interval": [low, high]}'
            )
        if raw not in _ORIENTATION_NAMES:
            raise InputFormatError(
                f"{locus}: unknown orientation '{raw}' "
                f"(allowed: {', '.join(_ORIENTATION_NAMES)})"
            )
        return Orientation(OrientationKind(raw))
    if isinstance(raw, dict) and set(raw) == {"interval"}:
        bounds = raw["interval"]
        if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2):
            raise InputFormatError(f"{locus}: interval bounds must be a [low, high] pair")
        return Orientation.interval(_number(bounds[0], locus, "interval low"),
                                    _number(bounds[1], locus, "interval high"))
    raise InputFormatError(
        f"{locus}: orientation must be one of {', '.join(_ORIENTATION_NAMES)} "
        'or {"interval": [low, high]}'
    )


def _number(raw, locus: str, field: str) -> float:
    try:
        if isinstance(raw, (bool, str)):  # float() would read true as 1.0 and "0.5" as 0.5
            raise TypeError(raw)
        return float(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"{locus}: {field} must be a number, got {raw!r}") from exc


def _require(d: dict, key: str, locus: str, kind: type = object):
    if not isinstance(d, dict):
        raise InputFormatError(f"{locus}: expected an object, got {type(d).__name__}")
    if key not in d:
        raise InputFormatError(f"{locus}: missing required field '{key}'")
    if not isinstance(d[key], kind):
        raise InputFormatError(
            f"{locus}: field '{key}' must be a {kind.__name__}, got {type(d[key]).__name__}"
        )
    return d[key]


def _build(index_entries, period_entries, n: int, areas) -> AssessmentInput:
    """Type the (locus, json entry) pairs of indices and periods, then read the n
    (name, m x T grid) pairs of areas one at a time into one (n, m, T) array."""
    indices = [
        IndexDefinition(
            id=_require(entry, "id", locus, str),
            name=_require(entry, "name", locus, str),
            orientation=_parse_orientation(_require(entry, "orientation", locus), locus),
            weight=_number(_require(entry, "weight", locus), locus, "weight"),
        )
        for locus, entry in index_entries
    ]
    labels, time_weights = [], []
    for locus, entry in period_entries:
        labels.append(_require(entry, "label", locus, str))
        time_weights.append(_number(_require(entry, "weight", locus), locus, "weight"))
    m, T = len(indices), len(labels)
    errors = grid_errors(m, T)
    if errors:  # no area grid can be read against a declared shape this small
        raise ValidationError(errors)
    values, names = np.empty((0, m, T)), []
    for k, (name, grid) in enumerate(areas):
        names.append(name)
        if grid.shape != (m, T):
            got = "x".join(str(s) for s in grid.shape)
            errors.append(f"area '{name}': expected {m}x{T} value matrix, got {got}")
        elif not errors:
            if k == 0:  # allocated only once a grid has the declared shape
                values = np.empty((n, m, T))
            values[k] = grid
    if errors:
        raise ValidationError(errors)
    return AssessmentInput(indices, labels, time_weights, names, values)


def _json_areas(entries: list):
    for k, entry in enumerate(entries):
        locus = f"areas[{k}]"
        name = _require(entry, "name", locus, str)
        values = _require(entry, "values", locus)
        try:
            grid = np.array(values, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputFormatError(
                f"{locus} ('{name}'): values must be a rectangular grid of numbers: {exc}"
            ) from exc
        if grid.ndim != 2:
            raise InputFormatError(
                f"{locus} ('{name}'): values must be a rectangular grid of numbers"
            )
        if {bool, str} & {type(v) for row in values for v in row}:  # np.array converted them
            raise InputFormatError(
                f"{locus} ('{name}'): values must be numbers, not true/false or strings"
            )
        yield name, grid


def _located(field: str, entries: list):
    return ((f"{field}[{k}]", entry) for k, entry in enumerate(entries))


def input_from_dict(doc: dict) -> AssessmentInput:
    """Build a validated AssessmentInput from the json document schema."""
    if not isinstance(doc, dict):
        raise InputFormatError("top level must be an object")
    indices, periods, areas = (
        _require(doc, field, "input", list) for field in ("indices", "periods", "areas")
    )
    return _build(_located("indices", indices), _located("periods", periods), len(areas),
                  _json_areas(areas))


def _metadata(inp: AssessmentInput) -> dict:
    """The json document's "indices" and "periods" fields."""
    def orientation_doc(o: Orientation):
        if o.kind is OrientationKind.INTERVAL:
            return {"interval": [o.interval_low, o.interval_high]}
        return o.kind.value

    return {
        "indices": [
            {"id": d.id, "name": d.name, "orientation": orientation_doc(d.orientation),
             "weight": d.weight}
            for d in inp.indices
        ],
        "periods": [
            {"label": label, "weight": float(w)}
            for label, w in zip(inp.periods, inp.time_weights)
        ],
    }


def compute_fingerprint(inp: AssessmentInput) -> str:
    """Content hash of the dataset, independent of file formatting.

    sha256 over the canonical JSON of the indices, periods, area names and
    shape, then over the little-endian float64 bytes of the raw scores.
    """
    meta = {**_metadata(inp), "areas": inp.area_names, "shape": inp.values.shape}
    digest = hashlib.sha256(json.dumps(meta, sort_keys=True, separators=(",", ":")).encode())
    digest.update(np.ascontiguousarray(inp.values, dtype="<f8"))
    return digest.hexdigest()


def _load_json(path: Path) -> AssessmentInput:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # also UnicodeDecodeError, and integers too long to convert
        raise InputFormatError(f"{path}: {exc}") from exc
    return input_from_dict(doc)


def _csv_grid(path: Path) -> np.ndarray:
    """An area file as a 2-d float array, parsed in C by ``np.loadtxt``.

    A file that loadtxt refuses or finds empty is read again by
    ``_csv_grid_cells``, which alone decides whether such a file is accepted
    and, if not, locates the error.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            grid = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
    except ValueError:  # also UnicodeDecodeError
        return _csv_grid_cells(path)
    return grid if grid.size else _csv_grid_cells(path)


def _csv_grid_cells(path: Path) -> np.ndarray:
    """An area file read cell by cell with float(); rows are numbered by line."""
    rows, first, ragged = [], None, None
    for line, row in enumerate(_csv_rows(path), start=1):
        if not row:
            continue
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise InputFormatError(f"{path.name} row {line}: {exc}") from exc
        if first is None:
            first = (line, len(row))
        elif ragged is None and len(row) != first[1]:
            ragged = (f"{path.name} row {line}: rows have differing widths, "
                      f"{len(row)} cells where row {first[0]} has {first[1]}")
    if ragged:
        raise InputFormatError(ragged)
    return np.array(rows, dtype=float)


def _csv_rows(path: Path) -> list:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def _csv_entries(path: Path):
    """Each row of indices.csv or periods.csv as a (locus, json entry) pair.

    The first non-blank row is the header, and rows are numbered by line as in
    the area files. Cells are stripped and blank or missing ones dropped, but a
    non-blank cell beyond the header is an error; weights and interval bounds
    are read with float(). A blank index name takes the id, and an "interval"
    orientation takes its bounds from interval_low and interval_high.
    """
    header = None
    for k, row in enumerate(_csv_rows(path), start=1):
        if not row:  # a blank line
            continue
        if header is None:
            header = row
            continue
        locus = f"{path.name} row {k}"
        if any(cell.strip() for cell in row[len(header):]):
            raise InputFormatError(f"{locus}: {len(row)} cells, header has {len(header)}")
        entry = {key: cell.strip() for key, cell in zip(header, row) if cell.strip()}
        for key in ("weight", "interval_low", "interval_high"):
            if key in entry:
                try:
                    entry[key] = float(entry[key])
                except ValueError as exc:
                    raise InputFormatError(
                        f"{locus}: {key} must be a number, got {entry[key]!r}"
                    ) from exc
        entry.setdefault("name", entry.get("id"))  # the builder requires the id first
        if entry.get("orientation") == "interval":
            entry["orientation"] = {"interval": [_require(entry, "interval_low", locus),
                                                 _require(entry, "interval_high", locus)]}
        yield locus, entry


def _load_csv_bundle(root: Path) -> AssessmentInput:
    idx_path, per_path = root / "indices.csv", root / "periods.csv"
    for required in (idx_path, per_path):
        if not required.is_file():
            raise InputFormatError(f"csv bundle {root}: missing {required.name}")
    area_files = sorted(
        (p for p in root.glob("*.csv") if p.name not in ("indices.csv", "periods.csv")),
        key=lambda p: p.name,
    )
    if not area_files:
        raise InputFormatError(f"csv bundle {root}: no area files found")
    return _build(_csv_entries(idx_path), _csv_entries(per_path), len(area_files),
                  ((p.stem, _csv_grid(p)) for p in area_files))


_LOADERS = {"json": _load_json, "csv-bundle": _load_csv_bundle}
INPUT_FORMATS = tuple(_LOADERS)


def load_input(path, fmt: str | None = None) -> AssessmentInput:
    """Parse a dataset file (json) or directory (csv-bundle) into a validated input.

    Parse problems, text that is not UTF-8 included, raise InputFormatError with a
    file/field locus; ValidationError names an m or T below 2, else lists every
    wrong-shaped area grid, else every violation.
    """
    path = Path(path)
    if fmt is None:
        fmt = "csv-bundle" if path.is_dir() else "json"
    if fmt not in _LOADERS:
        raise InputFormatError(f"unknown input format '{fmt}' (allowed: {', '.join(_LOADERS)})")
    return _LOADERS[fmt](path)


# ---------------------------------------------------------------------------
# report emission

_ROW_FIELDS = ("name", "gamma_pos", "gamma_neg", "superiority", "rank", "level", "tied")
_LEVEL_LABELS = {level.value: level.label for level in RiskLevel}


def _rows(report: "AssessmentReport"):
    """Each area's ``_ROW_FIELDS`` in rank order, the level as its label."""
    r = report.result
    return zip(r.names, r.gamma_pos.tolist(), r.gamma_neg.tolist(), r.superiority.tolist(),
               r.rank.tolist(), map(_LEVEL_LABELS.__getitem__, r.level.tolist()), r.tied.tolist())


def report_to_dict(report: "AssessmentReport") -> dict:
    return {
        "areas": [dict(zip(_ROW_FIELDS, row)) for row in _rows(report)],
        "config": report.result.config_echo,
        "fingerprint": report.fingerprint,
        "version": report.version,
        "duration_seconds": report.duration_seconds,
    }


def render_text(report: "AssessmentReport", decimals: int) -> str:
    headers = ("area", "gamma+", "gamma-", "superiority", "rank", "level")
    rows = [
        (name, f"{gp:.{decimals}f}", f"{gn:.{decimals}f}", f"{s:.{decimals}f}",
         f"{rank}{'*' if tied else ''}", label)
        for name, gp, gn, s, rank, label, tied in _rows(report)
    ]
    widths = [max(len(h), *(len(r[c]) for r in rows)) for c, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in rows]
    if report.result.tied.any():
        lines.append("* tied superiority degree")
    lines.append(f"dataset {report.fingerprint[:12]}  tool {report.version}")
    return "\n".join(lines) + "\n"


def render_json(report: "AssessmentReport") -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def _csv_cell(text: str) -> str:
    """``text`` as a CSV cell, quoted when it holds a comma, a quote, CR or LF."""
    if re.search(r'[,"\r\n]', text):
        return '"' + text.replace('"', '""') + '"'
    return text


def render_csv(report: "AssessmentReport") -> str:
    lines = [",".join(_ROW_FIELDS)]
    for name, gp, gn, s, rank, label, tied in _rows(report):
        lines.append(f"{_csv_cell(name)},{gp!r},{gn!r},{s!r},{rank},{label},{str(tied).lower()}")
    return "\n".join(lines) + "\n"


# report format -> renderer of (report, decimals); the first is the default
_RENDERERS = {
    "text": render_text,
    "json": lambda report, decimals: render_json(report),
    "csv": lambda report, decimals: render_csv(report),
}
REPORT_FORMATS = tuple(_RENDERERS)


def emit_report(report: "AssessmentReport", config: "RunConfig", destination=None) -> None:
    """Write the report in the configured format to a path or stdout."""
    payload = _RENDERERS[config.output_format](report, config.report_decimals)
    if destination is None:
        sys.stdout.write(payload)
    else:
        Path(destination).write_text(payload, encoding="utf-8")


# ---------------------------------------------------------------------------
# trace emission

def _slug(name: str) -> str:
    s = re.sub(r"[^A-Za-z0-9_-]+", "_", name).strip("_").lower()
    return s or "area"


def _write_matrix(path: str, matrix: np.ndarray, row_cells, header: str) -> None:
    """One CSV file, CR LF ended, in one write; the row cells and header come quoted."""
    rows = (f"{cell},{','.join(map(repr, row))}" for cell, row in zip(row_cells, matrix.tolist()))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join([header, *rows, ""]))


class TraceWriter:
    """Writes the stages of one run on ``inp`` to ``out_dir`` as CSVs; with
    ``out_dir`` None it writes nothing.

    Rows are labeled by index id and columns by period label. Volume-stage
    matrices are one cell smaller per axis; their rows and columns are labeled
    by the window's upper-left index id and period. A run writes four shared
    files (both ideal matrices and their volumes) and six files per area
    (standardized, weighted, and each family's volume differences and grey
    coefficients).
    """

    def __init__(self, out_dir, inp: AssessmentInput):
        self.out = out_dir
        if out_dir is None:
            return
        os.makedirs(out_dir, exist_ok=True)
        ids = [_csv_cell(d.id) for d in inp.indices]
        labels = [_csv_cell(p) for p in inp.periods]
        self.axes = {(len(ids), len(labels)): (ids, "," + ",".join(labels)),
                     (len(ids) - 1, len(labels) - 1): (ids[:-1], "," + ",".join(labels[:-1]))}
        self.slugs, used = [], set()
        for k, name in enumerate(inp.area_names):
            slug = base = _slug(name)
            suffix = k + 1
            while slug in used:
                slug = f"{base}_{suffix}"
                suffix += 1
            used.add(slug)
            self.slugs.append(slug)

    def stage(self, name: str, array: np.ndarray) -> None:
        """An (m, T) or (m-1, T-1) stage as one shared file, an (n, ...) stage as
        one file per area."""
        if self.out is None:
            return
        if array.ndim == 2:
            _write_matrix(self._path(name), array, *self.axes[array.shape])
        else:
            self._per_area(name, array, array.shape[1:])

    def family(self, sign: str, fam: IncidenceFamilyResult) -> None:
        """An incidence family's volume differences, and its grey coefficients
        rescaled from them one area at a time."""
        if self.out is None:
            return
        diffs = fam.volume_diffs
        self._per_area(f"volume_diff_{sign}", diffs, diffs.shape[1:])
        coeffs = (grey_coefficients(d, fam.d_max, fam.d_min) for d in diffs)
        self._per_area(f"coeff_{sign}", coeffs, diffs.shape[1:])

    def _per_area(self, name: str, matrices, shape: tuple) -> None:
        cells, header = self.axes[shape]
        for slug, matrix in zip(self.slugs, matrices):
            _write_matrix(self._path(f"{slug}_{name}"), matrix, cells, header)

    def _path(self, name: str) -> str:
        # a plain string: pathlib would intern every one of the 6n file names
        return os.path.join(self.out, f"{name}.csv")
