"""Dataset ingestion, report rendering, and trace emission.

Three input formats normalize to the same AssessmentInput:

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

npy-bundle      a directory with meta.json, the json document without the
                areas' "values" but with "areas": [names], and values.npy,
                the (n, m, T) float64 scores as np.save writes them. The
                scores are read as a read-only map of the file, which the
                input holds without a copy; the file must not be rewritten
                while the input is in use.

Values are laid out row = index, column = period throughout. Each loader hands
the score array it built to the AssessmentInput, which holds it without a copy.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import mmap
import operator
import os
import re
import sys
import warnings
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .model import (
    AssessmentInput,
    IndexDefinition,
    Orientation,
    OrientationKind,
    ValidationError,
    _Built,
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


def _typed(index_entries, period_entries) -> tuple:
    """The (locus, json entry) pairs of indices and periods typed as the first three
    fields of an AssessmentInput: indices, period labels and time weights.

    An m or T too small for any area grid is refused here, before a grid is read.
    """
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
    errors = grid_errors(len(indices), len(labels))
    if errors:
        raise ValidationError(errors)
    return indices, labels, time_weights


def _stack(m: int, T: int, n: int, areas) -> tuple:
    """The n (name, m x T grid) pairs of areas, read one at a time, as the names
    and one (n, m, T) array; every wrong-shaped grid is named in one error."""
    errors, values, names = [], np.empty((0, m, T)), []
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
    return names, values


def _json_grids(entries: list, m: int, T: int):
    """The names and (n, m, T) values of the areas, or None.

    The grids are stacked once when every entry is a plain {"name": str, "values":
    grid} object whose grid is an m x T float64 array, as ``_grid_hook`` leaves a
    clean grid. None means some entry is not; then ``_json_areas`` reads the entries
    again and alone decides whether they are accepted and, if not, locates the
    error. No value array is made unless every shape holds.
    """
    if not set(map(type, entries)) <= {dict}:
        return None
    try:
        names = list(map(operator.itemgetter("name"), entries))
        grids = list(map(operator.itemgetter("values"), entries))
    except KeyError:
        return None
    if not (grids and set(map(type, names)) <= {str} and set(map(type, grids)) <= {np.ndarray}
            and set(map(operator.attrgetter("shape"), grids)) <= {(m, T)}
            and set(map(operator.attrgetter("dtype"), grids)) <= {np.dtype(float)}):
        return None
    return names, np.concatenate(grids).reshape(len(grids), m, T)


def _json_areas(entries: list):
    for k, entry in enumerate(entries):
        locus = f"areas[{k}]"
        name = _require(entry, "name", locus, str)
        values = _require(entry, "values", locus)
        try:
            grid = np.asarray(values, dtype=float)  # a float64 array grid is kept as it is
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputFormatError(
                f"{locus} ('{name}'): values must be a rectangular grid of numbers: {exc}"
            ) from exc
        if grid.ndim != 2:
            raise InputFormatError(
                f"{locus} ('{name}'): values must be a rectangular grid of numbers"
            )
        # asarray converted them; a float64 array grid holds neither
        if grid is not values and {bool, str} & {type(v) for row in values for v in row}:
            raise InputFormatError(
                f"{locus} ('{name}'): values must be numbers, not true/false or strings"
            )
        yield name, grid


def _located(field: str, entries: list):
    return ((f"{field}[{k}]", entry) for k, entry in enumerate(entries))


def _input_fields(doc: dict) -> tuple:
    """The fields of the AssessmentInput of a json document, in order; the values are
    one (n, m, T) array that holds no reference to ``doc``."""
    if not isinstance(doc, dict):
        raise InputFormatError("top level must be an object")
    index_entries, period_entries, areas = (
        _require(doc, field, "input", list) for field in ("indices", "periods", "areas")
    )
    indices, labels, time_weights = _typed(_located("indices", index_entries),
                                           _located("periods", period_entries))
    m, T = len(indices), len(labels)
    columns = _json_grids(areas, m, T)
    if columns is None:
        columns = _stack(m, T, len(areas), _json_areas(areas))
    return (indices, labels, time_weights, *columns)


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


_CLEAN_GRID_DTYPES = (np.dtype(float), np.dtype(np.int64))


def _grid_hook(obj: dict, bools: bool = False) -> dict:
    """A parsed JSON object, its "values" made a float64 array if they are a clean grid.

    Clean means ``np.array`` infers float64 or int64 with two dimensions, which
    it does only for rows of equal length holding numbers or bools; an integer
    it cannot hold in either (as 10**400) gives an object array. Inference reads
    a bool as a number, so with ``bools`` set, for text that spells ``true`` or
    ``false``, a grid with a bool among its cells is not clean. Anything else is
    left as parsed, for ``_json_areas`` to accept or refuse.
    """
    values = obj.get("values")
    if type(values) is list:
        try:
            grid = np.array(values)
        except ValueError:  # ragged, or nested too deeply
            return obj
        if (grid.ndim == 2 and grid.dtype in _CLEAN_GRID_DTYPES and not (
                bools and bool in set(map(type, itertools.chain.from_iterable(values))))):
            obj["values"] = grid.astype(float, copy=False)
    return obj


def _read_text(path: Path) -> str:
    """The UTF-8 text of the file at ``path``, its line ends read as text mode reads them.

    The text is decoded from a read-only map of the file, so the file's bytes are never
    held beside it. An empty file, or one that reports no size, is read as it is.
    """
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:
            text = str(fh.read(), "utf-8")
        else:
            with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
                text = str(mm, "utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _parse_json(path: Path):
    """The JSON document at ``path``, each clean area grid parsed straight into an
    array by ``_grid_hook``, so such grids never exist as lists of floats; grids are
    checked for bools only where the text spells ``true`` or ``false``."""
    try:
        text = _read_text(path)
        bools = "true" in text or "false" in text
        hook = functools.partial(_grid_hook, bools=True) if bools else _grid_hook
        return json.loads(text, object_hook=hook)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # also UnicodeDecodeError, and integers too long to convert
        raise InputFormatError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise InputFormatError(f"{path}: JSON arrays or objects nested too deeply") from exc


def _load_json(path: Path) -> AssessmentInput:
    *fields, values = _input_fields(_parse_json(path))  # the document and its grids are freed here
    return AssessmentInput(*fields, _Built(values))


def _csv_grid(path: Path) -> np.ndarray:
    """An area file as a 2-d float array, parsed in C by ``np.loadtxt``.

    A file that loadtxt refuses or finds empty is read again by
    ``_csv_grid_cells``, which alone decides whether such a file is accepted
    and, if not, locates the error.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh, warnings.catch_warnings():
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
        with open(path, newline="", encoding="utf-8-sig") as fh:
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
    indices, labels, time_weights = _typed(_csv_entries(idx_path), _csv_entries(per_path))
    names, values = _stack(len(indices), len(labels), len(area_files),
                           ((p.stem, _csv_grid(p)) for p in area_files))
    return AssessmentInput(indices, labels, time_weights, names, _Built(values))


def _load_npy_bundle(root: Path) -> AssessmentInput:
    meta_path, values_path = root / "meta.json", root / "values.npy"
    for required in (meta_path, values_path):
        if not required.is_file():
            raise InputFormatError(f"npy bundle {root}: missing {required.name}")
    meta = _parse_json(meta_path)
    index_entries, period_entries, names = (
        _require(meta, field, str(meta_path), list) for field in ("indices", "periods", "areas")
    )
    indices, labels, time_weights = _typed(_located("meta.json indices", index_entries),
                                           _located("meta.json periods", period_entries))
    try:
        values = np.load(values_path, mmap_mode="r", allow_pickle=False)
    except (ValueError, EOFError) as exc:  # not an .npy file, truncated, or pickled objects
        raise InputFormatError(f"{values_path}: {exc}") from exc
    if not isinstance(values, np.ndarray):  # an .npz archive
        values.close()
        raise InputFormatError(f"{values_path}: an .npz archive, not an .npy array")
    if values.dtype.kind != "f" or values.dtype.itemsize != 8:
        raise InputFormatError(f"{values_path}: scores must be float64, got {values.dtype}")
    shape = (len(names), len(indices), len(labels))
    if values.shape != shape:
        raise InputFormatError(
            f"{values_path}: shape {values.shape} does not match meta.json's "
            f"{shape[0]} areas x {shape[1]} indices x {shape[2]} periods"
        )
    return AssessmentInput(indices, labels, time_weights, names, values)


_LOADERS = {"json": _load_json, "csv-bundle": _load_csv_bundle, "npy-bundle": _load_npy_bundle}
INPUT_FORMATS = tuple(_LOADERS)


def load_input(path, fmt: str | None = None) -> AssessmentInput:
    """Parse a dataset file (json) or directory (csv-bundle, npy-bundle) into a validated
    input, which holds the score array the loader built, or the npy map, without a copy.

    With no ``fmt``, a directory holding values.npy is read as an npy bundle, any
    other directory as a csv bundle, and a file as json. Parse problems, text that is
    not UTF-8 included, raise InputFormatError with a file/field locus; ValidationError
    names an m or T below 2, else lists every wrong-shaped area grid, else every
    violation.
    """
    path = Path(path)
    if fmt is None:
        if path.is_dir():
            fmt = "npy-bundle" if (path / "values.npy").is_file() else "csv-bundle"
        else:
            fmt = "json"
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


# one area of the JSON report as json.dumps(..., indent=2) lays it out
_JSON_AREA = """    {{
      "name": {},
      "gamma_pos": {!r},
      "gamma_neg": {!r},
      "superiority": {!r},
      "rank": {},
      "level": "{}",
      "tied": {}
    }}"""


def render_json(report: "AssessmentReport") -> str:
    """The report as ``json.dumps(..., indent=2)`` writes it, the areas from a row template.

    Names are escaped by the function json.dumps uses, and γ± and s are written
    by ``float.__repr__``, as json.dumps writes every finite float; each is
    finite, as ``superiority_degree`` refuses γ outside [0, 1]. Level labels are ASCII.
    """
    r = report.result
    areas = ",\n".join([
        _JSON_AREA.format(encode_basestring_ascii(name), gp, gn, s, rank, label,
                          "true" if tied else "false")
        for name, gp, gn, s, rank, label, tied in _rows(report)
    ])
    rest = {"config": r.config_echo, "fingerprint": report.fingerprint,
            "version": report.version, "duration_seconds": report.duration_seconds}
    return '{\n  "areas": [\n' + areas + "\n  ],\n" + json.dumps(rest, indent=2)[2:] + "\n"


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
    """Writes stage matrices of one run on ``inp`` to ``out_dir`` as CSVs; with
    ``out_dir`` None it writes nothing.

    Rows are labeled by index id and columns by period label. Volume-stage
    matrices are one cell smaller per axis; their rows and columns are labeled
    by the window's upper-left index id and period. A shared matrix is written
    to ``<name>.csv``, an area's to ``<slug>_<name>.csv``, where the slug is the
    lowered area name with a numeric suffix wherever two slugs would be equal.
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

    def shared(self, name: str, matrix: np.ndarray) -> None:
        """One (m, T) or (m-1, T-1) matrix of the whole run."""
        if self.out is not None:
            _write_matrix(self._path(name), matrix, *self.axes[matrix.shape])

    def per_area(self, name: str, matrices, first: int = 0) -> None:
        """One (m, T) or (m-1, T-1) matrix per area, taken from ``matrices`` in area order
        from area ``first`` on."""
        if self.out is None:
            return
        for slug, matrix in zip(itertools.islice(self.slugs, first, None), matrices):
            _write_matrix(self._path(f"{slug}_{name}"), matrix, *self.axes[matrix.shape])

    def _path(self, name: str) -> str:
        # a plain string: pathlib would intern every one of the 6n file names
        return os.path.join(self.out, f"{name}.csv")
