"""Output checks: parse a written report and compare it with the reference.

Every function returns a list of problems; an empty list means the output
is correct. Nothing here imports greyrisk.
"""

from __future__ import annotations

import csv
import io
import json
import re

import numpy as np

from reference import level_of

REFERENCE_TOL = 1e-12


def parse_report(text: str, fmt: str) -> list[dict]:
    """Rows of a text, json or csv report: name, gamma_pos, gamma_neg, superiority,
    rank, tied, level."""
    if fmt == "json":
        return [dict(a) for a in json.loads(text)["areas"]]
    if fmt == "csv":
        return [
            {"name": r["name"], "gamma_pos": float(r["gamma_pos"]),
             "gamma_neg": float(r["gamma_neg"]), "superiority": float(r["superiority"]),
             "rank": int(r["rank"]), "tied": r["tied"] == "true", "level": r["level"]}
            for r in csv.DictReader(io.StringIO(text))
        ]
    # text: columns are located by the dash rule under the header
    lines = text.splitlines()
    starts = [m.start() for m in re.finditer(r"-+", lines[1])]
    rows = []
    for line in lines[2:]:
        if line.startswith(("* ", "dataset ")):
            continue
        cells = [line[a:b].strip() for a, b in zip(starts, starts[1:] + [None])]
        name, gp, gn, s, rank, level = cells
        rows.append({"name": name, "gamma_pos": float(gp), "gamma_neg": float(gn),
                     "superiority": float(s), "rank": int(rank.rstrip("*")),
                     "tied": rank.endswith("*"), "level": level})
    return rows


def check_report(rows: list[dict], names: list[str], ref: dict,
                 duplicates: dict[str, str], decimals: int | None = None) -> list[str]:
    """Compare report rows with the reference scores of areas ``names``.

    ``decimals`` is the rounding of a text report; None means full precision.
    """
    problems = []
    got = [r["name"] for r in rows]
    if sorted(got) != sorted(names):
        return [f"report lists {len(got)} areas, expected the {len(names)} input areas"]
    rounding = 0.0 if decimals is None else 0.5 * 10.0**-decimals
    by_name = {r["name"]: r for r in rows}
    s_all = np.array([r["superiority"] for r in rows])
    for k, name in enumerate(names):
        r = by_name[name]
        for key in ("gamma_pos", "gamma_neg", "superiority"):
            if abs(r[key] - ref[key][k]) > REFERENCE_TOL + rounding:
                problems.append(f"{name}: {key} {r[key]!r} vs reference {float(ref[key][k])!r}")
        gp, gn, s = r["gamma_pos"], r["gamma_neg"], r["superiority"]
        if not 0.0 <= s <= 1.0 or abs(s - gp**2 / (gp**2 + gn**2)) > REFERENCE_TOL + 4 * rounding:
            problems.append(f"{name}: s {s!r} is not gamma+^2/(gamma+^2 + gamma-^2) in [0, 1]")
        if r["rank"] != 1 + int((s_all > s).sum()):
            problems.append(f"{name}: rank {r['rank']} is not 1 + the count of larger s")
        if r["tied"] != (int((s_all == s).sum()) > 1):
            problems.append(f"{name}: tie flag {r['tied']} disagrees with the reported s")
        if r["level"] != level_of(s):
            problems.append(f"{name}: level {r['level']!r}, thresholds give {level_of(s)!r}")
    for copy, original in duplicates.items():
        a, b = by_name[copy], by_name[original]
        if not (a["superiority"] == b["superiority"] and a["tied"] and b["tied"]):
            problems.append(f"copy {copy} is not tied with its original {original}")
    if [r["rank"] for r in rows] != sorted(r["rank"] for r in rows):
        problems.append("report rows are not in rank order")
    return problems[:20]

