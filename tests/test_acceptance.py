"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on a green run.
"""

import csv
import re
import time
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from greyrisk import (
    Orientation,
    RiskLevel,
    RunConfig,
    ZeroingMode,
    classify,
    load_input,
    local_volume,
    run_assessment,
    superiority_degree,
)
from greyrisk.io import compute_fingerprint
from greyrisk.pipeline import load_bundled_case

from conftest import input_to_dict, input_to_json, make_input, standardized
from oracle import objective_H
from test_incidence import family, volume_by_integration
from test_weighting import weighted_and_ideals

README = Path(__file__).resolve().parents[1] / "README.md"

# published reference values for the bundled three-area case
CASE_GAMMA_POS = (0.89, 0.92, 0.96)
CASE_GAMMA_NEG = (0.97, 0.93, 0.89)
GAMMA_TOLERANCE = 0.05


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {num} PASS: {description}")


def test_criterion_1_superiority_closed_form():
    with criterion(1, "closed-form superiority degree on the published pairs"):
        pairs = ((0.89, 0.97, 0.457), (0.92, 0.93, 0.495), (0.96, 0.89, 0.538))
        for gp, gn, expected in pairs:
            s = superiority_degree(gp, gn)
            assert round(s, 3) == expected
            assert f"{s:.3f}" == f"{expected:.3f}"


def test_criterion_2_case_study_end_to_end(bundled_input):
    with criterion(2, "bundled case reproduces the published ranking and levels"):
        t0 = time.perf_counter()
        report = run_assessment(bundled_input)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"the bundled case took {elapsed:.2f}s"

        assert [a.name for a in report.result.areas] == ["area3", "area2", "area1"]
        assert all(a.level is RiskLevel.MEDIUM for a in report.result.areas)

        by_name = {a.name: a for a in report.result.areas}
        deviations = []
        for k, name in enumerate(("area1", "area2", "area3")):
            deviations.append(abs(by_name[name].gamma_pos - CASE_GAMMA_POS[k]))
            deviations.append(abs(by_name[name].gamma_neg - CASE_GAMMA_NEG[k]))
        if max(deviations) > GAMMA_TOLERANCE:
            # degraded form of the criterion: ranking and levels must be exact
            # (asserted above) and the deviation must be documented in the
            # README with a sensitivity table across all three zeroing modes
            text = README.read_text(encoding="utf-8").lower()
            assert "sensitivity" in text
            for mode in ZeroingMode:
                assert mode.value in text, f"README lacks {mode.value} sensitivity entry"


def test_criterion_3_volume_oracle():
    with criterion(3, "local volumes match numerical integration on 200 random matrices"):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(200):
            shape = (rng.integers(2, 11), rng.integers(2, 11))
            z = rng.uniform(-10.0, 10.0, shape)
            direct = local_volume(z)
            integrated = volume_by_integration(z)
            worst = max(worst, float(np.abs(direct - integrated).max()))
        assert worst <= 1e-9, f"worst deviation {worst:.2e}"


def test_criterion_4_optimizer_minimality():
    with criterion(4, "closed form minimizes the objective against 1000 perturbations"):
        rng = np.random.default_rng(7)
        gp = rng.uniform(1e-9, 1.0, 500)
        gn = rng.uniform(1e-9, 1.0, 500)
        s_star = gp**2 / (gp**2 + gn**2)
        h_star = ((1 - s_star) * gp) ** 2 + (s_star * gn) ** 2
        perturbed = rng.uniform(0.0, 1.0, (500, 1000))
        h_pert = ((1 - perturbed) * gp[:, None]) ** 2 + (perturbed * gn[:, None]) ** 2
        assert (h_star[:, None] <= h_pert).all()
        # spot check the vectorized objective against the direct evaluation
        k = int(rng.integers(0, 500))
        assert objective_H([s_star[k]], [gp[k]], [gn[k]]) == pytest.approx(h_star[k])


def _random_mixed_input(rng):
    n = int(rng.integers(2, 5))
    m = int(rng.integers(2, 6))
    T = int(rng.integers(2, 6))
    kinds = [Orientation("benefit"), Orientation("cost"), Orientation("intermediate"),
             Orientation("interval", -5.0, 5.0)]
    mats = [rng.uniform(-20.0, 20.0, (m, T)) for _ in range(n)]
    return make_input(mats, orientations=[kinds[j % 4] for j in range(m)])


def test_criterion_5_property_suites():
    rng = np.random.default_rng(99)

    with criterion(5, "randomized property suite"):
        # standardized range over mixed orientations
        for _ in range(40):
            b = standardized(_random_mixed_input(rng))
            assert ((b >= 0.0) & (b <= 1.0)).all()

        # cost = 1 - benefit exactly
        for _ in range(200):
            mats = [rng.uniform(-100.0, 100.0, (2, 3)) for _ in range(2)]
            benefit = standardized(make_input(mats, orientations=[Orientation("benefit")] * 2))
            cost = standardized(make_input(mats, orientations=[Orientation("cost")] * 2))
            assert (cost == 1.0 - benefit).all()

        # ideal dominance
        for _ in range(40):
            cs, pos, neg = weighted_and_ideals(rng.uniform(0.0, 1.0, (4, 4, 3)),
                                               rng.uniform(0.1, 1.0, 4), rng.uniform(0.1, 1.0, 3))
            for c in cs:
                assert (neg <= c).all() and (c <= pos).all()

        # self-incidence is exactly one
        for mode in ZeroingMode:
            for _ in range(20):
                ref = rng.uniform(-5.0, 5.0, (3, 4))
                other = rng.uniform(-5.0, 5.0, (3, 4))
                res = family(ref, [ref.copy(), other], mode)
                assert res.degrees[0] == 1.0

        # degree invariance under common positive scaling and translation
        for _ in range(20):
            mats = [rng.uniform(-5.0, 5.0, (3, 4)) for _ in range(4)]
            alpha = float(rng.uniform(0.1, 50.0))
            shift = float(rng.uniform(-50.0, 50.0))
            for mode in ZeroingMode:
                base = family(mats[0], mats[1:], mode)
                scaled = family(alpha * mats[0], [alpha * f for f in mats[1:]], mode)
                np.testing.assert_allclose(scaled.degrees, base.degrees, atol=1e-8)
            for mode in (ZeroingMode.FIRST_COLUMN, ZeroingMode.FIRST_ELEMENT):
                base = family(mats[0], mats[1:], mode)
                moved = family(mats[0] + shift, [f + shift for f in mats[1:]], mode)
                np.testing.assert_allclose(moved.degrees, base.degrees, atol=1e-8)

        # classification monotonicity
        degrees = np.sort(rng.uniform(0.0, 1.0, 200))
        assert (np.diff(classify(degrees)) >= 0).all()

        # area-order invariance of the full pipeline
        for _ in range(10):
            mats = [rng.uniform(0.0, 50.0, (4, 3)) for _ in range(4)]
            inp = make_input(mats)
            perm = rng.permutation(4)
            shuffled = make_input([mats[k] for k in perm],
                                  names=[f"area{k + 1}" for k in perm])
            base = {a.name: a for a in run_assessment(inp).result.areas}
            moved = {a.name: a for a in run_assessment(shuffled).result.areas}
            for name in base:
                assert moved[name].superiority == base[name].superiority
                assert moved[name].rank == base[name].rank
                assert moved[name].level is base[name].level


def test_criterion_6_classification_fixtures():
    with criterion(6, "classification fixtures"):
        assert classify(0.3) == RiskLevel.SLIGHTLY_LOW
        assert classify(0.46) == RiskLevel.MEDIUM
        assert classify(0.1) == RiskLevel.EXTREMELY_LOW
        assert classify(0.95) == RiskLevel.EXTREMELY_HIGH


def test_criterion_7_io_round_trip_and_trace(tmp_path):
    with criterion(7, "lossless json round trip and 22 trace files with correct shapes"):
        original = load_bundled_case()
        path = tmp_path / "case.json"
        path.write_text(input_to_json(original))
        assert input_to_dict(load_input(path)) == input_to_dict(original)

        run_assessment(original, RunConfig(trace_dir=tmp_path / "trace"))
        files = list((tmp_path / "trace").iterdir())
        assert len(files) == 22
        shapes = {"full": 0, "window": 0}
        for f in files:
            with open(f, newline="") as fh:
                rows = list(csv.reader(fh))
            shape = (len(rows) - 1, len(rows[1]) - 1)
            if shape == (15, 6):
                shapes["full"] += 1
            elif shape == (14, 5):
                shapes["window"] += 1
            else:
                raise AssertionError(f"{f.name}: unexpected shape {shape}")
        assert shapes == {"full": 8, "window": 14}


def test_readme_library_examples_run_on_the_bundled_case(capsys, tmp_path, monkeypatch):
    """README's fenced python blocks, run in turn in an empty directory with "data.json"
    the bundled case's file; the first writes it as an npy bundle."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 3
    monkeypatch.chdir(tmp_path)
    namespace = {}
    with resources.as_file(resources.files("greyrisk").joinpath("data/wui-case.json")) as path:
        for block in blocks:
            exec(block.replace('"data.json"', repr(str(path))), namespace)
    written = load_input(tmp_path / "data-npy")
    assert compute_fingerprint(written) == compute_fingerprint(load_bundled_case())
    assert namespace["gamma_pos"].shape == (3,)
    report = run_assessment(load_bundled_case())
    by_name = dict(zip(report.result.names, report.result.gamma_pos))
    assert namespace["gamma_pos"].tolist() == [by_name[f"area{k}"] for k in (1, 2, 3)]
    assert capsys.readouterr().out.split()[:2] == ["area3", "1"]
