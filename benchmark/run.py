"""Benchmark of greyrisk, driven through its public entry points.

    python3 benchmark/run.py --workload regional-benefit --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --seed 1 --seconds 20     # every workload, untraced and traced

greyrisk is imported from the checkout's src/, so the run always measures
the sources next to it. The load is a closed loop in one thread: each call
starts when the previous one has returned. The last line of standard output
is one JSON object with correct, attempted, failed and metrics: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

# One thread, set before numpy loads: greyrisk never uses the BLAS pool, and
# the pool's start-up makes import time vary with the load of the other cores.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import check  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 7   # fresh interpreters per run for setup_s
MIN_ROUNDS = 3      # timed rounds per run, however short --seconds is

_IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                 "import greyrisk.cli; print(time.perf_counter() - t)")


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def import_greyrisk():
    """Import greyrisk from the checkout's src/; exit with an error when it is not there."""
    if not (SRC / "greyrisk" / "__init__.py").is_file():
        sys.exit(f"benchmark: no greyrisk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import greyrisk
    import greyrisk.cli  # noqa: F401
    if Path(greyrisk.__file__).resolve().parent != SRC / "greyrisk":
        sys.exit(f"benchmark: greyrisk was imported from {greyrisk.__file__}, not {SRC}")
    return greyrisk


def measure_setup() -> float:
    """Median time for a fresh interpreter to import greyrisk.cli from src/.

    One extra import first lets the interpreter write its bytecode cache.
    """
    times = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times[1:])


class Assessor:
    """Runs `greyrisk assess` on one dataset and checks the report the last call wrote."""

    def __init__(self, greyrisk, ds: workloads.Dataset, work: Path, names: list[str], ref: dict):
        self.greyrisk, self.ds, self.names, self.ref = greyrisk, ds, names, ref
        self.report = work / f"report.{ds.report_format}"
        self.argv = ["assess", "--input", str(ds.input_path), "--input-format", ds.input_format,
                     "--format", ds.report_format, "--decimals", str(ds.decimals),
                     "--output", str(self.report)]

    def __call__(self) -> tuple[float, bool]:
        """One timed call: (seconds, whether it succeeded)."""
        start = perf_counter()
        try:
            ok = self.greyrisk.cli.main(self.argv) == 0
        except Exception:
            traceback.print_exc()
            ok = False
        return perf_counter() - start, ok

    def check_written(self) -> list[str]:
        """Problems in the report written by the last call."""
        ds = self.ds
        rows = check.parse_report(self.report.read_text(encoding="utf-8"), ds.report_format)
        decimals = ds.decimals if ds.report_format == "text" else None
        return check.check_report(rows, self.names, self.ref, ds.duplicates, decimals)

    def check_run(self, report) -> list[str]:
        """Problems in an in-memory report of run_assessment."""
        rows = [{"name": a.name, "gamma_pos": a.gamma_pos, "gamma_neg": a.gamma_neg,
                 "superiority": a.superiority, "rank": a.rank, "tied": a.tied,
                 "level": a.level.label} for a in report.result.areas]
        return check.check_report(rows, self.names, self.ref, self.ds.duplicates)


def rounds(seconds: float):
    """Yield round numbers until `seconds` have passed and MIN_ROUNDS are done."""
    deadline = perf_counter() + seconds
    k = 0
    while k < MIN_ROUNDS or perf_counter() < deadline:
        yield k
        k += 1


def measure_end_to_end(assess: Assessor, seconds: float, problems: list[str]) -> tuple:
    """Untraced rounds of one assess call and one run_assessment call each."""
    greyrisk, ds = assess.greyrisk, assess.ds
    inp = greyrisk.load_input(ds.input_path, ds.input_format)
    config = greyrisk.RunConfig(
        zeroing_mode=greyrisk.ZeroingMode.FIRST_COLUMN, report_decimals=ds.decimals,
        output_format=ds.report_format)
    tracemalloc.start()
    ok = assess()[1]
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    problems += assess.check_written() if ok else ["first assess call failed"]

    assess_times, run_times, failed, result = [], [], 0, None
    for _ in rounds(seconds):
        dt, ok = assess()
        assess_times.append(dt)
        failed += not ok
        start = perf_counter()
        try:
            result = greyrisk.run_assessment(inp, config)
        except Exception:
            traceback.print_exc()
            failed += 1
        run_times.append(perf_counter() - start)
    problems += assess.check_written()
    if result is not None:
        problems += assess.check_run(result)
    metrics = {"assess_s": statistics.median(assess_times),
               "run_s": statistics.median(run_times),
               "peak_mem_mb": peak / 1e6, "setup_s": measure_setup()}
    return metrics, 2 * len(assess_times), failed


def measure_layers(assess: Assessor, seconds: float, problems: list[str], spans_path: Path):
    """Traced rounds of one assess call each; per-layer metrics per call."""
    ok = assess()[1]
    problems += assess.check_written() if ok else ["first assess call failed"]
    tracer = Tracer()
    tracer.install()
    times, layers, failed = [], [], 0
    for _ in rounds(seconds):
        first = tracer.mark()
        dt, ok = assess()
        times.append(dt)
        failed += not ok
        layers.append(tracer.metrics(first, len(tracer.spans)))
    problems += assess.check_written()
    tracer.write(spans_path)
    metrics = {}
    for key, unit in metric_units("per_layer").items():
        values = [layer[key] for layer in layers]
        if unit == "s":
            metrics[key] = statistics.median(values)
        else:
            if len(set(values)) > 1:
                print(f"benchmark: count {key} varies between calls: {sorted(set(values))}",
                      file=sys.stderr)
            metrics[key] = values[0]
    print(f"traced assess_s {statistics.median(times)!r} s over {len(times)} calls")
    return metrics, len(times), failed


def run_workload(greyrisk, name: str, seed: int, seconds: float, traced: bool) -> dict:
    problems = []
    try:
        reference.self_check(SRC / "greyrisk" / "data" / "wui-case.json")
    except AssertionError as exc:
        problems.append(f"reference self-check: {exc}")
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{name}-") as tmp:
        ds, doc = workloads.BUILDERS[name](seed, Path(tmp), ROOT)
        # the document is dropped before timing, so it does not add to the
        # garbage collector's work in the measured calls
        assess = Assessor(greyrisk, ds, Path(tmp), *reference.from_document(doc))
        del doc
        if traced:
            metrics, attempted, failed = measure_layers(
                assess, seconds, problems, WORK / f"spans-{name}-seed{seed}.csv")
        else:
            metrics, attempted, failed = measure_end_to_end(assess, seconds, problems)
    units = metric_units("per_layer" if traced else "end_to_end")
    for p in problems:
        print(f"benchmark: incorrect output: {p}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced then traced, each in its own interpreter."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.BUILDERS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            print(f"{name}  trace={trace}  correct={result['correct']}  "
                  f"attempted={result['attempted']}  failed={result['failed']}")
            for key, m in result["metrics"].items():
                print(f"    {key:30s} {m['value']:.6g} {m['unit']}")
                total["metrics"][f"{name}/{key}"] = m
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["all", *workloads.BUILDERS], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    greyrisk = import_greyrisk()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_workload(greyrisk, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
