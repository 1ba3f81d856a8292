"""Command line interface.

Subcommands: assess (run a dataset), validate (check a dataset), demo (run
the bundled case). Exit codes: 0 success, 1 validation failure, 2 I/O or
parse failure, 3 degenerate computation.
"""

from __future__ import annotations

import argparse
import sys

from . import io as gio
from ._meta import VERSION
from .incidence import ZeroingMode
from .model import ValidationError
from .pipeline import MAX_REPORT_DECIMALS, RunConfig, load_bundled_case, run_assessment
from .ranking import DegenerateAssessmentError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_DEGENERATE = 3

def _decimals(value: str) -> int:
    try:
        n = int(value)
    except ValueError:  # argparse would name this function in its message
        raise argparse.ArgumentTypeError(
            f"must be an integer in [0, {MAX_REPORT_DECIMALS}], got {value!r}") from None
    if not 0 <= n <= MAX_REPORT_DECIMALS:
        raise argparse.ArgumentTypeError(f"must lie in [0, {MAX_REPORT_DECIMALS}]")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greyrisk",
        description="Rank assessed areas by dynamic multi-criteria risk.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    assess = sub.add_parser("assess", help="run an assessment on a dataset")
    assess.add_argument("--input", required=True, help="dataset file, or csv-bundle or npy-bundle directory")
    assess.add_argument(
        "--input-format", choices=gio.INPUT_FORMATS, default=None,
        help="dataset format (default: npy-bundle for directories holding values.npy, "
             "csv-bundle for other directories, json otherwise)",
    )
    assess.add_argument("--format", choices=gio.REPORT_FORMATS, default=RunConfig.output_format,
                        help="report format (default: %(default)s)")
    assess.add_argument("--output", default=None, help="report destination (default: stdout)")
    assess.add_argument("--trace-dir", default=None,
                        help="directory for intermediate-matrix CSVs")
    assess.add_argument("--zeroing", choices=[m.value for m in ZeroingMode],
                        default=RunConfig.zeroing_mode.value,
                        help="re-basing applied before volume computation")
    assess.add_argument("--decimals", type=_decimals, default=RunConfig.report_decimals,
                        help=f"decimals in the text report, 0-{MAX_REPORT_DECIMALS} "
                             "(default: %(default)s)")

    validate = sub.add_parser("validate", help="check a dataset without running it")
    validate.add_argument("--input", required=True)
    validate.add_argument("--input-format", choices=gio.INPUT_FORMATS, default=None)

    demo = sub.add_parser("demo", help="run the bundled three-area case dataset")
    demo.add_argument("--trace-dir", default=None,
                      help="directory for intermediate-matrix CSVs")

    return parser


# built once, at import: a parser built per call is cyclic garbage, which holds
# its memory through the call until the collector happens to run
_PARSER = build_parser()


def _cmd_assess(args) -> int:
    inp = gio.load_input(args.input, args.input_format)
    config = RunConfig(
        zeroing_mode=args.zeroing,
        report_decimals=args.decimals,
        trace_dir=args.trace_dir,
        output_format=args.format,
    )
    report = run_assessment(inp, config)
    del inp  # rendering needs only the report; at 5000 areas the input set the call's peak
    gio.emit_report(report, config, args.output)
    return EXIT_OK


def _cmd_validate(args) -> int:
    n, m, T = gio.load_input(args.input, args.input_format).values.shape
    print(f"OK: {n} areas, {m} indices, {T} periods")
    return EXIT_OK


def _cmd_demo(args) -> int:
    config = RunConfig(trace_dir=args.trace_dir)
    report = run_assessment(load_bundled_case(), config)
    gio.emit_report(report, config)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    handlers = {"assess": _cmd_assess, "validate": _cmd_validate, "demo": _cmd_demo}
    try:
        return handlers[args.command](args)
    except ValidationError as exc:
        print("validation failed:", file=sys.stderr)
        for err in exc.errors:
            print(f"  - {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (gio.InputFormatError, OSError, UnicodeEncodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DegenerateAssessmentError as exc:
        print(f"degenerate computation: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
