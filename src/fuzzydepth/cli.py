"""Command-line interface.

Three subcommands: ``depth`` evaluates one depth method over a CSV dataset
and prints a table, CSV or JSON report; ``plot`` writes an SVG of the
membership functions colored by depth rank; ``verify`` runs the built-in
axiom suite against its expected verdicts.

Exit codes: 0 on success, 1 on data errors (and on unexpected verify
verdicts), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dataset import parse_dataset, records_frv
from .depths import DEPTH_METHODS, DepthConfig, depth_table
from .exceptions import FuzzyDepthError
from .fuzzyset import DEFAULT_N_ALPHA, MAX_N_ALPHA, check_n_alpha
from .report import emit_report, emit_svg, format_table
from .verification import emit_rows_json, format_rows, run_suite


def _alpha_grid(text):
    try:
        return check_n_alpha(int(text))
    except (ValueError, FuzzyDepthError):
        raise argparse.ArgumentTypeError(
            f"expected an integer from 1 to {MAX_N_ALPHA}, got {text!r}"
        ) from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fuzzydepth",
        description="Depth statistics for trapezoidal fuzzy datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="CSV file: id,a,b,c,d,frequency")
    common.add_argument(
        "--method",
        required=True,
        choices=sorted(m.replace("_", "-") for m in DEPTH_METHODS),
        help="depth method to evaluate",
    )
    common.add_argument("--r", type=float, default=1.0, help="exponent r >= 1 (default 1)")
    common.add_argument("--theta", type=float, default=None, help="spread weight (location methods)")
    common.add_argument(
        "--alpha-grid",
        type=_alpha_grid,
        default=DEFAULT_N_ALPHA,
        metavar="N",
        help=(
            "alpha grid size for the projection supremum, at most "
            f"{MAX_N_ALPHA} (default {DEFAULT_N_ALPHA})"
        ),
    )

    p_depth = sub.add_parser("depth", parents=[common], help="rank a dataset by depth")
    p_depth.add_argument(
        "--format",
        choices=["csv", "json"],
        default=None,
        help="machine-readable output (default: console table)",
    )

    p_plot = sub.add_parser("plot", parents=[common], help="write an SVG of the dataset")
    p_plot.add_argument("--output", required=True, help="SVG file to write")

    p_verify = sub.add_parser("verify", help="run the axiom suite against expectations")
    p_verify.add_argument(
        "--suite",
        choices=["all", "p1", "p2", "p3", "p4"],
        default="all",
        help="restrict to one axiom group",
    )
    p_verify.add_argument("--seed", type=int, default=0, help="seed for the randomized cases")
    p_verify.add_argument(
        "--format",
        choices=["json"],
        default=None,
        help="one JSON document with every verdict and its witness (default: text lines)",
    )
    return parser


def _load_table(args):
    text = Path(args.input).read_text(encoding="utf-8")
    records = parse_dataset(text)
    x, queries, ids = records_frv(records)
    config = DepthConfig(args.method.replace("-", "_"), args.r, args.theta, args.alpha_grid)
    return records, depth_table(x, queries=queries, config=config, ids=ids)


def cmd_depth(args):
    _, report = _load_table(args)
    if args.format is None:
        sys.stdout.write(format_table(report))
    else:
        sys.stdout.write(emit_report(report, format=args.format))
    return 0


def cmd_plot(args):
    records, report = _load_table(args)
    Path(args.output).write_text(emit_svg(records, report), encoding="utf-8")
    sys.stdout.write(f"wrote {args.output}\n")
    return 0


def cmd_verify(args):
    rows, ok = run_suite(suite=args.suite, seed=args.seed)
    if args.format == "json":
        sys.stdout.write(emit_rows_json(rows))
    else:
        for line in format_rows(rows):
            sys.stdout.write(line + "\n")
        matched = sum(1 for _, _, m in rows if m)
        sys.stdout.write(f"{matched}/{len(rows)} verdicts as expected\n")
    return 0 if ok else 1


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("depth", "plot"):
        needs_theta = args.method in ("location", "location-raised")
        if needs_theta and args.theta is None:
            parser.error(f"method {args.method!r} requires --theta")
        if not needs_theta and args.theta is not None:
            parser.error(f"method {args.method!r} does not accept --theta")
    handlers = {"depth": cmd_depth, "plot": cmd_plot, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except (FuzzyDepthError, OSError, UnicodeDecodeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
