"""Command-line surface.

Subcommands: table, yau-zaslow, gw, pairs, mnop-check, nl-demo, check.
Output formats: json (exact strings, schema in the README), csv (table,
yau-zaslow, gw, pairs only), pretty.
Exit codes: 0 success, 1 identity/assertion failure, 2 usage error.
A request whose KKV grid column or divisibility (gw and check --dmax, pairs
and mnop-check --d) exceeds MAX_GRID_COLUMN, whose nl-demo --mmax exceeds
MAX_NL_DIVISIBILITY, whose --umax exceeds MAX_U_ORDER, whose yau-zaslow
--hmax exceeds MAX_YAU_ZASLOW_ORDER, whose pairs --qmax exceeds MAX_Q_ORDER,
whose table --gmax exceeds MAX_GRID_COLUMN or whose check --cases exceeds
MAX_CHECK_CASES, is refused with exit 2 before any grid or series is built.
The KKV_LOG environment variable (debug/info/warning) controls verbosity.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import os
import sys
from csv import writer as csv_writer
from dataclasses import asdict
from random import Random

from . import checks
from .bps import BpsTable, gw_from_bps, sine_bracket_cache_info
from .jsonio import (
    grid_to_jsonable,
    matrix_to_jsonable,
    potential_to_jsonable,
    ratfn_to_jsonable,
    series_to_jsonable,
    vector_to_jsonable,
)
from .kkv import bps_grid_from_kkv, yau_zaslow_series
from .nl import ClassLabel, NlMatrix, combine, synthetic_k3_vectors, transfer_mnop
from .pairs import (
    HodgeLabel,
    PairsLedger,
    bps_table_from_grid,
    grid_column,
    mnop_check,
    multiple_cover,
    substitution_work_order,
)
from .rational import ratfn_expand

log = logging.getLogger("k3bps")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# Highest KKV grid column and highest divisibility a command may ask for, and
# highest --umax (the u-order `gw` reaches at column 200).  The grid costs
# about 0.2 s at column 200; the binding costs are elsewhere (2-core Intel
# Xeon, CPython 3.11): `check --dmax 200 --hmax 1` 21 s, `check --umax 402`
# 2.8 s, `gw --h 1 --dmax 200 --umax 402` 3.3 s, `mnop-check --d 14 --h 2
# --umax 402` 0.6 s, `pairs --d 200 --h 1` 1.3 s.
MAX_GRID_COLUMN = 200
MAX_U_ORDER = 2 * MAX_GRID_COLUMN + 2
# Highest yau-zaslow --hmax.  The series needs no grid; its cost is the
# divisor-sum recurrence, quadratic in --hmax on coefficients of up to 1200
# bits: `yau-zaslow --hmax 5000` takes about 2 s on the same host.
MAX_YAU_ZASLOW_ORDER = 5000
# Highest nl-demo --mmax.  At --hmax <= 1 no grid column bounds it, while the
# NL matrix spans every m <= --mmax and its rational pairs sums grow with it:
# `nl-demo --mmax 20 --hmax 1` takes about 11 s on the same host, nearly all
# in the integer remainder-sequence gcd of RationalFunction.linear_combination
# while `combine` builds the fibre pairs vector; the transfer that follows
# sums no rational functions and takes about 0.01 s.
MAX_NL_DIVISIBILITY = 20
# Highest pairs --qmax.  The expansion about q = 0 inverts the denominator
# series coefficient by coefficient on Fractions, so its cost grows about
# quadratically: `pairs --d 14 --h 2 --qmax 8000 --format json` takes about
# 3 s on the same host (0.4 s at 1000, 1.2 s at 4000), and every label up to
# column 200 costs about the same.
MAX_Q_ORDER = 8000
# Highest check --cases.  The randomized suites are linear in it: `check
# --cases 1000` takes about 1.9 s on the same host, 3.4 s with --umax 402.
MAX_CHECK_CASES = 1000


class UsageError(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


def _in_range(value: int, flag: str, lo: int, hi: int, note: str = "") -> None:
    _require(lo <= value <= hi, f"{flag} must be an integer from {lo} to {hi}{note}")


def _class_bounds(d: int, d_flag: str, h: int, h_flag: str, d_max: int) -> None:
    _in_range(d, d_flag, 1, d_max, ", the divisibility bound")
    _require(h >= 0, f"{h_flag} must be >= 0")


def _even_order(value: int, flag: str) -> None:
    _require(
        2 <= value <= MAX_U_ORDER and value % 2 == 0,
        f"{flag} must be an even integer from 2 to {MAX_U_ORDER}",
    )


def _emit(args, payload, pretty, csv=None) -> None:
    """Build and write the one form --format asks for, from thunks giving the
    JSON value, the pretty lines or the csv rows (header first)."""
    if args.format == "json":
        text = json.dumps(payload(), indent=2) + "\n"
    elif args.format == "csv":
        buffer = io.StringIO()
        csv_writer(buffer).writerows(csv())
        text = buffer.getvalue()
    else:
        text = "\n".join(pretty()) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    log.info("wrote %s", args.out)


def _series_rows(series) -> list[list]:
    return [["degree", "coefficient"]] + [[d, str(c)] for d, c in series.items()]


def _require_column(column: int, what: str) -> int:
    _require(
        column <= MAX_GRID_COLUMN,
        f"{what} needs KKV grid column {column}; the limit is {MAX_GRID_COLUMN}",
    )
    return column


def _grid_for_label(d: int, h: int, d_name: str = "d"):
    return bps_grid_from_kkv(_require_column(grid_column(d, h), f"({d_name}={d}, h={h})"))


# -- subcommands ---------------------------------------------------------------


def cmd_table(args) -> int:
    _require(args.hmax >= 0, "--hmax must be >= 0")
    column = _require_column(args.hmax, f"--hmax {args.hmax}")
    g_max = args.gmax if args.gmax is not None else args.hmax
    # rows above --hmax are zero, and --hmax stops at MAX_GRID_COLUMN
    _in_range(g_max, "--gmax", 0, MAX_GRID_COLUMN)
    table = grid_to_jsonable(bps_grid_from_kkv(column), g_max)
    cells = table["values"]  # rows by genus, columns by h, in every form
    width = max(len(cell) for row in cells for cell in row)
    _emit(
        args,
        lambda: table,
        lambda: ["BPS counts n_(g,h), rows by genus g, columns by h:"]
        + [
            f"  g={g}: " + "  ".join(cell.rjust(width) for cell in row)
            for g, row in enumerate(cells)
        ],
        lambda: [["g\\h"] + [str(h) for h in range(args.hmax + 1)]]
        + [[str(g)] + row for g, row in enumerate(cells)],
    )
    return EXIT_OK


def cmd_yau_zaslow(args) -> int:
    _in_range(args.hmax, "--hmax", 0, MAX_YAU_ZASLOW_ORDER)
    series = yau_zaslow_series(args.hmax)
    _emit(
        args,
        lambda: series_to_jsonable(series),
        lambda: ["prod (1-q^n)^-24 = " + str(series)],
        lambda: _series_rows(series),
    )
    return EXIT_OK


def cmd_gw(args) -> int:
    _class_bounds(args.dmax, "--dmax", args.h, "--h", MAX_GRID_COLUMN)
    if args.umax is not None:
        _even_order(args.umax, "--umax")
    if args.single_state:
        table = BpsTable.single_state()
    else:
        grid = _grid_for_label(args.dmax, args.h)
        table = bps_table_from_grid(grid, args.dmax, args.h)
    potential = gw_from_bps(table, args.dmax, args.umax)
    entries = sorted(potential.entries.items())

    _emit(
        args,
        lambda: potential_to_jsonable(potential),
        lambda: [f"Gromov-Witten potential, u-truncation {potential.u_truncation}:"]
        + [
            f"  N_(g={g}, d={d}) = {v}"
            for (g, d), v in sorted(entries, key=lambda kv: (kv[0][1], kv[0][0]))
        ]
        + ([] if entries else ["  (zero potential)"]),
        lambda: [["g", "d", "value"]] + [[g, d, str(v)] for (g, d), v in entries],
    )
    return EXIT_OK


def cmd_pairs(args) -> int:
    _class_bounds(args.d, "--d", args.h, "--h", MAX_GRID_COLUMN)
    _in_range(args.qmax, "--qmax", 0, MAX_Q_ORDER)
    grid = _grid_for_label(args.d, args.h)
    fn = multiple_cover(HodgeLabel(args.d, args.h), grid)
    expansion = ratfn_expand(fn, args.qmax)
    _emit(
        args,
        lambda: {
            "d": args.d,
            "h": args.h,
            "function": ratfn_to_jsonable(fn),
            "expansion": series_to_jsonable(expansion),
        },
        lambda: [
            f"stable pairs series for d={args.d}, h={args.h}:",
            f"  function:  {fn}",
            f"  expansion: {expansion}",
        ],
        lambda: _series_rows(expansion),
    )
    return EXIT_OK


def cmd_mnop_check(args) -> int:
    _class_bounds(args.d, "--d", args.h, "--h", MAX_GRID_COLUMN)
    _even_order(args.umax, "--umax")
    grid = _grid_for_label(args.d, args.h)
    ledger = PairsLedger(grid)
    report = mnop_check(HodgeLabel(args.d, args.h), grid, args.umax, ledger)

    def payload() -> dict:
        payload = {
            "d": args.d,
            "h": args.h,
            "u_order": args.umax,
            "work_order": substitution_work_order(ledger.imprimitive(args.d, args.h), args.umax),
            "equal": report.equal,
            "gw_series": series_to_jsonable(report.lhs),
            "pairs_series": series_to_jsonable(report.rhs),
        }
        if report.first_mismatch:
            degree, a, b = report.first_mismatch
            payload["first_mismatch"] = {"degree": degree, "gw": str(a), "pairs": str(b)}
        return payload

    def pretty() -> list[str]:
        lines = [
            f"local MNOP check at d={args.d}, h={args.h}, u-order {args.umax}:",
            f"  GW side:    {report.lhs}",
            f"  pairs side: {report.rhs}",
            f"  equal: {report.equal}",
        ]
        if report.first_mismatch:
            degree, a, b = report.first_mismatch
            lines.append(f"  first mismatch at u^{degree}: {a} vs {b}")
        return lines

    _emit(args, payload, pretty)
    return EXIT_OK if report.equal else EXIT_FAIL


def _demo_labels(m_max: int, h_max: int) -> list[ClassLabel]:
    labels = []
    for m in range(1, m_max + 1):
        for h0 in range(h_max + 1):
            h = HodgeLabel(m, h0).square_label(m)
            if h >= 0:
                labels.append(ClassLabel(m, h))
    return labels


def cmd_nl_demo(args) -> int:
    _class_bounds(args.mmax, "--mmax", args.hmax, "--hmax", MAX_NL_DIVISIBILITY)
    _even_order(args.umax, "--umax")
    grid = _grid_for_label(args.mmax, args.hmax, "m")
    rng = Random(args.seed)
    labels = _demo_labels(args.mmax, args.hmax)
    ledger = PairsLedger(grid)
    gw_vec, pairs_vec = synthetic_k3_vectors(labels, grid, args.umax, ledger)
    rows = [f"beta{i}" for i in range(len(labels))]
    make = NlMatrix.upper_triangular_unit if args.triangular else NlMatrix.random_invertible
    nl = make(rows, labels, rng)
    fib_gw = combine(gw_vec, nl)
    fib_pairs = combine(pairs_vec, nl)
    report = transfer_mnop(fib_gw, fib_pairs, nl, args.umax)
    _emit(
        args,
        lambda: {
            "labels": [[lab.m, lab.h] for lab in labels],
            "matrix": matrix_to_jsonable(nl),
            "fibre_gw": vector_to_jsonable(fib_gw),
            "fibre_pairs": vector_to_jsonable(fib_pairs),
            "transfer_ok": report.ok,
            "failures": [str(f) for f in report.failures],
        },
        lambda: [
            f"synthetic K3 fibration over {len(labels)} classes "
            f"(seed {args.seed}, {'triangular' if args.triangular else 'random'} matrix):",
            "  labels: " + ", ".join(f"(m={lab.m}, h={lab.h})" for lab in labels),
            f"  transfer of the MNOP identity: {'consistent' if report.ok else 'FAILED'}",
        ]
        + [f"  failure: {failure}" for failure in report.failures],
    )
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_check(args) -> int:
    _even_order(args.umax, "--umax")
    _class_bounds(args.dmax, "--dmax", args.hmax, "--hmax", MAX_GRID_COLUMN)
    _in_range(args.cases, "--cases", 1, MAX_CHECK_CASES)
    d_max, h_max = checks.mnop_sweep(args.dmax, args.hmax, args.quick)
    _require_column(grid_column(d_max, h_max), f"the MNOP sweep to (d={d_max}, h={h_max})")
    results = checks.run_all(
        u_order=args.umax,
        mnop_d_max=args.dmax,
        mnop_h_max=args.hmax,
        cases=args.cases,
        seed=args.seed,
        inject_fault=args.inject_fault,
        quick=args.quick,
    )
    failed = [result for result in results if not result.ok]
    cache = sine_bracket_cache_info()
    _emit(
        args,
        lambda: {
            "ok": not failed,
            "checks": [asdict(result) for result in results],
            "caches": {"sine_bracket": {"hits": cache.hits, "misses": cache.misses}},
        },
        lambda: [result.line() for result in results]
        + [
            f"{len(results) - len(failed)}/{len(results)} checks passed"
            + (f"; first failure: {failed[0].name}" if failed else "")
        ],
    )
    return EXIT_OK if not failed else EXIT_FAIL


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3bps",
        description="Exact BPS/Gromov-Witten/stable-pairs series for K3 fibre classes.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "pretty"), default="pretty", help="output format"
    )
    common.add_argument("--out", metavar="PATH", default=None, help="write output to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help_text: str, csv: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=func, csv=csv)
        return p

    p = command("table", cmd_table, "emit the BPS grid n_(g,h)", csv=True)
    p.add_argument("--hmax", type=int, default=4)
    p.add_argument("--gmax", type=int, default=None)

    p = command("yau-zaslow", cmd_yau_zaslow, "emit the genus-0 series prod (1-q^n)^-24", csv=True)
    p.add_argument("--hmax", type=int, default=10)

    p = command("gw", cmd_gw, "emit the Gromov-Witten potential of a BPS table", csv=True)
    p.add_argument("--h", type=int, default=0, help="square label of the primitive class")
    p.add_argument("--dmax", type=int, default=3)
    p.add_argument("--umax", type=int, default=None)
    p.add_argument(
        "--single-state",
        action="store_true",
        help="use the one-state table of an isolated rational curve instead of KKV data",
    )

    p = command("pairs", cmd_pairs, "emit a stable-pairs rational function", csv=True)
    p.add_argument("--h", type=int, default=0, help="square label of the primitive class")
    p.add_argument("--d", type=int, default=1, help="divisibility of the class")
    p.add_argument("--qmax", type=int, default=10, help="expansion order about q = 0")

    p = command("mnop-check", cmd_mnop_check, "compare the GW and pairs sides at one class")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--h", type=int, default=0)
    p.add_argument("--umax", type=int, default=12)

    p = command("nl-demo", cmd_nl_demo, "synthetic Noether-Lefschetz transfer demo")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mmax", type=int, default=2)
    p.add_argument("--hmax", type=int, default=2, help="square label bound for the primitive part")
    p.add_argument("--umax", type=int, default=8)
    p.add_argument("--triangular", action="store_true", help="unit upper-triangular matrix")

    p = command("check", cmd_check, "run the full identity suite")
    p.add_argument("--umax", type=int, default=12)
    p.add_argument("--dmax", type=int, default=3, help="MNOP sweep divisibility bound")
    p.add_argument("--hmax", type=int, default=3, help="MNOP sweep square-label bound")
    p.add_argument("--cases", type=int, default=100, help="cases per randomized suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true", help="smaller bounds for a fast pass")
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="test mode: corrupt one pairs coefficient and prove the suite catches it",
    )
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("KKV_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if args.format == "csv" and not args.csv:
            raise UsageError(f"{args.command} supports --format json or pretty, not csv")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, ValueError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
