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
import csv
import io
import json
import logging
import os
import sys
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
from .rational import check_q_inversion_symmetry, ratfn_expand

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


def _even_order(value: int, flag: str) -> None:
    _require(
        2 <= value <= MAX_U_ORDER and value % 2 == 0,
        f"{flag} must be an even integer from 2 to {MAX_U_ORDER}",
    )


def _divisibility(value: int, flag: str, limit: int = MAX_GRID_COLUMN) -> None:
    _require(
        1 <= value <= limit,
        f"{flag} must be an integer from 1 to {limit}, the divisibility bound",
    )


def _no_csv(args) -> None:
    _require(args.format != "csv", f"{args.command} supports --format json or pretty, not csv")


def _write(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
        log.info("wrote %s", args.out)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload) -> None:
    _write(args, json.dumps(payload, indent=2) + "\n")


def _emit_csv(args, header, rows) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    if header:
        writer.writerow(header)
    writer.writerows(rows)
    _write(args, buffer.getvalue())


def _emit_pretty(args, lines) -> None:
    _write(args, "\n".join(lines) + "\n")


def _require_column(column: int, what: str) -> int:
    _require(
        column <= MAX_GRID_COLUMN,
        f"{what} needs KKV grid column {column}; the limit is {MAX_GRID_COLUMN}",
    )
    return column


def _grid_for_label(d: int, h: int):
    return bps_grid_from_kkv(_require_column(grid_column(d, h), f"(d={d}, h={h})"))


# -- subcommands ---------------------------------------------------------------


def cmd_table(args) -> int:
    _require(args.hmax >= 0, "--hmax must be >= 0")
    column = _require_column(args.hmax, f"--hmax {args.hmax}")
    g_max = args.gmax if args.gmax is not None else args.hmax
    # rows above --hmax are zero, and --hmax stops at MAX_GRID_COLUMN
    _require(
        0 <= g_max <= MAX_GRID_COLUMN, f"--gmax must be an integer from 0 to {MAX_GRID_COLUMN}"
    )
    grid = bps_grid_from_kkv(column)
    if args.format == "json":
        _emit_json(args, grid_to_jsonable(grid, g_max))
    elif args.format == "csv":
        header = ["g\\h"] + [str(h) for h in range(args.hmax + 1)]
        rows = [
            [str(g)] + [str(grid.value(g, h)) for h in range(args.hmax + 1)]
            for g in range(g_max + 1)
        ]
        _emit_csv(args, header, rows)
    else:
        width = max(
            len(str(grid.value(g, h)))
            for g in range(g_max + 1)
            for h in range(args.hmax + 1)
        )
        lines = ["BPS counts n_(g,h), rows by genus g, columns by h:"]
        for g in range(g_max + 1):
            cells = [str(grid.value(g, h)).rjust(width) for h in range(args.hmax + 1)]
            lines.append(f"  g={g}: " + "  ".join(cells))
        _emit_pretty(args, lines)
    return EXIT_OK


def cmd_yau_zaslow(args) -> int:
    _require(
        0 <= args.hmax <= MAX_YAU_ZASLOW_ORDER,
        f"--hmax must be an integer from 0 to {MAX_YAU_ZASLOW_ORDER}",
    )
    series = yau_zaslow_series(args.hmax)
    if args.format == "json":
        _emit_json(args, series_to_jsonable(series))
    elif args.format == "csv":
        _emit_csv(
            args, ["degree", "coefficient"], [[d, str(c)] for d, c in series.items()]
        )
    else:
        _emit_pretty(args, ["prod (1-q^n)^-24 = " + str(series)])
    return EXIT_OK


def cmd_gw(args) -> int:
    _divisibility(args.dmax, "--dmax")
    _require(args.h >= 0, "--h must be >= 0")
    if args.umax is not None:
        _even_order(args.umax, "--umax")
    if args.single_state:
        table = BpsTable.single_state()
    else:
        grid = _grid_for_label(args.dmax, args.h)
        table = bps_table_from_grid(grid, args.dmax, args.h)
    potential = gw_from_bps(table, args.dmax, args.umax)
    if args.format == "json":
        _emit_json(args, potential_to_jsonable(potential))
    elif args.format == "csv":
        rows = [[g, d, str(v)] for (g, d), v in sorted(potential.entries.items())]
        _emit_csv(args, ["g", "d", "value"], rows)
    else:
        lines = [f"Gromov-Witten potential, u-truncation {potential.u_truncation}:"]
        for (g, d), v in sorted(potential.entries.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            lines.append(f"  N_(g={g}, d={d}) = {v}")
        if not potential.entries:
            lines.append("  (zero potential)")
        _emit_pretty(args, lines)
    return EXIT_OK


def cmd_pairs(args) -> int:
    _divisibility(args.d, "--d")
    _require(args.h >= 0, "--h must be >= 0")
    _require(
        0 <= args.qmax <= MAX_Q_ORDER, f"--qmax must be an integer from 0 to {MAX_Q_ORDER}"
    )
    grid = _grid_for_label(args.d, args.h)
    fn = multiple_cover(HodgeLabel(args.d, args.h), grid)
    expansion = ratfn_expand(fn, args.qmax)
    symmetric = check_q_inversion_symmetry(fn) if args.check_symmetry else None
    if args.format == "json":
        payload = {
            "d": args.d,
            "h": args.h,
            "function": ratfn_to_jsonable(fn),
            "expansion": series_to_jsonable(expansion),
        }
        if symmetric is not None:
            payload["symmetric"] = symmetric
        _emit_json(args, payload)
    elif args.format == "csv":
        _emit_csv(
            args, ["degree", "coefficient"], [[d, str(c)] for d, c in expansion.items()]
        )
    else:
        lines = [
            f"stable pairs series for d={args.d}, h={args.h}:",
            f"  function:  {fn}",
            f"  expansion: {expansion}",
        ]
        if symmetric is not None:
            lines.append(f"  symmetric under q <-> 1/q: {symmetric}")
        _emit_pretty(args, lines)
    return EXIT_OK


def cmd_mnop_check(args) -> int:
    _no_csv(args)
    _divisibility(args.d, "--d")
    _require(args.h >= 0, "--h must be >= 0")
    _even_order(args.umax, "--umax")
    grid = _grid_for_label(args.d, args.h)
    ledger = PairsLedger(grid)
    report = mnop_check(HodgeLabel(args.d, args.h), grid, args.umax, ledger)
    if args.format == "json":
        work_order = substitution_work_order(ledger.imprimitive(args.d, args.h), args.umax)
        payload = {
            "d": args.d,
            "h": args.h,
            "u_order": args.umax,
            "work_order": work_order,
            "equal": report.equal,
            "gw_series": series_to_jsonable(report.lhs),
            "pairs_series": series_to_jsonable(report.rhs),
        }
        if report.first_mismatch:
            degree, a, b = report.first_mismatch
            payload["first_mismatch"] = {"degree": degree, "gw": str(a), "pairs": str(b)}
        _emit_json(args, payload)
    else:
        lines = [
            f"local MNOP check at d={args.d}, h={args.h}, u-order {args.umax}:",
            f"  GW side:    {report.lhs}",
            f"  pairs side: {report.rhs}",
            f"  equal: {report.equal}",
        ]
        if report.first_mismatch:
            degree, a, b = report.first_mismatch
            lines.append(f"  first mismatch at u^{degree}: {a} vs {b}")
        _emit_pretty(args, lines)
    return EXIT_OK if report.equal else EXIT_FAIL


def _demo_labels(m_max: int, h_max: int) -> list[ClassLabel]:
    labels = []
    for m in range(1, m_max + 1):
        for h0 in range(h_max + 1):
            h = m * m * (h0 - 1) + 1
            if h >= 0:
                labels.append(ClassLabel(m, h))
    return labels


def cmd_nl_demo(args) -> int:
    _no_csv(args)
    _divisibility(args.mmax, "--mmax", MAX_NL_DIVISIBILITY)
    _require(args.hmax >= 0, "--hmax must be >= 0")
    _even_order(args.umax, "--umax")
    need = _require_column(
        grid_column(args.mmax, args.hmax), f"(m={args.mmax}, h={args.hmax})"
    )
    rng = Random(args.seed)
    labels = _demo_labels(args.mmax, args.hmax)
    grid = bps_grid_from_kkv(need)
    ledger = PairsLedger(grid)
    gw_vec, pairs_vec = synthetic_k3_vectors(labels, grid, args.umax, ledger)
    rows = [f"beta{i}" for i in range(len(labels))]
    if args.triangular:
        nl = NlMatrix.upper_triangular_unit(rows, labels, rng)
    else:
        nl = NlMatrix.random_invertible(rows, labels, rng)
    fib_gw = combine(gw_vec, nl)
    fib_pairs = combine(pairs_vec, nl)
    report = transfer_mnop(fib_gw, fib_pairs, nl, args.umax)
    if args.format == "json":
        _emit_json(
            args,
            {
                "labels": [[lab.m, lab.h] for lab in labels],
                "matrix": matrix_to_jsonable(nl),
                "fibre_gw": vector_to_jsonable(fib_gw),
                "fibre_pairs": vector_to_jsonable(fib_pairs),
                "transfer_ok": report.ok,
                "failures": [str(f) for f in report.failures],
            },
        )
    else:
        lines = [
            f"synthetic K3 fibration over {len(labels)} classes "
            f"(seed {args.seed}, {'triangular' if args.triangular else 'random'} matrix):",
            "  labels: " + ", ".join(f"(m={lab.m}, h={lab.h})" for lab in labels),
            f"  transfer of the MNOP identity: {'consistent' if report.ok else 'FAILED'}",
        ]
        for failure in report.failures:
            lines.append(f"  failure: {failure}")
        _emit_pretty(args, lines)
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_check(args) -> int:
    _no_csv(args)
    _even_order(args.umax, "--umax")
    _divisibility(args.dmax, "--dmax")
    _require(args.hmax >= 0, "--hmax must be >= 0")
    _require(
        1 <= args.cases <= MAX_CHECK_CASES,
        f"--cases must be an integer from 1 to {MAX_CHECK_CASES}",
    )
    if args.quick:
        bounds = dict(
            u_order=min(args.umax, 8),
            mnop_d_max=min(args.dmax, 2),
            mnop_h_max=min(args.hmax, 2),
            sym_d_max=2,
            sym_h_max=2,
            law_h_max=10,
            aspmor_d_max=4,
            cases=min(args.cases, 25),
        )
    else:
        bounds = dict(
            u_order=args.umax, mnop_d_max=args.dmax, mnop_h_max=args.hmax, cases=args.cases
        )
    _require_column(
        grid_column(bounds["mnop_d_max"], bounds["mnop_h_max"]),
        f"the MNOP sweep to (d={bounds['mnop_d_max']}, h={bounds['mnop_h_max']})",
    )
    results = checks.run_all(seed=args.seed, inject_fault=args.inject_fault, **bounds)
    lines = [result.line() for result in results]
    failed = [result for result in results if not result.ok]
    lines.append(
        f"{len(results) - len(failed)}/{len(results)} checks passed"
        + (f"; first failure: {failed[0].name}" if failed else "")
    )
    if args.format == "json":
        cache = sine_bracket_cache_info()
        _emit_json(
            args,
            {
                "ok": not failed,
                "checks": [
                    {"name": r.name, "ok": r.ok, "detail": r.detail, "seconds": r.seconds}
                    for r in results
                ],
                "caches": {"sine_bracket": {"hits": cache.hits, "misses": cache.misses}},
            },
        )
    else:
        _emit_pretty(args, lines)
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

    p = sub.add_parser("table", parents=[common], help="emit the BPS grid n_(g,h)")
    p.add_argument("--hmax", type=int, default=4)
    p.add_argument("--gmax", type=int, default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser(
        "yau-zaslow", parents=[common], help="emit the genus-0 series prod (1-q^n)^-24"
    )
    p.add_argument("--hmax", type=int, default=10)
    p.set_defaults(func=cmd_yau_zaslow)

    p = sub.add_parser(
        "gw", parents=[common], help="emit the Gromov-Witten potential of a BPS table"
    )
    p.add_argument("--h", type=int, default=0, help="square label of the primitive class")
    p.add_argument("--dmax", type=int, default=3)
    p.add_argument("--umax", type=int, default=None)
    p.add_argument(
        "--single-state",
        action="store_true",
        help="use the one-state table of an isolated rational curve instead of KKV data",
    )
    p.set_defaults(func=cmd_gw)

    p = sub.add_parser("pairs", parents=[common], help="emit a stable-pairs rational function")
    p.add_argument("--h", type=int, default=0, help="square label of the primitive class")
    p.add_argument("--d", type=int, default=1, help="divisibility of the class")
    p.add_argument("--qmax", type=int, default=10, help="expansion order about q = 0")
    p.add_argument("--check-symmetry", action="store_true")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser(
        "mnop-check", parents=[common], help="compare the GW and pairs sides at one class"
    )
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--h", type=int, default=0)
    p.add_argument("--umax", type=int, default=12)
    p.set_defaults(func=cmd_mnop_check)

    p = sub.add_parser(
        "nl-demo", parents=[common], help="synthetic Noether-Lefschetz transfer demo"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mmax", type=int, default=2)
    p.add_argument("--hmax", type=int, default=2, help="square label bound for the primitive part")
    p.add_argument("--umax", type=int, default=8)
    p.add_argument("--triangular", action="store_true", help="unit upper-triangular matrix")
    p.set_defaults(func=cmd_nl_demo)

    p = sub.add_parser("check", parents=[common], help="run the full identity suite")
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
    p.set_defaults(func=cmd_check)
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
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, ValueError, ZeroDivisionError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
