"""The identity suite behind ``k3bps check``.

Each check returns a :class:`CheckResult`; a failing result carries the first
mismatch location in its detail string.  The randomized suites are seeded and
deterministic.  :func:`run_all` decides the bounds of the full and the quick
suite and records each check's wall time in ``CheckResult.seconds``.  A check
that raises ``ArithmeticError`` or ``ValueError`` (an internal guard such as
the ``PairsLedger`` symmetry check or the grid's diagonal guard) becomes that
check's failing result, and the remaining checks still run.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from fractions import Fraction
from random import Random
from time import perf_counter

from .bps import BpsTable, GwPotential, bps_from_gw, gw_from_bps, sine_bracket
from .graded import GradedSeries
from .kkv import bps_grid_from_kkv, kkv_product, lambda_decompose, lambda_power, yau_zaslow_series
from .nl import (
    ClassLabel,
    InvariantVector,
    NlMatrix,
    combine,
    invert_correspondence,
    synthetic_k3_vectors,
    transfer_mnop,
)
from .pairs import (
    HodgeLabel,
    PairsLedger,
    grid_column,
    mnop_check,
    multiple_cover,
    substitute_q_minus_exp,
)
from .rational import RationalFunction, check_q_inversion_symmetry, ratfn_expand
from .series import LaurentSeries
from .symlaurent import SymLaurentPoly

log = logging.getLogger("k3bps")

KKV_TABLE = {
    0: (1,),
    1: (24, -2),
    2: (324, -54, 3),
    3: (3200, -800, 88, -4),
    4: (25650, -8550, 1401, -126, 5),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    seconds: float = field(default=0.0, compare=False)

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.name}" + (f": {self.detail}" if self.detail else "")


def check_kkv_table() -> CheckResult:
    grid = bps_grid_from_kkv(4)
    for h, column in KKV_TABLE.items():
        if grid.column(h) != column:
            return CheckResult(
                "kkv-table", False, f"column h={h} is {grid.column(h)}, expected {column}"
            )
    return CheckResult("kkv-table", True, "matches the 5x5 reference values")


def check_yau_zaslow(h_max: int) -> CheckResult:
    yz = yau_zaslow_series(h_max)
    head = [yz.coefficient(h) for h in range(min(h_max, 4) + 1)]
    if head != [KKV_TABLE[h][0] for h in range(len(head))]:
        return CheckResult("yau-zaslow", False, f"leading coefficients {head}")
    specialized = kkv_product(h_max).specialize_z_one()
    for h in range(h_max + 1):
        a, b = specialized.coefficient(h), yz.coefficient(h)
        if a != b:
            detail = f"z->1 specialization disagrees at q^{h}: {a} vs {b}"
            return CheckResult("yau-zaslow", False, detail)
    return CheckResult("yau-zaslow", True, f"matches the z->1 specialization through h={h_max}")


def check_grid_laws(h_max: int) -> CheckResult:
    # the grid's guards are the evidence: _unpack raises ArithmeticError on a
    # coefficient above the diagonal, KkvBpsGrid raises ValueError on a wrong
    # diagonal entry, and run_all reports either as this check's failure
    bps_grid_from_kkv(h_max)
    return CheckResult("grid-laws", True, f"diagonal and above-diagonal laws hold through h={h_max}")


def check_aspinwall_morrison(d_max: int) -> CheckResult:
    potential = gw_from_bps(BpsTable.single_state(), d_max)
    for d in range(1, d_max + 1):
        if potential.value(0, d) != Fraction(1, d ** 3):
            return CheckResult(
                "aspinwall-morrison", False, f"N_(0,{d}) = {potential.value(0, d)} != 1/{d ** 3}"
            )
    if bps_from_gw(potential, d_max) != BpsTable.single_state():
        return CheckResult("aspinwall-morrison", False, "inverse failed to recover the table")
    return CheckResult("aspinwall-morrison", True, f"1/d^3 and its inversion hold through d={d_max}")


def check_footnote_series() -> CheckResult:
    fn = RationalFunction((0, 1), (1, 2, 1))
    expansion = ratfn_expand(fn, 10)
    for n in range(1, 11):
        if expansion.coefficient(n) != (-1) ** (n + 1) * n:
            return CheckResult("footnote-series", False, f"coefficient at q^{n} wrong")
    if not check_q_inversion_symmetry(fn):
        return CheckResult("footnote-series", False, "q/(1+q)^2 not seen as symmetric")
    return CheckResult("footnote-series", True, "q - 2q^2 + 3q^3 - ... with symmetric sum")


def check_substitution_identity(u_order: int) -> CheckResult:
    fn = RationalFunction((0, 1), (1, 2, 1))
    lhs = substitute_q_minus_exp(fn, u_order)
    rhs = sine_bracket(1, 0, u_order)
    if not lhs.agrees_with(rhs):
        return CheckResult("substitution-identity", False, "expansion disagrees with (2 sin(u/2))^-2")
    return CheckResult(
        "substitution-identity", True, f"q/(1+q)^2 matches (2 sin(u/2))^-2 through u^{u_order}"
    )


def check_mnop_grid(d_max: int, h_max: int, u_order: int) -> CheckResult:
    grid = bps_grid_from_kkv(grid_column(d_max, h_max))
    ledger = PairsLedger(grid)
    for d in range(1, d_max + 1):
        for h in range(h_max + 1):
            report = mnop_check(HodgeLabel(d, h), grid, u_order, ledger)
            if not report.equal:
                degree, a, b = report.first_mismatch
                return CheckResult(
                    "mnop-grid", False, f"(d={d}, h={h}) first mismatch at u^{degree}: {a} vs {b}"
                )
    return CheckResult(
        "mnop-grid", True, f"identity holds for d<={d_max}, h<={h_max} at u-order {u_order}"
    )


def check_symmetry_sweep(d_max: int, h_max: int) -> CheckResult:
    # the ledger checks every function it returns and raises ArithmeticError on
    # an asymmetric one, which run_all reports as this check's failure
    grid = bps_grid_from_kkv(grid_column(d_max, h_max))
    ledger = PairsLedger(grid)
    labels = [HodgeLabel(d, h) for d in range(1, d_max + 1) for h in range(h_max + 1)]
    for label in labels:
        multiple_cover(label, grid, ledger)
    return CheckResult("pairs-symmetry", True, f"{len(labels)} generating functions symmetric")


# -- randomized suites ----------------------------------------------------------


def _random_fraction(rng: Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _random_series(rng: Random, variable: str, lo: int) -> LaurentSeries:
    """Random coefficients of variable^lo through variable^6."""
    return LaurentSeries(variable, lo, [_random_fraction(rng) for _ in range(7 - lo)], 6)


def _random_entries(rng: Random, draw) -> dict:
    """About half the (g, d) with g <= 3, 1 <= d <= 3, each with a value from draw(rng)."""
    return {(g, d): draw(rng) for g in range(4) for d in range(1, 4) if rng.random() < 0.5}


def check_exp_log_roundtrip(rng: Random, cases: int) -> CheckResult:
    for case in range(cases):
        entries = {
            d: _random_series(rng, "q", 0) for d in range(1, 5) if rng.random() < 0.8
        }
        if not entries:
            entries = {1: _random_series(rng, "q", 0)}
        graded = GradedSeries(4, entries)
        if graded.exp().log() != graded:
            return CheckResult("exp-log-roundtrip", False, f"case {case} failed")
    return CheckResult("exp-log-roundtrip", True, f"{cases} random graded series")


def check_gv_roundtrip(rng: Random, cases: int) -> CheckResult:
    for case in range(cases):
        table = BpsTable(_random_entries(rng, lambda r: r.randint(-9, 9)))
        potential = gw_from_bps(table, 3, 8)
        if bps_from_gw(potential, 3) != table:
            return CheckResult("gv-roundtrip", False, f"case {case}: table not recovered")
        potential = GwPotential(_random_entries(rng, _random_fraction), 6)
        recovered = gw_from_bps(bps_from_gw(potential, 3), 3, 6)
        if recovered != potential:
            return CheckResult("gv-roundtrip", False, f"case {case}: potential not recovered")
    return CheckResult("gv-roundtrip", True, f"{cases} random tables and potentials")


def check_lambda_roundtrip(rng: Random, cases: int) -> CheckResult:
    for case in range(cases):
        half = {d: _random_fraction(rng) for d in range(rng.randint(1, 6))}
        poly = SymLaurentPoly.from_half(half)
        coeffs = lambda_decompose(poly)
        recomposed = sum(
            (lambda_power(g) * c for g, c in enumerate(coeffs) if c), SymLaurentPoly.zero()
        )
        if recomposed != poly:
            return CheckResult("lambda-roundtrip", False, f"case {case} failed")
    return CheckResult("lambda-roundtrip", True, f"{cases} random symmetric polynomials")


def check_nl_roundtrip(rng: Random, cases: int) -> CheckResult:
    labels = (ClassLabel(1, 0), ClassLabel(1, 2), ClassLabel(2, 5))
    rows = ("b1", "b2", "b3")
    for case in range(cases):
        vector = InvariantVector(
            {lab: _random_series(rng, "u", rng.choice((-2, 0))) for lab in labels}
        )
        make = NlMatrix.random_invertible if case % 2 else NlMatrix.upper_triangular_unit
        nl = make(rows, labels, rng)
        if invert_correspondence(combine(vector, nl), nl) != vector:
            return CheckResult("nl-roundtrip", False, f"case {case} failed")
    return CheckResult("nl-roundtrip", True, f"{cases} random matrices and vectors")


NL_U_ORDER = 8  # u-order of the synthetic fibrations of check_nl_transfer


def check_nl_transfer(rng: Random, cases: int, inject_fault: bool) -> CheckResult:
    labels = (ClassLabel(1, 0), ClassLabel(1, 1), ClassLabel(2, 5))
    rows = ("b1", "b2", "b3")
    grid = bps_grid_from_kkv(5)
    gw_vec, pairs_vec = synthetic_k3_vectors(labels, grid, NL_U_ORDER, PairsLedger(grid))
    for case in range(cases):
        nl = NlMatrix.random_invertible(rows, labels, rng)
        fib_gw = combine(gw_vec, nl)
        fib_pairs = combine(pairs_vec, nl)
        if inject_fault:
            # corrupt the first case by q + 1/q and report where the transfer catches it
            bump = RationalFunction((1, 0, 1), (0, 1))
            broken = fib_pairs.replace(rows[0], fib_pairs.value(rows[0]) + bump)
            report = transfer_mnop(fib_gw, broken, nl, NL_U_ORDER)
            where = report.failures[0] if report.failures else None
            return CheckResult(
                "nl-transfer", bool(report), f"injected fault; first failure at {where}"
            )
        if not transfer_mnop(fib_gw, fib_pairs, nl, NL_U_ORDER):
            return CheckResult("nl-transfer", False, f"case {case}: consistent data rejected")
        # every single-coefficient fault must be caught
        row = rows[rng.randrange(len(rows))]
        j = rng.randint(0, 3)
        eps = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        if rng.random() < 0.5:
            bump = RationalFunction.monomial(j, eps) + RationalFunction.monomial(-j, eps)
        else:
            bump = RationalFunction.monomial(j, eps)
        broken = fib_pairs.replace(row, fib_pairs.value(row) + bump)
        if transfer_mnop(fib_gw, broken, nl, NL_U_ORDER):
            return CheckResult("nl-transfer", False, f"case {case}: fault at {row} undetected")
    return CheckResult("nl-transfer", True, f"{cases} random fibrations with fault injection")


def mnop_sweep(d_max: int, h_max: int, quick: bool) -> tuple[int, int]:
    """The (d, h) bounds of the MNOP sweep that :func:`run_all` runs for (d_max, h_max)."""
    return (min(d_max, 2), min(h_max, 2)) if quick else (d_max, h_max)


def run_all(
    *,
    u_order: int,
    mnop_d_max: int,
    mnop_h_max: int,
    cases: int,
    seed: int,
    inject_fault: bool,
    quick: bool,
) -> list[CheckResult]:
    """Run every check at the requested bounds; ``quick`` caps them and shrinks
    the fixed bounds of the other checks."""
    mnop_d_max, mnop_h_max = mnop_sweep(mnop_d_max, mnop_h_max, quick)
    if quick:
        u_order, cases = min(u_order, 8), min(cases, 25)
    sym_d_max, sym_h_max, law_h_max, aspmor_d_max = (2, 2, 10, 4) if quick else (4, 5, 20, 6)
    rng = Random(seed)
    # run in this order: the randomized suites share rng
    suite = [
        ("kkv-table", lambda: check_kkv_table()),
        ("yau-zaslow", lambda: check_yau_zaslow(law_h_max)),
        ("grid-laws", lambda: check_grid_laws(law_h_max)),
        ("aspinwall-morrison", lambda: check_aspinwall_morrison(aspmor_d_max)),
        ("footnote-series", lambda: check_footnote_series()),
        ("substitution-identity", lambda: check_substitution_identity(u_order)),
        ("mnop-grid", lambda: check_mnop_grid(mnop_d_max, mnop_h_max, u_order)),
        ("pairs-symmetry", lambda: check_symmetry_sweep(sym_d_max, sym_h_max)),
        ("exp-log-roundtrip", lambda: check_exp_log_roundtrip(rng, cases)),
        ("gv-roundtrip", lambda: check_gv_roundtrip(rng, cases)),
        ("lambda-roundtrip", lambda: check_lambda_roundtrip(rng, cases)),
        ("nl-roundtrip", lambda: check_nl_roundtrip(rng, cases)),
        ("nl-transfer", lambda: check_nl_transfer(rng, cases, inject_fault)),
    ]
    results = []
    for name, check in suite:
        start = perf_counter()
        try:
            result = check()
        except (ArithmeticError, ValueError) as exc:
            # an internal guard fired (e.g. an asymmetric pairs function or a
            # wrong grid diagonal)
            result = CheckResult(name, False, str(exc))
        result = replace(result, seconds=perf_counter() - start)
        log.info("%s", result.line())
        results.append(result)
    return results
