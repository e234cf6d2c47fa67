"""The identity suite behind ``k3bps check``.

Each check returns a :class:`CheckResult`; a failing result carries the first
mismatch location in its detail string.  The randomized suites are seeded and
deterministic.  :func:`run_all` records each check's wall time in
``CheckResult.seconds``, which ``k3bps check --format json`` reports.  A
check that raises ``ArithmeticError`` (an internal guard such as the
``PairsLedger`` symmetry check) becomes that check's failing result, and the
remaining checks still run.
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
    if head != [1, 24, 324, 3200, 25650][: len(head)]:
        return CheckResult("yau-zaslow", False, f"leading coefficients {head}")
    specialized = kkv_product(h_max).specialize_z_one()
    for h in range(h_max + 1):
        if yz.coefficient(h) != specialized.coefficient(h):
            return CheckResult(
                "yau-zaslow",
                False,
                f"z->1 specialization disagrees at q^{h}: "
                f"{specialized.coefficient(h)} vs {yz.coefficient(h)}",
            )
    return CheckResult("yau-zaslow", True, f"matches the z->1 specialization through h={h_max}")


def check_grid_laws(h_max: int) -> CheckResult:
    grid = bps_grid_from_kkv(h_max)
    for h in range(h_max + 1):
        if grid.value(h, h) != (-1) ** h * (h + 1):
            return CheckResult("grid-laws", False, f"diagonal fails at h={h}")
        for g in range(h + 1, h_max + 2):
            if grid.value(g, h) != 0:
                return CheckResult("grid-laws", False, f"vanishing fails at (g={g}, h={h})")
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


def _random_q_series(rng: Random, order: int = 6) -> LaurentSeries:
    coeffs = [_random_fraction(rng) for _ in range(order + 1)]
    return LaurentSeries("q", 0, coeffs, order)


def _random_u_series(rng: Random, order: int = 6) -> LaurentSeries:
    lo = rng.choice((-2, 0))
    coeffs = [_random_fraction(rng) for _ in range(order - lo + 1)]
    return LaurentSeries("u", lo, coeffs, order)


def check_exp_log_roundtrip(rng: Random, cases: int) -> CheckResult:
    for case in range(cases):
        entries = {
            d: _random_q_series(rng) for d in range(1, 5) if rng.random() < 0.8
        }
        if not entries:
            entries = {1: _random_q_series(rng)}
        graded = GradedSeries(4, entries)
        if graded.exp().log() != graded:
            return CheckResult("exp-log-roundtrip", False, f"case {case} failed")
    return CheckResult("exp-log-roundtrip", True, f"{cases} random graded series")


def check_gv_roundtrip(rng: Random, cases: int) -> CheckResult:
    for case in range(cases):
        entries = {
            (g, d): rng.randint(-9, 9)
            for g in range(4)
            for d in range(1, 4)
            if rng.random() < 0.5
        }
        table = BpsTable(entries)
        potential = gw_from_bps(table, 3, 8)
        if bps_from_gw(potential, 3) != table:
            return CheckResult("gv-roundtrip", False, f"case {case}: table not recovered")
        pot_entries = {
            (g, d): _random_fraction(rng)
            for g in range(4)
            for d in range(1, 4)
            if rng.random() < 0.5
        }
        potential = GwPotential(pot_entries, 6)
        recovered = gw_from_bps(bps_from_gw(potential, 3), 3, 6)
        if recovered != potential:
            return CheckResult("gv-roundtrip", False, f"case {case}: potential not recovered")
    return CheckResult("gv-roundtrip", True, f"{cases} random tables and potentials")


def check_lambda_roundtrip(rng: Random, cases: int) -> CheckResult:
    for case in range(cases):
        half = {d: _random_fraction(rng) for d in range(rng.randint(1, 6))}
        poly = SymLaurentPoly.from_half(half)
        coeffs = lambda_decompose(poly)
        recomposed = SymLaurentPoly.zero()
        for g, c in enumerate(coeffs):
            if c:
                recomposed = recomposed + lambda_power(g) * c
        if recomposed != poly:
            return CheckResult("lambda-roundtrip", False, f"case {case} failed")
    return CheckResult("lambda-roundtrip", True, f"{cases} random symmetric polynomials")


def check_nl_roundtrip(rng: Random, cases: int) -> CheckResult:
    labels = (ClassLabel(1, 0), ClassLabel(1, 2), ClassLabel(2, 5))
    rows = ("b1", "b2", "b3")
    for case in range(cases):
        vector = InvariantVector({lab: _random_u_series(rng) for lab in labels})
        if case % 2:
            nl = NlMatrix.random_invertible(rows, labels, rng)
        else:
            nl = NlMatrix.upper_triangular_unit(rows, labels, rng)
        if invert_correspondence(combine(vector, nl), nl) != vector:
            return CheckResult("nl-roundtrip", False, f"case {case} failed")
    return CheckResult("nl-roundtrip", True, f"{cases} random matrices and vectors")


def check_nl_transfer(rng: Random, cases: int, u_order: int = 8, inject_fault: bool = False) -> CheckResult:
    labels = (ClassLabel(1, 0), ClassLabel(1, 1), ClassLabel(2, 5))
    rows = ("b1", "b2", "b3")
    grid = bps_grid_from_kkv(5)
    ledger = PairsLedger(grid)
    gw_vec, pairs_vec = synthetic_k3_vectors(labels, grid, u_order, ledger)
    if inject_fault:
        nl = NlMatrix.random_invertible(rows, labels, rng)
        fib_gw = combine(gw_vec, nl)
        fib_pairs = combine(pairs_vec, nl)
        broken = fib_pairs.replace(
            rows[0], fib_pairs.value(rows[0]) + RationalFunction((1, 0, 1), (0, 1))
        )
        report = transfer_mnop(fib_gw, broken, nl, u_order)
        where = report.failures[0] if report.failures else None
        return CheckResult(
            "nl-transfer", bool(report), f"injected fault; first failure at {where}"
        )
    for case in range(cases):
        nl = NlMatrix.random_invertible(rows, labels, rng)
        fib_gw = combine(gw_vec, nl)
        fib_pairs = combine(pairs_vec, nl)
        if not transfer_mnop(fib_gw, fib_pairs, nl, u_order):
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
        if transfer_mnop(fib_gw, broken, nl, u_order):
            return CheckResult("nl-transfer", False, f"case {case}: fault at {row} undetected")
    return CheckResult("nl-transfer", True, f"{cases} random fibrations with fault injection")


def run_all(
    *,
    u_order: int = 12,
    mnop_d_max: int = 3,
    mnop_h_max: int = 3,
    sym_d_max: int = 4,
    sym_h_max: int = 5,
    law_h_max: int = 20,
    aspmor_d_max: int = 6,
    cases: int = 100,
    seed: int = 0,
    inject_fault: bool = False,
) -> list[CheckResult]:
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
        ("nl-transfer", lambda: check_nl_transfer(rng, cases, inject_fault=inject_fault)),
    ]
    results = []
    for name, check in suite:
        start = perf_counter()
        try:
            result = check()
        except ArithmeticError as exc:
            # an internal consistency guard fired (e.g. an asymmetric pairs function)
            result = CheckResult(name, False, str(exc))
        result = replace(result, seconds=perf_counter() - start)
        log.info("%s", result.line())
        results.append(result)
    return results
