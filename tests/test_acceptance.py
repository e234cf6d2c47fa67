"""Acceptance suite: every criterion asserts exactly and prints one line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines; any failure shows the first offending value.
"""

import time
from fractions import Fraction
from random import Random

from k3bps import (
    BpsTable,
    ClassLabel,
    GradedSeries,
    GwPotential,
    HodgeLabel,
    LaurentSeries,
    NlMatrix,
    PairsLedger,
    RationalFunction,
    SymLaurentPoly,
    bps_from_gw,
    bps_grid_from_kkv,
    check_q_inversion_symmetry,
    combine,
    gw_from_bps,
    invert_correspondence,
    kkv_product,
    lambda_decompose,
    lambda_power,
    mnop_check,
    multiple_cover,
    ratfn_expand,
    sine_bracket,
    substitute_q_minus_exp,
    synthetic_k3_vectors,
    transfer_mnop,
    yau_zaslow_series,
)

REFERENCE_TABLE = {
    0: (1,),
    1: (24, -2),
    2: (324, -54, 3),
    3: (3200, -800, 88, -4),
    4: (25650, -8550, 1401, -126, 5),
}

CASES = 100


def report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_kkv_table_reproduction():
    start = time.perf_counter()
    grid = bps_grid_from_kkv(4)
    elapsed = time.perf_counter() - start
    for h, column in REFERENCE_TABLE.items():
        assert grid.column(h) == column, f"column h={h}: {grid.column(h)}"
        for g in range(h + 1, 6):
            assert grid.value(g, h) == 0
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report("criterion 1 (KKV table)", f"5x5 grid exact in {elapsed * 1000:.1f} ms")


def test_criterion_2_yau_zaslow():
    start = time.perf_counter()
    yz = yau_zaslow_series(20)
    assert [yz.coefficient(h) for h in range(5)] == [1, 24, 324, 3200, 25650]
    series = kkv_product(20)
    for h in range(21):
        assert yz.coefficient(h) == series[h].evaluate_at_one(), f"h={h}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(
        "criterion 2 (Yau-Zaslow)",
        f"24th-power series equals the z->1 specialization through h=20 in {elapsed * 1000:.0f} ms",
    )


def test_criterion_3_diagonal_and_vanishing_laws(grid20):
    for h in range(21):
        assert grid20.value(h, h) == (-1) ** h * (h + 1), f"diagonal at h={h}"
        for g in range(h + 1, 23):
            assert grid20.value(g, h) == 0, f"vanishing at (g={g}, h={h})"
    report("criterion 3 (diagonal and vanishing)", "exact for all h <= 20")


def test_criterion_4_aspinwall_morrison():
    potential = gw_from_bps(BpsTable.single_state(), 6)
    for d in range(1, 7):
        assert potential.value(0, d) == Fraction(1, d ** 3), f"d={d}"
    recovered = bps_from_gw(potential, 6)
    assert recovered == BpsTable.single_state()
    # d = 2 genus-0 sector of the inversion is the double-cover subtraction
    assert recovered.value(0, 2) == potential.value(0, 2) - Fraction(1, 8) * potential.value(0, 1)
    report("criterion 4 (Aspinwall-Morrison)", "1/d^3 for d <= 6 and exact inversion")


def test_criterion_5_footnote_series():
    fn = RationalFunction((0, 1), (1, 2, 1))
    series = ratfn_expand(fn, 10)
    for n in range(1, 11):
        assert series.coefficient(n) == (-1) ** (n + 1) * n, f"q^{n}"
    assert check_q_inversion_symmetry(fn)
    report(
        "criterion 5 (footnote series)",
        "q - 2q^2 + ... - 10q^10 with q <-> 1/q invariant sum",
    )


def test_criterion_6_substitution_identity():
    lhs = substitute_q_minus_exp(RationalFunction((0, 1), (1, 2, 1)), 12)
    rhs = sine_bracket(1, 0, 12)
    assert lhs == rhs
    assert lhs.coefficient(-2) == 1
    assert lhs.coefficient(0) == Fraction(1, 12)
    assert lhs.coefficient(2) == Fraction(1, 240)
    report(
        "criterion 6 (substitution identity)",
        "q/(1+q)^2 under q = -e^(iu) equals (2 sin(u/2))^-2 through u^12",
    )


def test_criterion_7_local_mnop_identity(grid20, ledger20):
    start = time.perf_counter()
    for d in (1, 2, 3):
        for h in (0, 1, 2, 3):
            outcome = mnop_check(HodgeLabel(d, h), grid20, 12, ledger20)
            assert outcome.equal, f"(d={d}, h={h}): {outcome.first_mismatch}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.3f}s"
    report(
        "criterion 7 (local MNOP identity)",
        f"12 classes agree through u^12 in {elapsed:.2f} s",
    )


# -- criterion 8: randomized property suites, seeded, >= 100 cases each ---------


def _random_fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def test_criterion_8a_exp_log_roundtrip():
    rng = Random(801)
    for _ in range(CASES):
        entries = {}
        for d in range(1, 5):
            if rng.random() < 0.7:
                entries[d] = LaurentSeries(
                    "q", 0, [_random_fraction(rng) for _ in range(6)], 5
                )
        if not entries:
            entries = {1: LaurentSeries.one("q", 5)}
        graded = GradedSeries(4, entries)
        assert graded.exp().log() == graded
    report("criterion 8a (exp/log roundtrip)", f"{CASES} random graded series")


def test_criterion_8b_gv_transform_roundtrip():
    rng = Random(802)
    for _ in range(CASES):
        entries = {
            (g, d): rng.randint(-9, 9)
            for g in range(4)
            for d in range(1, 4)
            if rng.random() < 0.5
        }
        table = BpsTable(entries)
        assert bps_from_gw(gw_from_bps(table, 3, 8), 3) == table
        potential = GwPotential(
            {
                (g, d): _random_fraction(rng)
                for g in range(3)
                for d in range(1, 4)
                if rng.random() < 0.5
            },
            4,
        )
        assert gw_from_bps(bps_from_gw(potential, 3), 3, 4) == potential
    report("criterion 8b (GV-transform roundtrip)", f"{CASES} random tables and potentials")


def test_criterion_8c_lambda_roundtrip():
    rng = Random(803)
    for _ in range(CASES):
        poly = SymLaurentPoly.from_half(
            {d: _random_fraction(rng) for d in range(rng.randint(1, 7))}
        )
        recomposed = SymLaurentPoly.zero()
        for g, c in enumerate(lambda_decompose(poly)):
            recomposed = recomposed + lambda_power(g) * c
        assert recomposed == poly
    report("criterion 8c (lambda roundtrip)", f"{CASES} random symmetric polynomials")


def test_criterion_8d_pairs_symmetry_sweep(grid65, ledger65):
    count = 0
    for d in range(1, 5):
        for h in range(6):
            fn = multiple_cover(HodgeLabel(d, h), grid65, ledger65)
            assert check_q_inversion_symmetry(fn), f"(d={d}, h={h})"
            count += 1
    report(
        "criterion 8d (pairs symmetry)",
        f"all {count} generating functions for d <= 4, h <= 5 are q <-> 1/q invariant",
    )


def test_criterion_8e_nl_roundtrip_and_fault_detection(grid5):
    rng = Random(805)
    labels = (ClassLabel(1, 0), ClassLabel(1, 1), ClassLabel(2, 5))
    rows = ("b0", "b1", "b2")
    # combine/invert roundtrip on random data
    for _ in range(CASES):
        vector = {
            lab: LaurentSeries("u", -2, [_random_fraction(rng) for _ in range(7)], 4)
            for lab in labels
        }
        nl = NlMatrix.random_invertible(rows, labels, rng)
        assert invert_correspondence(combine(vector, nl), nl) == vector
    # transfer consistency plus single-coefficient fault detection
    ledger = PairsLedger(grid5)
    gw_vec, pairs_vec = synthetic_k3_vectors(labels, grid5, 8, ledger)
    detected = 0
    for _ in range(CASES):
        nl = NlMatrix.random_invertible(rows, labels, rng)
        fib_gw = combine(gw_vec, nl)
        fib_pairs = combine(pairs_vec, nl)
        assert transfer_mnop(fib_gw, fib_pairs, nl, 8).ok
        row = rows[rng.randrange(3)]
        j = rng.randint(0, 3)
        eps = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        bump = RationalFunction.monomial(j, eps)
        if rng.random() < 0.5:
            bump = bump + RationalFunction.monomial(-j, eps)
        broken = {**fib_pairs, row: fib_pairs[row] + bump}
        outcome = transfer_mnop(fib_gw, broken, nl, 8)
        assert not outcome.ok, "injected fault went undetected"
        assert outcome.failures
        detected += 1
    report(
        "criterion 8e (NL roundtrip and fault injection)",
        f"{CASES} roundtrips; {detected}/{CASES} injected faults detected and located",
    )
