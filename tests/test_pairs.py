from fractions import Fraction
from math import factorial
from random import Random

import pytest

from k3bps import (
    ClassLabel,
    HodgeLabel,
    KkvBpsGrid,
    LaurentSeries,
    NlMatrix,
    PairsLedger,
    RationalFunction,
    bps_grid_from_kkv,
    bps_table_from_grid,
    check_q_inversion_symmetry,
    combine,
    disconnected_partition,
    mnop_check,
    multiple_cover,
    primitive_pairs_ratfn,
    sine_bracket,
    substitute_q_minus_exp,
    synthetic_k3_vectors,
)
from k3bps import pairs
from k3bps.pairs import grid_column, substitution_work_order

FOOTNOTE = RationalFunction((0, 1), (1, 2, 1))  # q/(1+q)^2


def closed_form_oracle(h, grid):
    """Independent construction of sum_g n_{g,h} q^(1-g) (1+q)^(2g-2) through
    generic rational-function arithmetic (checked constructor, gcd path)."""
    q = RationalFunction.monomial(1)
    one_plus_q = RationalFunction((1, 1))
    total = RationalFunction.zero()
    for g in range(h + 1):
        total = total + (q ** (1 - g)) * (one_plus_q ** (2 * g - 2)) * grid.value(g, h)
    return total


def test_primitive_square_minus_two_is_footnote_function(grid5):
    assert primitive_pairs_ratfn(0, grid5) == FOOTNOTE


def test_primitive_square_zero_from_table_values(grid5):
    expected = FOOTNOTE * 24 - RationalFunction((2,))
    assert primitive_pairs_ratfn(1, grid5) == expected


def test_primitive_matches_generic_construction(grid65):
    # h = 9, 17, 28 reach integer numerators with large binomials C(2g, j)
    for h in (*range(7), 9, 17, 28):
        assert primitive_pairs_ratfn(h, grid65) == closed_form_oracle(h, grid65)


def test_primitive_negative_square_is_zero(grid5):
    assert primitive_pairs_ratfn(-3, grid5).is_zero


def test_primitive_missing_column_raises(grid5):
    with pytest.raises(ValueError, match="grid only reaches"):
        primitive_pairs_ratfn(6, grid5)


def test_summands_are_palindromic():
    q = RationalFunction.monomial(1)
    one_plus_q = RationalFunction((1, 1))
    for g in range(5):
        assert check_q_inversion_symmetry(q ** (1 - g) * one_plus_q ** (2 * g - 2))


def test_primitive_functions_symmetric(grid20):
    for h in range(8):
        assert check_q_inversion_symmetry(primitive_pairs_ratfn(h, grid20))


def test_hodge_label_square_bookkeeping():
    label = HodgeLabel(6, 3)
    assert label.h_of(6) == 3
    assert label.h_of(1) == 36 * 2 + 1
    assert label.h_of(2) == 9 * 2 + 1
    with pytest.raises(ValueError, match="does not divide"):
        label.h_of(4)
    with pytest.raises(ValueError):
        HodgeLabel(0, 1)
    with pytest.raises(ValueError):
        HodgeLabel(1, -1)


def test_multiple_cover_primitive_case(grid5):
    assert multiple_cover(HodgeLabel(1, 1), grid5) == primitive_pairs_ratfn(1, grid5)


def test_multiple_cover_two_divisors_oracle(grid20):
    # for d = 2: P(q) = P_{4h-3}(q) + (1/2) P_h(-q^2), by direct enumeration
    for h in (1, 2):
        label = HodgeLabel(2, h)
        expected = primitive_pairs_ratfn(4 * h - 3, grid20) + primitive_pairs_ratfn(
            h, grid20
        ).substitute_scaled_power(-1, 2) * Fraction(1, 2)
        assert multiple_cover(label, grid20) == expected


@pytest.mark.parametrize("d, h", [*((d, 1) for d in range(1, 7)), (3, 2)])
def test_multiple_cover_matches_sympy_divisor_sum(grid20, d, h):
    # sum_(k|d) (1/k) P_(h_of(k))(-(-q)^k) built and cancelled in sympy from the
    # primitive functions' public tuples, against the monic canonical tuples
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    label = HodgeLabel(d, h)

    def at(poly, x):
        return sum(sympy.Rational(c.numerator, c.denominator) * x**j for j, c in enumerate(poly))

    def as_tuple(expr):
        coeffs = reversed(sympy.Poly(expr, q).all_coeffs())
        return tuple(Fraction(int(c.p), int(c.q)) for c in coeffs)

    total = 0
    for k in (k for k in range(1, d + 1) if d % k == 0):
        fn = primitive_pairs_ratfn(label.h_of(k), grid20)
        x = -((-q) ** k)
        total += sympy.Rational(1, k) * at(fn.numerator, x) / at(fn.denominator, x)
    num, den = sympy.fraction(sympy.cancel(sympy.together(total)))
    lead = sympy.Poly(den, q).LC()
    fn = multiple_cover(label, grid20)
    assert (fn.numerator, fn.denominator) == (as_tuple(num / lead), as_tuple(den / lead))


def test_multiple_cover_series_symmetric(grid20, ledger20):
    for d in (1, 2, 3):
        for h in (0, 1, 2):
            fn = multiple_cover(HodgeLabel(d, h), grid20, ledger20)
            assert check_q_inversion_symmetry(fn)


def test_imprimitive_series_keyed_by_square_only(grid20, ledger20):
    # the k = 1 summand of the d = 2 series is the primitive function of the
    # full square, identical to the d = 1 series at that square label
    h = 2
    label = HodgeLabel(2, h)
    direct = multiple_cover(HodgeLabel(1, label.h_of(1)), grid20, ledger20)
    assert direct == ledger20.primitive(label.h_of(1))


def test_ledger_caches_and_validates(grid5):
    ledger = PairsLedger(grid5)
    first = ledger.imprimitive(2, 1)
    assert ledger.imprimitive(2, 1) is first
    assert 1 in ledger.primitive_entries
    assert (2, 1) in ledger.imprimitive_entries


def test_ledger_built_on_another_grid_is_refused(grid5):
    fake = KkvBpsGrid([(1,), (7, -2)])
    label = HodgeLabel(1, 1)
    with pytest.raises(ValueError, match="another KKV grid"):
        multiple_cover(label, fake, PairsLedger(grid5))
    with pytest.raises(ValueError, match="another KKV grid"):
        mnop_check(label, fake, 8, PairsLedger(grid5))
    assert mnop_check(label, fake, 8).equal
    # a ledger on a grid with the same columns is the same data
    assert multiple_cover(label, grid5, PairsLedger(bps_grid_from_kkv(5))) == multiple_cover(
        label, grid5
    )


def test_substitution_matches_sine_bracket_independently():
    assert substitute_q_minus_exp(FOOTNOTE, 12) == sine_bracket(1, 0, 12)


def test_substitution_of_constant():
    c = RationalFunction((Fraction(5, 7),))
    result = substitute_q_minus_exp(c, 6)
    assert result.coefficient(0) == Fraction(5, 7)
    assert all(result.coefficient(k) == 0 for k in range(1, 7))


def test_substitution_of_palindrome_gives_minus_two_cosine():
    # q + 1/q becomes -2*cos(u)
    result = substitute_q_minus_exp(RationalFunction((1, 0, 1), (0, 1)), 10)
    for k in range(11):
        expected = Fraction(-2 * (-1) ** (k // 2), factorial(k)) if k % 2 == 0 else 0
        assert result.coefficient(k) == expected


def test_substitution_rejects_asymmetric_input():
    with pytest.raises(ArithmeticError, match="not\\s+q <-> 1/q symmetric"):
        substitute_q_minus_exp(RationalFunction((0, 1)), 6)
    # 1/(1-q): the denominator's degree range centres on the half-integer 1/2
    with pytest.raises(ArithmeticError, match="not\\s+q <-> 1/q symmetric"):
        substitute_q_minus_exp(RationalFunction((1,), (1, -1)), 6)


@pytest.mark.parametrize("u_order", range(-4, 13))
@pytest.mark.parametrize(
    "fn",
    [
        # every odd centred power sum below t = 7 vanishes
        RationalFunction((0, 0, -14, -14, -6, -1), (1, 2, 1)),
        # the numerator is palindromic, about q^2 instead of q^1
        RationalFunction((1, 0, 1, 0, 1), (1, 2, 1)),
    ],
    ids=["odd-sums-from-t7", "wrong-centre"],
)
def test_substitution_rejects_asymmetry_at_every_order(fn, u_order):
    with pytest.raises(ArithmeticError, match="not\\s+q <-> 1/q symmetric"):
        substitute_q_minus_exp(fn, u_order)


def test_folded_even_sums_take_the_sign_of_the_centre():
    # about q^(1/2) the signed coefficients of 1 - q are palindromic, those of 1 + q are not
    assert pairs._folded_even_sums((1, -1), 1, 2) == [2, -2, 2]
    with pytest.raises(ArithmeticError, match="not\\s+q <-> 1/q symmetric"):
        pairs._folded_even_sums((1, 1), 1, 2)


def test_even_quotient_keeps_its_denominator_reduced():
    # q/(1+q)^2 to u^402: the product of all 203 pivots C(2k+2, 2) * 8 has
    # about 3600 bits, the reduced denominator of the kappas about 550
    alpha = pairs._folded_even_sums((0, 1), 2, 205)
    beta = pairs._folded_even_sums((1, 2, 1), 2, 205)
    _, common = pairs._even_quotient(alpha, beta, 0, 1, 203)
    kappa_den, rem = divmod(common, factorial(404) << 2 * 201)
    assert rem == 0
    assert abs(kappa_den).bit_length() < 1000


def _symmetric_function(rng):
    """A random ratio of integer polynomials in q + 1/q, which is q <-> 1/q symmetric."""
    w = RationalFunction((1, 0, 1), (0, 1))
    num = sum((w**k * rng.randint(-9, 9) for k in range(rng.randint(0, 4))), RationalFunction.one())
    den = sum((w**k * rng.randint(-9, 9) for k in range(rng.randint(0, 4))), w + 2)
    return num * den**-1


def test_substitution_accepts_symmetric_and_rejects_perturbed_functions():
    rng = Random(20)
    for _ in range(40):
        fn = _symmetric_function(rng)
        if fn.is_zero:
            continue
        assert check_q_inversion_symmetry(fn)
        assert substitute_q_minus_exp(fn, 10) == inverse_route_substitution(fn, 10)
        bumped = fn + RationalFunction.monomial(rng.randint(1, 6), Fraction(rng.randint(1, 9), 7))
        for u_order in (-2, 0, 10):
            with pytest.raises(ArithmeticError, match="not\\s+q <-> 1/q symmetric"):
                substitute_q_minus_exp(bumped, u_order)


def test_inexact_pivot_division_raises(monkeypatch):
    # a common denominator that misses the pivots cannot hold the quotient
    monkeypatch.setattr(pairs, "prod", lambda pivots: 1)
    with pytest.raises(ArithmeticError, match="inexact pivot division"):
        substitute_q_minus_exp(FOOTNOTE, 12)


@pytest.mark.parametrize(
    "d, h, extra_pole",
    [
        pytest.param(1, 1, 0, id="1-1"),
        pytest.param(2, 1, 0, id="2-1"),
        pytest.param(1, 1, 2, id="1-1-pole4"),
        pytest.param(2, 1, 4, id="2-1-pole6"),
    ],
)
def test_substitution_matches_sympy_series(grid5, d, h, extra_pole):
    sympy = pytest.importorskip("sympy")
    u = sympy.Symbol("u")
    q = -sympy.exp(sympy.I * u)
    # each factor q/(1+q)^2 raises the order of the pole at q = -1 by two
    fn = multiple_cover(HodgeLabel(d, h), grid5) * FOOTNOTE ** (extra_pole // 2)

    def at_q(poly):
        return sum(sympy.Rational(c.numerator, c.denominator) * q**j for j, c in enumerate(poly))

    expected = sympy.series(at_q(fn.numerator) / at_q(fn.denominator), u, 0, 9).removeO()
    ours = substitute_q_minus_exp(fn, 8)
    assert ours.truncation_order == 8
    ours_expr = sum(
        sympy.Rational(c.numerator, c.denominator) * u**k for k, c in ours.items()
    )
    assert sympy.simplify(expected - ours_expr) == 0


def _fraction_multiplicity(p, root):
    """Multiplicity of a root of a Fraction polynomial by repeated synthetic division."""
    mult = 0
    while p and sum(c * root**j for j, c in enumerate(p)) == 0:
        quotient, carry = [Fraction(0)] * (len(p) - 1), Fraction(0)
        for i in range(len(p) - 1, 0, -1):
            carry = p[i] + carry * root
            quotient[i - 1] = carry
        while quotient and not quotient[-1]:
            quotient.pop()
        p, mult = quotient, mult + 1
    return mult


def _fraction_centred_series(p, centre2, order):
    """e^{-iau} p(-e^{iu}) over Fraction, term by term from the exponential series."""
    coeffs = []
    for t in range(order + 1):
        total = sum(c * (-1) ** j * Fraction(2 * j - centre2, 2) ** t for j, c in enumerate(p))
        assert t % 2 == 0 or total == 0
        coeffs.append(total * (-1) ** (t // 2) / factorial(t))
    return LaurentSeries("u", 0, coeffs, order)


def inverse_route_substitution(fn, u_order):
    """Oracle: the Laurent-series route, num * den.inverse() over Fraction, with the
    expansion order taken from the multiplicities of q = -1."""
    pole = _fraction_multiplicity(fn.denominator, -1)
    zero = _fraction_multiplicity(fn.numerator, -1)
    work = max(u_order, 0) + 2 * pole + zero + 2
    centre2 = next(i for i, c in enumerate(fn.denominator) if c) + len(fn.denominator) - 1
    num = _fraction_centred_series(fn.numerator, centre2, work)
    den = _fraction_centred_series(fn.denominator, centre2, work)
    assert (num.valuation(), den.valuation()) == (zero, pole)
    return (num * den.inverse()).truncate(u_order)


def test_substitution_matches_inverse_route_on_small_classes(grid65):
    ledger = PairsLedger(grid65)
    for d in range(1, 5):
        for h in range(6):
            fn = multiple_cover(HodgeLabel(d, h), grid65, ledger)
            top = inverse_route_substitution(fn, 40)
            for u_order in range(41):
                assert substitute_q_minus_exp(fn, u_order) == top.truncate(u_order), (d, h, u_order)


@pytest.mark.parametrize(
    "d, h, power",
    [
        pytest.param(d, h, power, id=f"{d}-{h}-footnote^{power}")
        for d, h in ((1, 0), (1, 1), (2, 1), (3, 2))
        for power in (-3, 1, 2)
    ],
)
def test_substitution_matches_inverse_route_at_high_zero_and_pole(grid65, ledger65, d, h, power):
    # footnote^-3 makes the zero at q = -1 of order 4 exceed the pole; ^1 and
    # ^2 raise the pole to order 4 and 6
    fn = multiple_cover(HodgeLabel(d, h), grid65, ledger65) * FOOTNOTE**power
    top = inverse_route_substitution(fn, 40)
    for u_order in range(41):
        assert substitute_q_minus_exp(fn, u_order) == top.truncate(u_order), u_order


@pytest.mark.parametrize(
    "fn",
    [RationalFunction((Fraction(5, 7),)), RationalFunction((1, 0, 1), (0, 1))],
    ids=["constant", "q+1/q"],
)
def test_substitution_matches_inverse_route_without_pole_or_zero(fn):
    top = inverse_route_substitution(fn, 40)
    for u_order in range(41):
        assert substitute_q_minus_exp(fn, u_order) == top.truncate(u_order)


@pytest.mark.parametrize("d, h", [(1, 1), (14, 2)])
def test_substitution_matches_inverse_route_at_the_order_limit(d, h):
    grid = bps_grid_from_kkv(grid_column(d, h))
    fn = multiple_cover(HodgeLabel(d, h), grid)
    assert substitute_q_minus_exp(fn, 402) == inverse_route_substitution(fn, 402)


def test_substitution_matches_inverse_route_on_rational_nl_combinations(grid20, ledger20):
    labels = [ClassLabel(m, h) for m, h in ((1, 0), (1, 1), (1, 2), (2, 1), (2, 5))]
    rows = [f"beta{i}" for i in range(len(labels))]
    _, pairs_vec = synthetic_k3_vectors(labels, grid20, 8, ledger20)
    drawn = NlMatrix.random_invertible(rows, labels, Random(7))
    weights = NlMatrix(rows, labels, drawn.inverse_data())
    assert any(w.denominator > 1 for row in weights.data for w in row)
    fibre = combine(pairs_vec, weights)
    for row in rows:
        fn = fibre.value(row)
        assert any(c.denominator > 1 for c in fn.numerator), row
        top = inverse_route_substitution(fn, 40)
        for u_order in range(41):
            assert substitute_q_minus_exp(fn, u_order) == top.truncate(u_order), (row, u_order)


def test_substitution_below_the_valuation_is_the_zero_series():
    # q/(1+q)^2 starts at u^-2, (1+q)^4/q^2 at u^4
    for fn, u_order in ((FOOTNOTE, -3), (FOOTNOTE, -4), (FOOTNOTE ** -2, 3), (FOOTNOTE ** -2, -1)):
        result = substitute_q_minus_exp(fn, u_order)
        assert result == LaurentSeries.zero("u", u_order)
        assert result == inverse_route_substitution(fn, u_order)


def test_substitution_work_order_reaches_both_valuations(grid20, ledger20):
    fn = multiple_cover(HodgeLabel(2, 1), grid20, ledger20)
    assert substitution_work_order(fn, 10) == 10 + 2 * 2 + 0 + 2
    assert substitution_work_order(FOOTNOTE ** -2, 6) == 6 + 0 + 4 + 2
    with pytest.raises(ValueError, match="vanishing numerator"):
        substitution_work_order(RationalFunction.zero(), 6)


def test_substitution_rejects_zero():
    with pytest.raises(ValueError, match="vanishing numerator"):
        substitute_q_minus_exp(RationalFunction.zero(), 6)


def test_bps_table_from_grid_records_squares(grid20):
    table = bps_table_from_grid(grid20, 3, 2)
    for grade, square in {1: 2, 2: 5, 3: 10}.items():
        assert all(table.value(g, grade) == grid20.value(g, square) for g in range(square + 1))
    with pytest.raises(ValueError, match="grid stops"):
        bps_table_from_grid(grid20, 5, 2)


def test_mnop_check_primitive_square_minus_two(grid5, ledger20, grid20):
    report = mnop_check(HodgeLabel(1, 0), grid5, 12)
    assert report.equal
    assert report.lhs.coefficient(-2) == 1
    assert report.lhs.coefficient(0) == Fraction(1, 12)
    assert report.rhs == report.lhs


def test_mnop_check_imprimitive_cases(grid20, ledger20):
    for d, h in ((2, 1), (3, 2)):
        report = mnop_check(HodgeLabel(d, h), grid20, 12, ledger20)
        assert report.equal, report.first_mismatch


def test_mnop_check_composite_divisor_sets():
    # d = 4 and d = 6 exercise the q -> -(-q)^k substitution for k in {2,3,4,6}
    from k3bps import bps_grid_from_kkv

    grid = bps_grid_from_kkv(33)
    ledger = PairsLedger(grid)
    for d, h in ((4, 2), (6, 1)):
        outcome = mnop_check(HodgeLabel(d, h), grid, 10, ledger)
        assert outcome.equal, outcome.first_mismatch


def test_mnop_check_high_genus_primitive():
    # h = 60 needs the sine brackets of every genus up to 60 through u^122,
    # checked against the pairs side, which shares no series code with them
    report = mnop_check(HodgeLabel(1, 60), bps_grid_from_kkv(60), 122)
    assert report.equal, report.first_mismatch


def test_mnop_check_large_divisibility():
    # grid columns 129 and 145; each multiple cover sum reduces operands that
    # carry different powers of q
    grid = bps_grid_from_kkv(145)
    ledger = PairsLedger(grid)
    for d, h, u_order in ((8, 3, 30), (12, 2, 24)):
        report = mnop_check(HodgeLabel(d, h), grid, u_order, ledger)
        assert report.equal, report.first_mismatch


def test_mnop_report_truthiness(grid20, ledger20):
    report = mnop_check(HodgeLabel(2, 1), grid20, 10, ledger20)
    assert bool(report)
    assert report.first_mismatch is None


def test_disconnected_partition_first_grade(grid5):
    ledger = PairsLedger(grid5)
    part = disconnected_partition(grid5, 1, 1, ledger)
    assert part.has_unit
    assert part.entry(1) == multiple_cover(HodgeLabel(1, 1), grid5, ledger)


def test_disconnected_partition_second_grade(grid20, ledger20):
    part = disconnected_partition(grid20, 1, 2, ledger20)
    conn1 = multiple_cover(HodgeLabel(1, 1), grid20, ledger20)
    conn2 = multiple_cover(HodgeLabel(2, 1), grid20, ledger20)
    assert part.entry(2) == conn2 + conn1 * conn1 * Fraction(1, 2)


def test_disconnected_partition_log_roundtrip(grid20, ledger20):
    part = disconnected_partition(grid20, 2, 3, ledger20)
    connected = part.log()
    for d in (1, 2, 3):
        assert connected.entry(d) == multiple_cover(HodgeLabel(d, 2), grid20, ledger20)


def test_substitution_commutes_with_graded_exponential(grid20, ledger20):
    # q = -e^(iu) is a ring map, so exponentiating the connected entries and
    # then substituting agrees with substituting first and exponentiating the
    # resulting u-series, grade by grade on the common window
    from k3bps import GradedSeries

    h, d_max, u_order = 1, 3, 8
    ratfn_side = disconnected_partition(grid20, h, d_max, ledger20)
    series_entries = {
        d: substitute_q_minus_exp(multiple_cover(HodgeLabel(d, h), grid20, ledger20), u_order)
        for d in range(1, d_max + 1)
    }
    series_side = GradedSeries(d_max, series_entries).exp()
    for d in range(1, d_max + 1):
        via_ratfn = substitute_q_minus_exp(ratfn_side.entry(d), u_order)
        assert via_ratfn.agrees_with(series_side.entry(d))
