from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3bps import (
    RationalFunction,
    check_q_inversion_symmetry,
    ratfn_expand,
)
from k3bps.jsonio import ratfn_to_jsonable
from k3bps.rational import _pexact_div

coeffs = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=4), min_size=1, max_size=5
)
nonzero_polys = coeffs.filter(lambda cs: any(cs))
ratfns = st.builds(RationalFunction, coeffs, nonzero_polys)
scalars = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
)


FOOTNOTE = RationalFunction((0, 1), (1, 2, 1))  # q / (1+q)^2


# Fraction-tuple polynomial arithmetic for the oracles below, kept apart from
# the integer arithmetic inside RationalFunction.


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    return tuple(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a))


def _pscale(a, s):
    return tuple(Fraction(s) * c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def test_canonical_form_reduces_common_factors():
    # q*(1+q) / (1+q) -> q
    assert RationalFunction((0, 1, 1), (1, 1)) == RationalFunction((0, 1))
    # denominator is normalized monic
    fn = RationalFunction((2,), (0, 4))
    assert fn.denominator == (0, 1)
    assert fn.numerator == (Fraction(1, 2),)


@given(ratfns)
@example(RationalFunction.zero())
@example(RationalFunction((Fraction(-1, 2), 0, Fraction(3, 4)), (0, Fraction(-2, 3))))
def test_stored_pair_is_the_canonical_integer_pair(fn):
    num, den = fn.integer_pair
    assert all(type(c) is int for c in num + den)
    assert gcd(*num, *den) == 1
    assert den[-1] > 0
    if fn.is_zero:
        assert (num, den) == ((), (1,))
    assert fn.denominator[-1] == 1
    assert all(type(c) is Fraction for c in fn.numerator + fn.denominator)


@given(ratfns)
def test_public_view_and_json_round_trip(fn):
    assert RationalFunction(fn.numerator, fn.denominator) == fn
    # the JSON form is lossless: its exact strings rebuild the function
    payload = ratfn_to_jsonable(fn)
    parts = ([Fraction(c) for c in payload[key]] for key in ("numerator", "denominator"))
    assert RationalFunction(*parts) == fn


def test_exact_division_raises_on_any_remainder():
    # 1 + q^2 = (q - 1)(1 + q) + 2: the remainder sits in the constant term only
    with pytest.raises(ArithmeticError):
        _pexact_div((1, 0, 1), (1, 1))
    with pytest.raises(ArithmeticError):
        _pexact_div((1, 1), (2, 2))  # divisible over Q, not over Z
    with pytest.raises(ArithmeticError):
        _pexact_div((3,), (1, 1))  # divisor of higher degree
    assert _pexact_div((1, 0, -1), (1, 1)) == (1, -1)
    assert _pexact_div((), (1, 1)) == ()


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunction((1,), (0,))


def test_ratfn_eq_examples():
    assert FOOTNOTE == FOOTNOTE
    with_common_factor = RationalFunction((0, 1, 1), (1, 3, 3, 1))  # (q^2+q)/(1+q)^3
    assert with_common_factor == FOOTNOTE
    assert RationalFunction((0, 1)) != RationalFunction((0, 0, 1))


def test_expand_footnote_series():
    series = ratfn_expand(FOOTNOTE, 10)
    assert series.min_degree == 1
    for n in range(1, 11):
        assert series.coefficient(n) == (-1) ** (n + 1) * n


def test_expand_geometric():
    series = ratfn_expand(RationalFunction((1,), (1, -1)), 6)
    assert all(series.coefficient(n) == 1 for n in range(7))


def test_expand_pole_at_zero():
    series = ratfn_expand(RationalFunction((1,), (0, 1)), 3)
    assert series.min_degree == -1
    assert series.coefficient(-1) == 1
    assert all(series.coefficient(n) == 0 for n in range(0, 4))


def test_expand_zero_function():
    assert ratfn_expand(RationalFunction.zero(), 5).is_zero


def test_inversion_symmetry_examples():
    assert check_q_inversion_symmetry(FOOTNOTE)
    assert check_q_inversion_symmetry(RationalFunction((1, 0, 1), (0, 1)))  # q + 1/q
    assert not check_q_inversion_symmetry(RationalFunction((0, 1)))  # q


def test_reciprocal_substitution_is_involutive():
    fn = RationalFunction((1, 2, 0, 5), (0, 0, 1, 7))
    assert fn.reciprocal_substitution().reciprocal_substitution() == fn


@pytest.mark.parametrize(
    "fn, text",
    [
        (RationalFunction((Fraction(1, 2), 0, -3, 1)), "1/2 - 3*q^2 + q^3"),
        (RationalFunction((Fraction(-7, 3),)), "-7/3"),
        (RationalFunction((0, -1)), "-q"),
        (RationalFunction.zero(), "0"),
        (FOOTNOTE, "(q)/(1 + 2*q + q^2)"),
        (RationalFunction((1,), (2, 3)), "(1/3)/(2/3 + q)"),
        (
            RationalFunction((-1, Fraction(2, 3), 0, -1), (0, 0, 5, -1)),
            "(1 - 2/3*q + q^3)/(-5*q^2 + q^3)",
        ),
    ],
)
def test_str_golden(fn, text):
    assert str(fn) == text


def test_monomial_and_pow():
    q = RationalFunction.monomial(1)
    assert q ** 3 == RationalFunction.monomial(3)
    assert q ** -2 == RationalFunction.monomial(-2)
    assert RationalFunction.monomial(-1) * q == RationalFunction.one()


def test_substitute_scaled_power():
    # q -> -q^2 inside q/(1+q)^2 gives -q^2/(1-q^2)^2
    composed = FOOTNOTE.substitute_scaled_power(-1, 2)
    expected = RationalFunction((0, 0, -1), (1, 0, -2, 0, 1))
    assert composed == expected
    # q -> q^3 inside q/(1+q)^2 gives q^3/(1+q^3)^2
    assert FOOTNOTE.substitute_scaled_power(1, 3) == RationalFunction(
        (0, 0, 0, 1), (1, 0, 0, 2, 0, 0, 1)
    )


@pytest.mark.parametrize("scale, power", [(2, 1), (0, 1), (Fraction(-1, 2), 1), (1, 0), (-1, 0)])
def test_substitute_scaled_power_rejects_other_changes_of_variable(scale, power):
    with pytest.raises(ValueError):
        FOOTNOTE.substitute_scaled_power(scale, power)


@given(ratfns, st.sampled_from((1, -1)), st.integers(min_value=1, max_value=4))
def test_substitute_scaled_power_matches_expansion(a, scale, power):
    # the series of a(scale * q^power) is the series of a with x^n -> scale^n q^(n*power)
    order = 6
    series = ratfn_expand(a, order)
    coefficients = {n * power: scale ** abs(n) * c for n, c in series.items() if c}
    composed = ratfn_expand(a.substitute_scaled_power(scale, power), order * power)
    for degree in range(composed.min_degree, order * power + 1):
        assert composed.coefficient(degree) == coefficients.get(degree, 0)


def test_evaluate_exact():
    assert FOOTNOTE.evaluate(Fraction(1, 2)) == Fraction(2, 9)
    with pytest.raises(ZeroDivisionError):
        FOOTNOTE.evaluate(Fraction(-1))


@given(ratfns, ratfns, ratfns)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(ratfns, ratfns)
def test_expand_is_additive(a, b):
    order = 5
    lhs = ratfn_expand(a, order) + ratfn_expand(b, order)
    rhs = ratfn_expand(a + b, order)
    assert lhs.agrees_with(rhs)


@given(ratfns)
def test_cross_multiplication_agrees_with_canonical_equality(a):
    doubled = RationalFunction(
        tuple(2 * c for c in a.numerator), tuple(2 * c for c in a.denominator)
    )
    (an, ad), (bn, bd) = a.integer_pair, doubled.integer_pair
    assert _pmul(an, bd) == _pmul(bn, ad)
    assert a == doubled


@given(ratfns, st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=7))
def test_symmetry_implies_equal_values_at_reciprocal_points(a, q0):
    symmetric = a + a.reciprocal_substitution()
    assert check_q_inversion_symmetry(symmetric)
    try:
        left = symmetric.evaluate(q0)
        right = symmetric.evaluate(1 / q0)
    except ZeroDivisionError:
        return
    assert left == right


def _equal_at_reciprocal_points(a):
    """a(x) == a(1/x) at deg(num) + deg(den) + 1 points x > 1 that are not poles.

    a(x) - a(1/x) is a rational function of degree at most 2*max(deg) that
    changes sign under x -> 1/x, so each zero x > 1 brings the distinct zero
    1/x; more than max(deg) zeros above 1 make it vanish identically.
    """
    needed = len(a.numerator) + len(a.denominator) - 1
    x = 2
    while needed > 0:
        try:
            if a.evaluate(Fraction(x)) != a.evaluate(Fraction(1, x)):
                return False
            needed -= 1
        except ZeroDivisionError:
            pass
        x += 1
    return True


@given(ratfns, st.booleans())
@example(FOOTNOTE, False)
@example(RationalFunction((0, 1)), False)  # q: a(x) == a(1/x) only at x = +-1
@example(RationalFunction((1, 1, 1), (0, 1, 3)), False)  # deg num == deg den, not symmetric
@example(RationalFunction.zero(), False)
def test_symmetry_check_matches_values_at_reciprocal_points(a, symmetrise):
    if symmetrise:
        a = a + a.reciprocal_substitution()
    assert check_q_inversion_symmetry(a) == _equal_at_reciprocal_points(a)


def _structure(fn):
    return fn.numerator, fn.denominator


def _eager_fold(terms):
    """sum of w*f with a full reduction after every step: cross-multiply, then reduce."""
    total = RationalFunction.zero()
    for w, f in terms:
        term = RationalFunction(_pscale(f.numerator, Fraction(w)), f.denominator)
        total = RationalFunction(
            _padd(_pmul(total.numerator, term.denominator), _pmul(term.numerator, total.denominator)),
            _pmul(total.denominator, term.denominator),
        )
    return total


ONE_OVER_1PQ = RationalFunction((1,), (1, 1))


@given(st.lists(st.tuples(scalars, ratfns), max_size=4))
@example([])
@example([(0, FOOTNOTE), (Fraction(0), ONE_OVER_1PQ)])
@example([(2, FOOTNOTE), (-2, FOOTNOTE), (1, RationalFunction.zero())])
@example([(1, ONE_OVER_1PQ), (1, RationalFunction((0, 1), (1, 1)))])  # equal denominators, sum 1
@example([(3, RationalFunction((1,), (1, -1))), (Fraction(1, 2), ONE_OVER_1PQ)])  # coprime
def test_linear_combination_matches_eager_fold(terms):
    lazy = RationalFunction.linear_combination(terms)
    assert _structure(lazy) == _structure(_eager_fold(terms))
    if lazy.is_zero:
        assert _structure(lazy) == ((), (1,))


@given(ratfns, scalars)
def test_scalar_operations_match_generic_path(a, c):
    constant = RationalFunction((c,))
    product = RationalFunction(_pmul(a.numerator, (Fraction(c),)), a.denominator)
    total = RationalFunction(_padd(a.numerator, _pscale(a.denominator, Fraction(c))), a.denominator)
    assert _structure(a * c) == _structure(c * a) == _structure(product)
    assert _structure(a + c) == _structure(c + a) == _structure(total)
    assert _structure(a * c) == _structure(a * constant)
    assert _structure(a - c) == _structure(a + (-constant))
    assert _structure(c - a) == _structure(constant - a)


@given(ratfns, st.integers(min_value=-3, max_value=4))
@example(RationalFunction.zero(), -1)
def test_pow_matches_reduced_product(a, e):
    if e < 0 and a.is_zero:
        with pytest.raises(ZeroDivisionError):
            a ** e
        return
    base = a if e >= 0 else RationalFunction(a.denominator, a.numerator)
    num, den = (Fraction(1),), (Fraction(1),)
    for _ in range(abs(e)):
        num, den = _pmul(num, base.numerator), _pmul(den, base.denominator)
    assert _structure(a ** e) == _structure(RationalFunction(num, den))


@settings(deadline=None)  # the first example pays for importing sympy
@given(coeffs, nonzero_polys)
# operands with different powers of q that share a factor other than q,
# e.g. q^3 (1+q)(2+q) / (q (1+q)^2) = q^2 (2+q)/(1+q); then with the larger
# power below, q (1+q)^2 (2-q) / (q^4 (1+q)), and a non-monic denominator
@example([0, 0, 0, 2, 3, 1], [0, 1, 2, 1])
@example([0, 2, 3, 0, -1], [0, 0, 0, 0, 1, 1])
@example([0, 0, 1, 2, 1], [0, 0, 0, 0, 0, 3, 3])
def test_canonical_form_matches_sympy_cancel(num, den):
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def as_expr(poly):
        return sum(sympy.Rational(c.numerator, c.denominator) * q**j for j, c in enumerate(poly))

    def as_tuple(expr):
        coeffs = reversed(sympy.Poly(expr, q).all_coeffs())
        return tuple(Fraction(int(c.p), int(c.q)) for c in coeffs)

    p, d = sympy.fraction(sympy.cancel(as_expr(num) / as_expr(den)))
    lead = sympy.Poly(d, q).LC()
    expected = (as_tuple(p / lead), as_tuple(d / lead))
    if expected[0] == (0,):
        expected = ((), expected[1])
    assert _structure(RationalFunction(num, den)) == expected


def test_linear_combination_takes_int_weights_as_they_are_and_rejects_floats():
    terms = [(3, FOOTNOTE), (-2, ONE_OVER_1PQ)]
    as_fractions = [(Fraction(w), fn) for w, fn in terms]
    total = RationalFunction.linear_combination(terms)
    assert _structure(total) == _structure(RationalFunction.linear_combination(as_fractions))
    assert _structure(total) == _structure(_eager_fold(terms))
    with pytest.raises(TypeError, match="float"):
        RationalFunction.linear_combination([(1, FOOTNOTE), (0.5, ONE_OVER_1PQ)])
