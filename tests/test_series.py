from fractions import Fraction
from math import factorial, gcd, lcm

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from k3bps import GaussianRational, LaurentSeries
from k3bps.series import _series_quotient

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def q_series(min_degree=0, order=6):
    return st.lists(rationals, min_size=1, max_size=order - min_degree + 1).map(
        lambda cs: LaurentSeries("q", min_degree, cs, order)
    )


def geometric(order):
    return LaurentSeries("q", 0, [1] * (order + 1), order)


def test_difference_of_squares():
    one_plus = LaurentSeries("q", 0, [1, 1], 5)
    one_minus = LaurentSeries("q", 0, [1, -1], 5)
    product = one_plus * one_minus
    assert product.coefficient(0) == 1
    assert product.coefficient(1) == 0
    assert product.coefficient(2) == -1


def test_monomial_degree_cancellation():
    a = LaurentSeries.monomial("u", -2, 1, 4)
    b = LaurentSeries.monomial("u", 2, 1, 4)
    product = a * b
    assert product.coefficient(0) == 1
    assert product.valuation() == 0


def test_geometric_series_inverse():
    order = 8
    product = geometric(order) * LaurentSeries("q", 0, [1, -1], order)
    assert all(product.coefficient(k) == (1 if k == 0 else 0) for k in range(order + 1))


def test_inverse_of_one_minus_q_is_geometric():
    inv = LaurentSeries("q", 0, [1, -1], 8).inverse()
    assert inv == geometric(8)


def test_gaussian_coefficients_are_rejected():
    with pytest.raises(TypeError, match="GaussianRational"):
        LaurentSeries("u", 0, [1, GaussianRational(0, 1)], 2)


def test_inverse_of_monomial():
    assert LaurentSeries.monomial("q", 1, 1, 3).inverse().valuation() == -1


def test_inverse_of_even_valuation_series_checked_by_multiplying_back():
    # u^2 * (1 - u^2/12 + u^4/360) is (2 sin(u/2))^2; its inverse must start
    # at u^-2 with constant term 1/12 and satisfy a * inv(a) = 1.
    a = LaurentSeries(
        "u", 2, [1, 0, Fraction(-1, 12), 0, Fraction(1, 360)], 8
    )
    inv = a.inverse()
    assert inv.min_degree == -2
    assert inv.coefficient(0) == Fraction(1, 12)
    product = a * inv
    for degree in range(product.min_degree, product.truncation_order + 1):
        assert product.coefficient(degree) == (1 if degree == 0 else 0)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        LaurentSeries.zero("q", 4).inverse()


def test_variable_mismatch_raises():
    with pytest.raises(ValueError, match="variable mismatch"):
        LaurentSeries.one("q", 3) * LaurentSeries.one("u", 3)
    with pytest.raises(ValueError, match="variable mismatch"):
        LaurentSeries.one("q", 3) + LaurentSeries.one("t", 3)


def test_unknown_variable_tag_rejected():
    with pytest.raises(ValueError):
        LaurentSeries("x", 0, [1], 2)


def test_coefficient_beyond_truncation_raises():
    s = LaurentSeries("q", 0, [1, 2], 1)
    assert s.coefficient(1) == 2
    with pytest.raises(ValueError, match="beyond the truncation"):
        s.coefficient(2)


def test_truncation_propagates_pessimistically():
    a = LaurentSeries("q", 0, [1] * 9, 8)
    b = LaurentSeries("q", 0, [1] * 5, 4)
    assert (a + b).truncation_order == 4
    assert (a * b).truncation_order == 4
    shifted = LaurentSeries("q", 2, [1, 1, 1], 4)
    # product order = min(8 + 2, 4 + 0) = 4
    assert (a * shifted).truncation_order == 4


def test_inverse_truncation_window():
    a = LaurentSeries("u", 2, [1, 0, 1], 10)
    assert a.inverse().truncation_order == 6


def test_series_quotient_by_a_sparse_divisor_with_fraction_lead():
    # 1 / (3/2 - q^3) = sum_k (2/3)^(k+1) q^(3k)
    quotient = _series_quotient((1,), (Fraction(3, 2), 0, 0, -1), 10)
    assert quotient == [Fraction(2, 3) ** (n // 3 + 1) if n % 3 == 0 else 0 for n in range(10)]
    assert all(type(b) is Fraction for b in quotient)


def test_series_quotient_at_count_zero_and_one():
    assert _series_quotient((5, 7), (3, 1), 0) == []
    assert _series_quotient((5, 7), (3, 1), 1) == [Fraction(5, 3)]
    assert _series_quotient((), (-2, 1), 1) == [0]


def test_series_quotient_ignores_divisor_terms_beyond_count():
    # (1 + q) / (2 + q + 5q^3 - 7q^6): only 2 + q is read below q^3
    quotient = _series_quotient((1, 1), (2, 1, 0, 5, 0, 0, -7), 3)
    assert quotient == [Fraction(1, 2), Fraction(1, 4), Fraction(-1, 8)]
    assert quotient == _series_quotient((1, 1), (2, 1), 3)


exact_lists = st.lists(rationals, max_size=8)


@given(exact_lists, exact_lists.filter(lambda cs: cs and cs[0]), st.integers(0, 10))
def test_series_quotient_multiplies_back(num, den, count):
    quotient = _series_quotient(num, den, count)
    assert len(quotient) == count
    for n in range(count):
        back = sum(den[k] * quotient[n - k] for k in range(min(n + 1, len(den))))
        assert back == (num[n] if n < len(num) else 0)


@given(q_series(), q_series(), q_series())
def test_ring_axioms(a, b, c):
    assert ((a + b) + c).agrees_with(a + (b + c))
    assert ((a * b) * c).agrees_with(a * (b * c))
    assert (a * (b + c)).agrees_with(a * b + a * c)


@given(q_series())
def test_inverse_is_two_sided(a):
    if a.is_zero:
        return
    inv = a.inverse()
    left = a * inv
    right = inv * a
    for product in (left, right):
        for degree in range(product.min_degree, product.truncation_order + 1):
            assert product.coefficient(degree) == (1 if degree == 0 else 0)


@given(q_series())
def test_scalar_distributes(a):
    assert (a * Fraction(3, 7) + a * Fraction(4, 7)).agrees_with(a)


@st.composite
def u_series(draw):
    """Series with mixed min_degrees and truncation orders."""
    lo = draw(st.integers(-3, 3))
    order = draw(st.integers(lo, lo + 8))
    coeffs = draw(st.lists(rationals, min_size=1, max_size=order - lo + 1))
    return LaurentSeries("u", lo, coeffs, order)


weights = st.one_of(st.just(0), st.integers(-3, 3), rationals)


def _coefficientwise(terms):
    """The truncation of the sum and its coefficients by degree, read one at a time."""
    kept = [(w, s) for w, s in terms if w] or terms
    order = min(s.truncation_order for _, s in kept)
    lo = min(s.min_degree for _, s in kept)
    return order, {n: sum(w * s.coefficient(n) for w, s in kept) for n in range(lo, order + 1)}


@given(st.lists(st.tuples(weights, u_series()), min_size=1, max_size=5))
def test_linear_combination_matches_repeated_add_and_scale(terms):
    total = LaurentSeries.linear_combination(terms)
    kept = [(w, s) for w, s in terms if w]
    if kept:
        fold = kept[0][1] * kept[0][0]
        for w, s in kept[1:]:
            fold = fold + s * w
        assert total == fold
    order, coeffs = _coefficientwise(terms)
    assert total.truncation_order == order
    assert all(total.coefficient(n) == c for n, c in coeffs.items())


@given(st.lists(u_series(), min_size=1, max_size=4))
def test_linear_combination_with_all_weights_zero_is_zero(series):
    total = LaurentSeries.linear_combination([(0, s) for s in series])
    assert total == LaurentSeries.zero("u", min(s.truncation_order for s in series))


def test_linear_combination_rejects_mixed_variables_and_no_terms():
    with pytest.raises(ValueError, match="variable mismatch"):
        LaurentSeries.linear_combination([(1, geometric(3)), (1, LaurentSeries.one("u", 3))])
    with pytest.raises(ValueError, match="at least one term"):
        LaurentSeries.linear_combination([])


nonzero_scales = st.one_of(st.integers(-4, 4), rationals).filter(bool)


@given(u_series(), nonzero_scales, nonzero_scales)
def test_rescaled_composes_and_scales_each_coefficient(a, j, k):
    assert a.rescaled(j).rescaled(k) == a.rescaled(j * k)
    b = a.rescaled(k)
    assert (b.min_degree, b.truncation_order) == (a.min_degree, a.truncation_order)
    for n in range(a.min_degree, a.truncation_order + 1):
        assert b.coefficient(n) == a.coefficient(n) * Fraction(k) ** n


def test_linear_combination_rejects_float_weights():
    with pytest.raises(TypeError, match="float"):
        LaurentSeries.linear_combination([(1, geometric(3)), (0.5, geometric(3))])


# The Fraction-list arithmetic that LaurentSeries used before it stored integer
# numerators over one denominator, kept as an oracle for the integer paths.


def oracle_linear_combination(terms):
    terms = [(Fraction(w), s) for w, s in terms]
    parts = [(w, s) for w, s in terms if w] or terms
    order = min(s.truncation_order for _, s in parts)
    lo = min(min(s.min_degree for _, s in parts), order)
    out = [Fraction(0)] * (order - lo + 1)
    for weight, s in parts:
        base = s.min_degree - lo
        for k, c in enumerate(s.coefficients[: max(order - lo - base + 1, 0)]):
            if c:
                out[base + k] += weight * c
    return LaurentSeries(terms[0][1].variable, lo, out, order)


def oracle_mul(a, b):
    order = min(a.truncation_order + b.min_degree, b.truncation_order + a.min_degree)
    lo = a.min_degree + b.min_degree
    width = order - lo + 1
    if width < 1:
        return LaurentSeries.zero(a.variable, order)
    out = [Fraction(0)] * width
    for i, x in enumerate(a.coefficients):
        top = min(len(b.coefficients), width - i)
        for j in range(top):
            out[i + j] += x * b.coefficients[j]
    return LaurentSeries(a.variable, lo, out, order)


def oracle_rescaled(a, k):
    k = Fraction(k)
    return LaurentSeries(
        a.variable, a.min_degree, [c * k**n for n, c in a.items()], a.truncation_order
    )


def oracle_first_difference(a, b, through):
    for degree in range(min(a.min_degree, b.min_degree), through + 1):
        if a.coefficient(degree) != b.coefficient(degree):
            return degree, a.coefficient(degree), b.coefficient(degree)
    return None


def assert_canonical(s):
    num, den = s._num, s._den
    assert den > 0 and gcd(den, *num) == 1
    assert len(num) == s.truncation_order - s.min_degree + 1
    if not num[0]:
        assert (num, den, s.min_degree) == ((0,), 1, s.truncation_order)
    assert s.coefficients == tuple(Fraction(c, den) for c in num)


# Coefficients over factorial denominators, as in the genus expansions, next to
# small rationals and zeros.
wide = st.builds(
    Fraction,
    st.integers(-(10**6), 10**6),
    st.sampled_from([factorial(2 * n) for n in range(1, 12)]),
)
mixed = st.one_of(st.just(Fraction(0)), rationals, wide)


@st.composite
def wide_series(draw):
    lo = draw(st.integers(-3, 3))
    order = draw(st.integers(lo, lo + 10))
    coeffs = draw(st.lists(mixed, min_size=1, max_size=order - lo + 1))
    return LaurentSeries("u", lo, coeffs, order)


@given(st.lists(st.tuples(weights | wide, wide_series()), min_size=1, max_size=5))
@example([(0, LaurentSeries("u", 0, [1, 2], 3)), (0, LaurentSeries("u", -1, [0, 1], 1))])
@example([(1, LaurentSeries("u", 0, [Fraction(1, 2), 1], 2)), (-1, LaurentSeries("u", 0, [1], 2))])
def test_linear_combination_matches_fraction_oracle(terms):
    total = LaurentSeries.linear_combination(terms)
    assert total == oracle_linear_combination(terms)
    assert_canonical(total)


@given(wide_series(), wide_series())
@example(LaurentSeries("u", 0, [Fraction(1, 2)], 2), LaurentSeries("u", 0, [2], 2))
@example(LaurentSeries("u", 0, [Fraction(1, 6)], 2), LaurentSeries("u", -2, [0, 0, 3], 2))
def test_product_matches_fraction_oracle(a, b):
    product = a * b
    assert product == oracle_mul(a, b) == b * a
    assert_canonical(product)


@given(wide_series(), nonzero_scales | wide.filter(bool))
def test_rescaled_matches_fraction_oracle(a, k):
    b = a.rescaled(k)
    assert b == oracle_rescaled(a, k)
    assert_canonical(b)


@given(wide_series(), st.integers(-3, 3), st.integers(-50, 50).filter(bool))
@example(LaurentSeries("u", 0, [Fraction(1, 2), 1], 1), 0, -1)
@example(LaurentSeries("u", 0, [Fraction(1, 2), 1], 1), 0, 6)
def test_integer_constructor_reaches_the_fraction_canonical_form(a, shift, k):
    """The same series given as scaled, unreduced integers (k < 0 gives a
    negative denominator), padded with leading zeros, equals and hashes as
    the one built from Fractions."""
    den = lcm(*(c.denominator for c in a.coefficients))
    lead = max(shift, 0)
    num = [0] * lead + [int(c * den) * k for c in a.coefficients]
    built = LaurentSeries._from_integers(
        a.variable, a.min_degree - lead, num, den * k, a.truncation_order
    )
    assert built == a and hash(built) == hash(a)
    assert_canonical(built)
    assert_canonical(a)


@given(wide_series(), wide_series(), st.integers(-4, 14))
@example(LaurentSeries("u", 0, [1, 2, 3], 3), LaurentSeries("u", 0, [1, 2, 3, 4], 3), 2)
@example(LaurentSeries("u", 0, [1, 2, 3], 3), LaurentSeries("u", 0, [1, 2, 3, 4], 3), 3)
@example(LaurentSeries("u", 0, [1, 2, 3], 2), LaurentSeries("u", 0, [1, 2, 3, 4], 3), 3)
def test_first_difference_matches_fraction_oracle(a, b, through):
    try:
        expected = oracle_first_difference(a, b, through)
    except ValueError as error:
        with pytest.raises(ValueError, match="beyond the truncation") as raised:
            a.first_difference(b, through)
        assert str(raised.value) == str(error)
        return
    assert a.first_difference(b, through) == expected


def test_first_difference_stops_at_through():
    a = LaurentSeries("q", 0, [1, 2, 3, 4], 3)
    b = LaurentSeries("q", 0, [1, 2, 3, 5], 3)
    assert a.first_difference(b, 2) is None
    assert a.agrees_with(b, 2) and not a.agrees_with(b)
    assert a.first_difference(b, 3) == (3, 4, 5)
    with pytest.raises(ValueError, match="beyond the truncation"):
        a.first_difference(a, 4)


@pytest.mark.parametrize(
    "series, text",
    [
        (
            LaurentSeries("u", -2, [1, 0, -1, Fraction(1, 2), 3, Fraction(-2, 3)], 4),
            "u^-2 - 1 + 1/2*u + 3*u^2 - 2/3*u^3 + O(u^5)",
        ),
        (
            LaurentSeries("q", -3, [-1, Fraction(-5, 7), 0, Fraction(-1, 2), -1, 1], 2),
            "-q^-3 - 5/7*q^-2 - 1/2 - q + q^2 + O(q^3)",
        ),
        (
            LaurentSeries("t", 0, [Fraction(3, 4), -2, 1, 0, Fraction(9, 2)], 6),
            "3/4 - 2*t + t^2 + 9/2*t^4 + O(t^7)",
        ),
        (LaurentSeries("q", 1, [-1], 1), "-q + O(q^2)"),
        (LaurentSeries("u", -1, [0, 0, 1], 3), "u + O(u^4)"),
        (LaurentSeries.zero("q", 5), "0 + O(q^6)"),
        (LaurentSeries.zero("u", -3), "0 + O(u^-2)"),
    ],
)
def test_str_golden(series, text):
    assert str(series) == text
