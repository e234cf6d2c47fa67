from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3bps import GaussianRational, LaurentSeries

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


def test_exp_of_zero_is_one():
    assert LaurentSeries.zero("q", 5).exp() == LaurentSeries.one("q", 5)


def test_exp_rejects_constant_term():
    with pytest.raises(ValueError, match="constant-and-below"):
        LaurentSeries("q", 0, [1, 1], 4).exp()
    with pytest.raises(ValueError, match="constant-and-below"):
        LaurentSeries("u", -1, [1], 4).exp()


def test_exp_matches_taylor_coefficients():
    q = LaurentSeries.monomial("q", 1, 1, 6)
    e = q.exp()
    for n in range(7):
        assert e.coefficient(n) == Fraction(1, factorial(n))


def test_log_rejects_wrong_constant_term():
    with pytest.raises(ValueError, match="constant term exactly 1"):
        LaurentSeries("q", 0, [2, 1], 4).log()


def test_log_of_geometric_series():
    # log(1/(1-q)) = sum q^n / n
    series = geometric(7).log()
    for n in range(1, 8):
        assert series.coefficient(n) == Fraction(1, n)


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


@given(q_series(min_degree=1, order=7))
def test_exp_log_roundtrip(a):
    assert a.exp().log().agrees_with(a)


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
