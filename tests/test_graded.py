from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from k3bps import GradedSeries, LaurentSeries, RationalFunction

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def q_entry():
    return st.lists(rationals, min_size=1, max_size=5).map(
        lambda cs: LaurentSeries("q", 0, cs, 4)
    )


graded = st.dictionaries(st.integers(min_value=1, max_value=4), q_entry(), min_size=1).map(
    lambda entries: GradedSeries(4, entries)
)


def windowed_q_entry():
    # valuations -1..1 and slack above the data, so truncation orders differ
    return st.tuples(
        st.integers(min_value=-1, max_value=1),
        st.lists(rationals, min_size=1, max_size=4),
        st.integers(min_value=0, max_value=3),
    ).map(lambda t: LaurentSeries("q", t[0], t[1], t[0] + len(t[1]) - 1 + t[2]))


# q^S (1+q)^2, (1-(-q)^k)^2 and a few others, as in pairs sums
DENOMINATORS = [(1,), (1, 1), (1, 2, 1), (0, 1, 2, 1), (1, 0, -2, 0, 1), (1, -1), (2, 0, 1)]


def ratfn_entry():
    return st.tuples(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3),
        st.sampled_from(DENOMINATORS),
    ).map(lambda nd: RationalFunction(*nd))


def graded_of(entry):
    return st.dictionaries(st.integers(min_value=1, max_value=4), entry, min_size=1).map(
        lambda entries: GradedSeries(4, entries)
    )


# Reference: the same recurrences folded one term at a time into a running
# total.  Arithmetic is exact and a sum's truncation is the lowest of its
# terms', so each grade must equal GradedSeries' one linear_combination under
# strict ==, truncation orders included.


def fold_mul(a, b):
    top = min(a.max_degree, b.max_degree)
    out = {}

    def _acc(grade, value):
        if grade in out:
            out[grade] = out[grade] + value
        else:
            out[grade] = value

    for d1, v1 in a.entries.items():
        for d2, v2 in b.entries.items():
            if d1 + d2 <= top:
                _acc(d1 + d2, v1 * v2)
    if a.has_unit:
        for d2, v2 in b.entries.items():
            if d2 <= top:
                _acc(d2, v2)
    if b.has_unit:
        for d1, v1 in a.entries.items():
            if d1 <= top:
                _acc(d1, v1)
    return GradedSeries(top, out, has_unit=a.has_unit and b.has_unit)


def fold_exp(series):
    out = {}
    for grade in range(1, series.max_degree + 1):
        acc = series.entries.get(grade)
        for j in range(1, grade):
            g = series.entries.get(j)
            f = out.get(grade - j)
            if g is not None and f is not None:
                term = (g * f) * Fraction(j, grade)
                acc = term if acc is None else acc + term
        if acc is not None:
            out[grade] = acc
    return GradedSeries(series.max_degree, out, has_unit=True)


def fold_log(series):
    out = {}
    for grade in range(1, series.max_degree + 1):
        acc = series.entries.get(grade)
        for j in range(1, grade):
            g = out.get(j)
            f = series.entries.get(grade - j)
            if g is not None and f is not None:
                term = (g * f) * Fraction(-j, grade)
                acc = term if acc is None else acc + term
        if acc is not None:
            out[grade] = acc
    return GradedSeries(series.max_degree, out)


def test_exp_of_single_grade_one_entry():
    x = LaurentSeries.monomial("q", 1, 1, 6)
    result = GradedSeries(3, {1: x}).exp()
    assert result.has_unit
    assert result.entry(1) == x
    assert result.entry(2).agrees_with(x * x * Fraction(1, 2))
    assert result.entry(3).agrees_with(x * x * x * Fraction(1, 6))


def test_log_of_one_plus_single_entry():
    x = LaurentSeries.monomial("q", 1, 1, 6)
    series = GradedSeries(3, {1: x}, has_unit=True)
    result = series.log()
    assert not result.has_unit
    assert result.entry(1) == x
    assert result.entry(2).agrees_with(x * x * Fraction(-1, 2))
    assert result.entry(3).agrees_with(x * x * x * Fraction(1, 3))


def test_exp_requires_no_unit_and_log_requires_unit():
    x = LaurentSeries.monomial("q", 1, 1, 4)
    with pytest.raises(ValueError, match="no grade-0"):
        GradedSeries(2, {1: x}, has_unit=True).exp()
    with pytest.raises(ValueError, match="grade-0 term"):
        GradedSeries(2, {1: x}).log()


def test_rational_function_entries():
    fn = RationalFunction((0, 1), (1, 2, 1))
    result = GradedSeries(2, {1: fn}).exp()
    assert result.entry(1) == fn
    assert result.entry(2) == fn * fn * Fraction(1, 2)
    assert result.log() == GradedSeries(2, {1: fn})


def test_zero_entries_are_dropped():
    series = GradedSeries(3, {1: LaurentSeries.zero("q", 4), 2: LaurentSeries.one("q", 4)})
    assert series.entry(1) is None
    assert series.entry(2) is not None
    with pytest.raises(ValueError):
        series.entry(5)


def test_product_respects_grading():
    x = LaurentSeries.monomial("q", 1, 1, 6)
    y = LaurentSeries.monomial("q", 0, 2, 6)
    a = GradedSeries(4, {1: x})
    b = GradedSeries(4, {2: y})
    product = a * b
    assert product.entry(3) == x * y
    assert product.entry(1) is None
    assert product.entry(2) is None


@given(graded)
def test_exp_log_roundtrip(series):
    assert series.exp().log() == series


@given(graded)
def test_log_exp_roundtrip(series):
    disconnected = series.exp()
    assert disconnected.log().exp() == disconnected


@given(graded, graded)
@example(
    GradedSeries(4, {1: LaurentSeries("q", 0, [2], 4)}),
    GradedSeries(4, {1: LaurentSeries("q", 0, [-2, 1], 4)}),
)
def test_exp_turns_sums_into_products(a, b):
    # when a + b cancels a leading term, exp(a + b) is known further than the
    # product, so compare each grade on the common window and require the sum
    # side to be at least as precise; a missing entry is zero
    lhs, rhs = (a + b).exp(), a.exp() * b.exp()
    assert (lhs.max_degree, lhs.has_unit) == (rhs.max_degree, rhs.has_unit)
    for grade in range(1, lhs.max_degree + 1):
        left, right = lhs.entry(grade), rhs.entry(grade)
        if left is None and right is None:
            continue
        if left is None:
            left = LaurentSeries.zero("q", right.truncation_order)
        if right is None:
            right = LaurentSeries.zero("q", left.truncation_order)
        assert left.agrees_with(right)
        assert left.truncation_order >= right.truncation_order


def test_exp_log_on_laurent_entries_with_poles():
    # entries may start below u^0; products then lose truncation width, so the
    # roundtrip is coefficientwise agreement on the common window
    g1 = LaurentSeries("u", -2, [1, 0, Fraction(1, 12), 0, 0, 0, 1], 4)
    g2 = LaurentSeries("u", -2, [2, 0, -1, 0, 5, 0, 0], 4)
    series = GradedSeries(3, {1: g1, 2: g2})
    back = series.exp().log()
    for grade in (1, 2, 3):
        original = series.entry(grade)
        recovered = back.entry(grade)
        if original is None:
            assert recovered is None or recovered.is_zero
        else:
            assert recovered.agrees_with(original)


def assert_graded_sums_equal_the_fold(a, b, unit_a, unit_b):
    assert a.exp() == fold_exp(a)
    with_unit = GradedSeries(b.max_degree, b.entries, has_unit=True)
    assert with_unit.log() == fold_log(with_unit)
    left = fold_exp(a) if unit_a else a
    right = with_unit if unit_b else b
    assert left * right == fold_mul(left, right)


@given(graded_of(windowed_q_entry()), graded_of(windowed_q_entry()), st.booleans(), st.booleans())
def test_laurent_graded_sums_equal_the_pairwise_fold(a, b, unit_a, unit_b):
    assert_graded_sums_equal_the_fold(a, b, unit_a, unit_b)


@given(graded_of(ratfn_entry()), graded_of(ratfn_entry()), st.booleans(), st.booleans())
def test_rational_graded_sums_equal_the_pairwise_fold(a, b, unit_a, unit_b):
    assert_graded_sums_equal_the_fold(a, b, unit_a, unit_b)
