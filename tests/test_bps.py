from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import k3bps.bps as bps_module

from k3bps import (
    BpsTable,
    GwPotential,
    bps_from_gw,
    divisors,
    gw_from_bps,
    gw_grade_series,
    sine_bracket,
)
from k3bps.bps import (
    bernoulli_abs,
    central_factorial_first_kind_row,
    central_factorial_row,
    genus_zero_column,
    mobius,
)
from k3bps.kkv import bps_grid_from_kkv
from k3bps.pairs import bps_table_from_grid, grid_column
from k3bps.series import LaurentSeries


def two_sine_half(d: int, order: int) -> LaurentSeries:
    """Oracle: 2*sin(d*u/2) straight from the Taylor series of sine."""
    coeffs = [Fraction(0)] * (order + 1)
    k = 0
    while 2 * k + 1 <= order:
        coeffs[2 * k + 1] = Fraction(
            2 * (-1) ** k * d ** (2 * k + 1), 2 ** (2 * k + 1) * factorial(2 * k + 1)
        )
        k += 1
    return LaurentSeries("u", 0, coeffs, order)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    with pytest.raises(ValueError):
        divisors(0)


def test_mobius_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 1001):
        assert mobius(n) == int(sympy.mobius(n)), n
    with pytest.raises(ValueError):
        mobius(0)


def test_sine_bracket_exponent_zero_is_one():
    assert sine_bracket(1, 1, 6) == LaurentSeries.one("u", 6)


def test_sine_bracket_genus_zero_against_inverted_square_oracle():
    order = 10
    oracle = (two_sine_half(1, order + 6) ** 2).inverse().truncate(order)
    bracket = sine_bracket(1, 0, order)
    assert bracket == oracle
    assert bracket.coefficient(-2) == 1
    assert bracket.coefficient(0) == Fraction(1, 12)
    assert bracket.coefficient(2) == Fraction(1, 240)
    # multiplying back against the squared sine gives exactly 1
    product = bracket * (two_sine_half(1, order + 6) ** 2)
    for degree in range(product.min_degree, product.truncation_order + 1):
        assert product.coefficient(degree) == (1 if degree == 0 else 0)


def test_sine_bracket_scaling_oracle():
    # the d = 2 series is (2*sin(u))^-2 from the Taylor series of sine, and
    # it is the d = 1 series with u -> 2u
    order = 8
    oracle = (two_sine_half(2, order + 6) ** 2).inverse().truncate(order)
    base = sine_bracket(1, 0, order)
    scaled = sine_bracket(2, 0, order)
    assert scaled == oracle
    assert scaled.coefficient(-2) == Fraction(1, 4)
    for degree in range(-2, order + 1):
        assert oracle.coefficient(degree) == base.coefficient(degree) * Fraction(2) ** degree


def test_sine_bracket_higher_genus_against_power_oracle():
    input_sets = [
        ((1,), (2, 3), (8,)),
        # odd orders and the minimum order 2g-2 pin the truncation as well
        ((1, 2, 3), (0, 2, 3, 4, 5, 6, 7, 8), (15, 17, None)),
    ]
    for ds, genera, orders in input_sets:
        for d in ds:
            for g in genera:
                for order in orders:
                    order = 2 * g - 2 if order is None else order
                    if g == 0:
                        oracle = (two_sine_half(d, order + 6) ** 2).inverse().truncate(order)
                    else:
                        oracle = (two_sine_half(d, order + 4) ** (2 * g - 2)).truncate(order)
                    assert sine_bracket(d, g, order) == oracle, (d, g, order)


@pytest.mark.parametrize("d, g", [(1, 0), (2, 0), (3, 0), (1, 1), (2, 2), (3, 3)])
def test_sine_bracket_matches_sympy_series(d, g):
    sympy = pytest.importorskip("sympy")
    u = sympy.Symbol("u")
    order = 8
    expected = sympy.series((2 * sympy.sin(d * u / 2)) ** (2 * g - 2), u, 0, order + 1).removeO()
    ours = sine_bracket(d, g, order)
    assert ours.truncation_order == order
    for k in range(-2, order + 1):
        c = ours.coefficient(k)
        assert expected.coeff(u, k) == sympy.Rational(c.numerator, c.denominator), k


def test_bernoulli_cache_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(201):
        expected = abs(sympy.bernoulli(2 * n))
        assert bernoulli_abs(n) == Fraction(int(expected.p), int(expected.q)), n


def test_central_factorial_rows_against_the_defining_sum():
    # T(2n, 2j) (2j)! = sum_i (-1)^i C(2j, i) (j - i)^(2n), the central
    # factorial numbers of the second kind
    for n in range(12):
        for j in range(n + 1):
            total = sum((-1) ** i * comb(2 * j, i) * (j - i) ** (2 * n) for i in range(2 * j + 1))
            assert central_factorial_row(n)[j] * factorial(2 * j) == total, (n, j)


def test_sine_bracket_genus_zero_against_inverse_route_to_the_order_limit():
    # the old route: invert (2 sin(u/2))^2 built from central factorial numbers
    top = 402
    square = sine_bracket(1, 2, top + 4)
    inverse = square.inverse()
    assert inverse.truncation_order == top
    for order in range(0, top + 1, 2):
        assert sine_bracket(1, 0, order) == inverse.truncate(order), order


def test_sine_bracket_even_parity():
    for g in (0, 2, 3):
        for degree, c in sine_bracket(3, g, 10).items():
            if degree % 2:
                assert c == 0


def test_sine_bracket_order_too_small():
    with pytest.raises(ValueError, match="leading term"):
        sine_bracket(1, 3, 2)


def test_single_state_gives_aspinwall_morrison():
    potential = gw_from_bps(BpsTable.single_state(), 6)
    for d in range(1, 7):
        assert potential.value(0, d) == Fraction(1, d ** 3)


def test_single_state_primitive_count_is_one():
    potential = gw_from_bps(BpsTable.single_state(), 1)
    assert potential.value(0, 1) == 1


def test_empty_table_gives_zero_potential():
    potential = gw_from_bps(BpsTable({}), 3, 6)
    assert potential.entries == {}
    assert potential.grade_series(2).is_zero


def test_genus_zero_double_cover_subtraction():
    # at grade 2 the genus-0 inversion is n_(0,2) = N_(0,2) - N_(0,1)/8
    potential = GwPotential({(0, 1): Fraction(5, 3), (0, 2): Fraction(7, 2)}, 2)
    table = bps_from_gw(potential, 2)
    assert table.value(0, 2) == Fraction(7, 2) - Fraction(1, 8) * Fraction(5, 3)


def test_inverse_recovers_single_state_from_aspinwall_morrison():
    potential = gw_from_bps(BpsTable.single_state(), 6)
    assert bps_from_gw(potential, 6) == BpsTable.single_state()


def test_non_integral_inversion_is_reported_not_rejected():
    potential = GwPotential({(0, 1): Fraction(1, 3)}, 2)
    table = bps_from_gw(potential, 1)
    assert not table.is_integral
    assert (0, 1) in table.non_integral_entries()
    assert table.value(0, 1) == Fraction(1, 3)
    # higher-genus entries appear to cancel the sine-bracket tails exactly
    assert table.value(1, 1) == Fraction(-1, 36)


def test_table_normalizes_integral_fractions():
    table = BpsTable({(0, 1): Fraction(4, 2), (1, 1): 0})
    assert table.value(0, 1) == 2
    assert isinstance(table.value(0, 1), int)
    assert (1, 1) not in table.entries


def test_grade_series_skips_entries_beyond_truncation():
    table = BpsTable({(0, 1): 1, (5, 1): 7})
    series = gw_grade_series(table, 1, 4)  # genus 5 starts at u^8 > 4
    assert series == gw_grade_series(BpsTable({(0, 1): 1}), 1, 4)


small_tables = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(1, 3)),
    st.integers(-9, 9),
    max_size=8,
).map(BpsTable)


@settings(max_examples=60, deadline=None)
@given(small_tables)
def test_roundtrip_table_to_potential_to_table(table):
    potential = gw_from_bps(table, 3, 8)
    assert bps_from_gw(potential, 3) == table


small_potentials = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(1, 3)),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    max_size=8,
).map(lambda entries: GwPotential(entries, 6))


@settings(max_examples=60, deadline=None)
@given(small_potentials)
def test_roundtrip_potential_to_table_to_potential(potential):
    table = bps_from_gw(potential, 3)
    assert gw_from_bps(table, 3, 6) == potential


@settings(max_examples=40, deadline=None)
@given(
    small_tables,
    st.integers(0, 2),
    st.integers(1, 3),
    st.fractions(min_value=1, max_value=5, max_denominator=3),
)
def test_triangularity_of_the_inverse(table, g0, d0, bump):
    """Perturbing N at (g0, d0) moves n only at grades divisible by d0, and
    at grade d0 itself only for genus >= g0."""
    base = gw_from_bps(table, 3, 8)
    entries = dict(base.entries)
    entries[(g0, d0)] = entries.get((g0, d0), Fraction(0)) + bump
    perturbed = GwPotential(entries, 8)
    before = bps_from_gw(base, 3)
    after = bps_from_gw(perturbed, 3)
    changed = {
        key
        for key in set(before.entries) | set(after.entries)
        if before.value(*key) != after.value(*key)
    }
    assert changed, "a potential perturbation must move some BPS entry"
    for g, d in changed:
        assert d % d0 == 0
        if d == d0:
            assert g >= g0


@lru_cache(maxsize=None)
def taylor_bracket(k: int, g: int, order: int) -> LaurentSeries:
    """(2*sin(k*u/2))^(2g-2) as a power of the Taylor series of sine."""
    if g == 0:
        return (two_sine_half(k, order + 6) ** 2).inverse().truncate(order)
    return (two_sine_half(k, order + 4) ** (2 * g - 2)).truncate(order)


def per_divisor_grade_series(table: BpsTable, d: int, order: int) -> LaurentSeries:
    """Oracle: sum over k | d and genus g of (n_(g,d/k)/k) (2*sin(k*u/2))^(2g-2),
    each bracket a power of the Taylor series of sine."""
    total = LaurentSeries.zero("u", order)
    for k in divisors(d):
        for (g, grade), n in table.entries.items():
            if grade != d // k or 2 * g - 2 > order:
                continue
            total = total + taylor_bracket(k, g, order) * (Fraction(1, k) * n)
    return total


def test_grade_series_matches_per_divisor_brackets_at_the_order_limit():
    grid = bps_grid_from_kkv(grid_column(6, 1))
    for d in range(1, 7):
        table = bps_table_from_grid(grid, d, 1)
        assert gw_grade_series(table, d, 402) == per_divisor_grade_series(table, d, 402), d


def test_gw_from_bps_matches_grade_series_at_every_grade():
    # each F_e is built once per call and read by every grade e divides
    table = bps_table_from_grid(bps_grid_from_kkv(grid_column(12, 1)), 12, 1)
    potential = gw_from_bps(table, 12, 20)
    for d in range(1, 13):
        assert potential.grade_series(d) == gw_grade_series(table, d, 20), d


@pytest.mark.parametrize("h", [0, 1, 2])
@pytest.mark.parametrize("order", [8, 11])
def test_grade_series_matches_per_divisor_brackets_on_kkv_tables(h, order):
    grid = bps_grid_from_kkv(grid_column(6, h))
    for d in range(1, 7):
        table = bps_table_from_grid(grid, d, h)
        assert gw_grade_series(table, d, order) == per_divisor_grade_series(table, d, order), d


grade_six_tables = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(1, 6)),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
    max_size=10,
).map(BpsTable)


@settings(max_examples=25, deadline=None)
@given(grade_six_tables, st.integers(1, 6), st.sampled_from([8, 11]))
def test_grade_series_matches_per_divisor_brackets_on_random_tables(table, d, order):
    assert gw_grade_series(table, d, order) == per_divisor_grade_series(table, d, order)


def test_signed_first_kind_rows_invert_the_central_factorial_rows():
    # sum_j T(2n,2j) (-1)^(j-m) |t(2j,2m)| = [n = m]
    for n in range(61):
        row = central_factorial_row(n)
        for m in range(n + 1):
            total = sum(
                row[j] * (-1) ** (j - m) * central_factorial_first_kind_row(j)[m]
                for j in range(m, n + 1)
            )
            assert total == (1 if n == m else 0), (n, m)


def genus_table_entry(g: int, k: int) -> Fraction:
    """[x^(g-1)] u^(2k-2) in x = (2*sin(u/2))^2, read from the inverse's tables."""
    if k == 0:
        return genus_zero_column(g) / factorial(2 * g + 1)
    if k > g:
        return Fraction(0)
    row = central_factorial_first_kind_row(g - 1)
    return Fraction(factorial(2 * k - 2) * row[k - 1], factorial(2 * g - 2))


def test_genus_table_inverts_the_sine_bracket_matrix():
    # column h of the bracket matrix is (2*sin(u/2))^(2h-2) in u, unit upper
    # triangular; the genus table must be its exact inverse at every order
    for order in range(-2, 41):
        top = (order + 2) // 2
        brackets = [sine_bracket(1, h, order) for h in range(top + 1)]
        for g in range(top + 1):
            weights = [genus_table_entry(g, k) for k in range(top + 1)]
            for h in range(top + 1):
                total = sum(w * brackets[h].coefficient(2 * k - 2) for k, w in enumerate(weights))
                assert total == (1 if g == h else 0), (order, g, h)


def test_genus_zero_column_leads_with_one_and_minus_a_twelfth():
    # x/u^2 = 1 - x/12 - x^2/240 - 31 x^3/60480 - ...
    expected = [Fraction(1), Fraction(-1, 12), Fraction(-1, 240), Fraction(-31, 60480)]
    for g, c in enumerate(expected):
        assert genus_zero_column(g) == c * factorial(2 * g + 1), g


def residual_solve(potential: GwPotential, d_max: int) -> BpsTable:
    """Oracle: the former inverse.  Grade by grade, subtract the covers
    (1/k) F_(d/k)(k*u), k > 1, of the grades already solved; then genus by
    genus, subtract c * (2*sin(u/2))^(2g-2) for the leading coefficient c."""
    u_order = potential.u_truncation
    entries: dict[tuple[int, int], Fraction] = {}
    for d in range(1, d_max + 1):
        # no grade-d entry is solved yet, so the forward grade is the covers alone
        covered = gw_grade_series(BpsTable(entries), d, u_order)
        residual = potential.grade_series(d) - covered
        for g in range((u_order + 2) // 2 + 1):
            c = residual.coefficient(2 * g - 2)
            if c:
                entries[g, d] = c
                residual = LaurentSeries.linear_combination(
                    ((1, residual), (-c, sine_bracket(1, g, u_order)))
                )
    return BpsTable(entries)


ORACLE_ORDERS = [-2, -1, 0, 1, 2, 7, 8, 40]


@st.composite
def oracle_inputs(draw, rational: bool):
    u_order = draw(st.sampled_from(ORACLE_ORDERS))
    d_max = draw(st.integers(1, 12))
    keys = st.tuples(st.integers(0, (u_order + 2) // 2), st.integers(1, 12))
    if rational:
        values = st.fractions(min_value=-9, max_value=9, max_denominator=6)
        return GwPotential(draw(st.dictionaries(keys, values, max_size=10)), u_order), d_max
    table = BpsTable(draw(st.dictionaries(keys, st.integers(-9, 9), max_size=10)))
    return gw_from_bps(table, 12, u_order), d_max


def assert_same_table(ours: BpsTable, oracle: BpsTable):
    assert ours == oracle
    for key, value in oracle.entries.items():
        assert type(ours.entries[key]) is type(value), key


@settings(max_examples=40, deadline=None)
@given(oracle_inputs(rational=False))
def test_inverse_matches_residual_solve_on_integer_tables(case):
    potential, d_max = case
    assert_same_table(bps_from_gw(potential, d_max), residual_solve(potential, d_max))


@settings(max_examples=40, deadline=None)
@given(oracle_inputs(rational=True))
def test_inverse_matches_residual_solve_on_rational_potentials(case):
    potential, d_max = case
    assert_same_table(bps_from_gw(potential, d_max), residual_solve(potential, d_max))


@pytest.mark.parametrize("u_order", ORACLE_ORDERS)
def test_inverse_matches_residual_solve_on_empty_and_out_of_range_potentials(u_order):
    empty = GwPotential({}, u_order)
    assert bps_from_gw(empty, 12) == residual_solve(empty, 12) == BpsTable({})
    above = GwPotential({(0, 5): 3, (0, 7): Fraction(1, 2), ((u_order + 2) // 2, 12): -4}, u_order)
    assert bps_from_gw(above, 4) == residual_solve(above, 4) == BpsTable({})


def test_inverse_reads_nothing_of_the_forward(monkeypatch):
    table = bps_table_from_grid(bps_grid_from_kkv(grid_column(6, 1)), 6, 1)
    potential = gw_from_bps(table, 6, 16)

    def forbidden(*args, **kwargs):
        raise AssertionError("the inverse read a kernel of the forward transform")

    for name in (
        "sine_bracket",
        "_grade_pairs",
        "_grade_series",
        "_primitive_numerators",
        "central_factorial_row",
        "bernoulli_abs",
    ):
        monkeypatch.setattr(bps_module, name, forbidden)
    assert bps_from_gw(potential, 6) == table
