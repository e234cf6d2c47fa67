import logging
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

import k3bps.kkv as kkv
from k3bps import (
    SymLaurentPoly,
    bps_grid_from_kkv,
    kkv_product,
    lambda_decompose,
    lambda_power,
    yau_zaslow_series,
)
from k3bps.kkv import (
    KkvBpsGrid,
    _euler_power_coefficients,
    _signed_thetas,
    _slot_width,
    _theta_coefficients,
    _unpack,
)

REFERENCE_TABLE = {
    0: (1,),
    1: (24, -2),
    2: (324, -54, 3),
    3: (3200, -800, 88, -4),
    4: (25650, -8550, 1401, -126, 5),
}


def _euler_power_by_binomial_sums(q_order, exponent):
    """prod (1 - q^n)^(-exponent) by multiplying in one factor at a time,
    each expanded as sum_j C(j + exponent - 1, exponent - 1) q^(n j)."""
    out = [0] * (q_order + 1)
    out[0] = 1
    for n in range(1, q_order + 1):
        for h in range(q_order, n - 1, -1):
            acc = out[h]
            j, base = 1, h - n
            while base >= 0:
                acc += comb(j + exponent - 1, exponent - 1) * out[base]
                j += 1
                base -= n
            out[h] = acc
    return out


def _grid_by_lambda_lists(h_max):
    """The grid columns by the same division by D twice, with one list of
    lambda-coefficients per power of q and the sign stripped at the end."""
    thetas = [
        (m * (m + 1) // 2, [(-1) ** m * s for s in _theta_coefficients(m)])
        for m in range(1, h_max + 1)
        if m * (m + 1) // 2 <= h_max
    ]
    columns = [[c] + [0] * h for h, c in enumerate(_euler_power_by_binomial_sums(h_max, 18))]
    for _ in range(2):
        for h in range(1, h_max + 1):
            acc = columns[h]
            for t, theta in thetas:
                if t > h:
                    break
                earlier = columns[h - t]
                for k, s in enumerate(theta):
                    for g, c in enumerate(earlier, k):
                        acc[g] -= s * c
    return [tuple(-c if g % 2 else c for g, c in enumerate(column)) for column in columns]


@pytest.fixture(scope="module")
def grid200():
    return bps_grid_from_kkv(200)


def test_product_constant_term_is_one():
    assert kkv_product(0)[0] == SymLaurentPoly.constant(1)


def test_product_first_coefficient_by_factorwise_expansion():
    # to first order: 20 from (1-q)^-20, 2z from (1-zq)^-2, 2/z from (1-q/z)^-2
    assert kkv_product(1)[1] == SymLaurentPoly.from_half({0: 20, 1: 2})


def test_product_first_coefficient_at_z_one():
    assert kkv_product(1)[1].evaluate_at_one() == 24


def test_product_degree_bound(grid20):
    series = kkv_product(12)
    for h in range(13):
        assert series[h].degree() <= h


def test_product_degree_guard_raises(monkeypatch):
    # a symmetric z^(+-(h+1)) term at q^h breaks the bound deg <= h
    original = kkv._z_pair_product

    def broken(q_order):
        out = original(q_order)
        out[3].update({4: 1, -4: 1})
        return out

    monkeypatch.setattr(kkv, "_z_pair_product", broken)
    with pytest.raises(ArithmeticError, match="violated its degree bound"):
        kkv_product(5)


def test_lambda_power_basis_element():
    lam = lambda_power(1)
    assert lam == SymLaurentPoly({1: 1, 0: -2, -1: 1})
    assert lambda_decompose(lam) == [0, 1]


def test_lambda_decompose_of_first_kkv_coefficient():
    coeffs = lambda_decompose(SymLaurentPoly.from_half({0: 20, 1: 2}))
    assert coeffs == [24, 2]


def test_lambda_decompose_constant():
    assert lambda_decompose(SymLaurentPoly.constant(7)) == [7]
    assert lambda_decompose(SymLaurentPoly.zero()) == []


halves = st.dictionaries(
    st.integers(min_value=0, max_value=6),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    max_size=6,
)


@given(halves)
def test_lambda_decompose_recompose_is_identity(half):
    poly = SymLaurentPoly.from_half(half)
    recomposed = SymLaurentPoly.zero()
    for g, c in enumerate(lambda_decompose(poly)):
        recomposed = recomposed + lambda_power(g) * c
    assert recomposed == poly


def test_grid_matches_reference_table():
    grid = bps_grid_from_kkv(4)
    for h, column in REFERENCE_TABLE.items():
        assert grid.column(h) == column


def test_grid_matches_z_expansion_column_by_column():
    # the triple-product division against the independent z-route: expand in
    # z, then eliminate in the basis lambda^g
    h_max = 40
    grid = bps_grid_from_kkv(h_max)
    series = kkv_product(h_max)
    for h in range(h_max + 1):
        decomposed = lambda_decompose(series[h])
        assert grid.column(h) == tuple((-1) ** g * c for g, c in enumerate(decomposed))


def test_theta_coefficients_match_lambda_decomposition():
    # S_m = z^-m + ... + z^m, the q^(m(m+1)/2) term of the triple product
    for m in range(13):
        s_m = SymLaurentPoly({j: 1 for j in range(-m, m + 1)})
        assert _theta_coefficients(m) == lambda_decompose(s_m), m


def test_large_grid_genus_zero_row_and_subdiagonal():
    h_max = 150
    grid = bps_grid_from_kkv(h_max)
    yz = yau_zaslow_series(h_max)
    assert [grid.value(0, h) for h in range(h_max + 1)] == [
        yz.coefficient(h) for h in range(h_max + 1)
    ]
    # [z^(h-1) q^h] of the product is 20h + 2(h-1) (one factor q or z*q^2 next
    # to (z*q)^j), and lambda^h contributes -2h(h+1) there, so
    # n_{h-1,h} = (-1)^(h-1) (2h^2 + 24h - 2); the diagonal is checked by KkvBpsGrid
    for h in range(1, h_max + 1):
        assert grid.value(h - 1, h) == (-1) ** (h - 1) * (2 * h * h + 24 * h - 2), h


def test_grid_rejects_negative_bound():
    with pytest.raises(ValueError, match="h_max"):
        bps_grid_from_kkv(-1)


def test_grid_logs_its_size_and_time_at_debug(caplog):
    with caplog.at_level(logging.DEBUG, logger="k3bps"):
        bps_grid_from_kkv(3)
    (record,) = [r for r in caplog.records if "bps_grid_from_kkv" in r.getMessage()]
    assert record.levelno == logging.DEBUG
    assert record.getMessage().startswith("bps_grid_from_kkv h_max=3 in ")
    width = _slot_width(_euler_power_coefficients(3, 18), _signed_thetas(3))
    assert record.getMessage().endswith(f" s, slot {width} bits")


def test_grid_corner_value():
    assert bps_grid_from_kkv(0).value(0, 0) == 1


def test_vanishing_above_diagonal(grid20):
    for h in range(21):
        for g in range(h + 1, 23):
            assert grid20.value(g, h) == 0


def test_diagonal_law(grid20):
    for h in range(21):
        assert grid20.value(h, h) == (-1) ** h * (h + 1)


def test_negative_square_columns_are_empty(grid20):
    assert grid20.value(0, -3) == 0


def test_grid_bounds_checked(grid20):
    with pytest.raises(ValueError, match="beyond the computed bound"):
        grid20.value(0, 21)
    with pytest.raises(ValueError):
        grid20.value(-1, 3)


def test_grid_entries_are_integers(grid20):
    for h in range(21):
        assert all(isinstance(v, int) for v in grid20.column(h))


def test_grid_constructor_enforces_diagonal():
    with pytest.raises(ValueError, match="diagonal"):
        KkvBpsGrid([(1,), (24, 2)])


def test_yau_zaslow_first_values():
    yz = yau_zaslow_series(4)
    assert [yz.coefficient(h) for h in range(5)] == [1, 24, 324, 3200, 25650]
    assert yau_zaslow_series(0).coefficient(0) == 1


def test_yau_zaslow_matches_sympy_product_expansion():
    pytest.importorskip("sympy")
    from sympy.polys.domains import QQ
    from sympy.polys.ring_series import rs_mul, rs_pow
    from sympy.polys.rings import ring

    h_max = 20
    _, q = ring("q", QQ)
    product = q**0
    for n in range(1, h_max + 1):
        product = rs_mul(product, rs_pow(1 - q**n, -24, q, h_max + 1), q, h_max + 1)
    yz = yau_zaslow_series(h_max)
    for h in range(h_max + 1):
        c = product.coeff(q**h)
        assert yz.coefficient(h) == Fraction(int(c.numerator), int(c.denominator)), h


def test_yau_zaslow_equals_z_one_specialization():
    h_max = 20
    series = kkv_product(h_max)
    yz = yau_zaslow_series(h_max)
    for h in range(h_max + 1):
        assert yz.coefficient(h) == series[h].evaluate_at_one()


def test_yau_zaslow_equals_genus_zero_row(grid20):
    yz = yau_zaslow_series(20)
    for h in range(21):
        assert yz.coefficient(h) == grid20.value(0, h)


def test_euler_powers_against_binomial_sum_loop():
    # the divisor-sum recurrence against multiplying in each factor
    # (1 - q^n)^-a as its binomial series
    bound = 120
    for exponent in (18, 20, 24):
        expected = _euler_power_by_binomial_sums(bound, exponent)
        assert _euler_power_coefficients(bound, exponent) == expected, exponent
    yz = yau_zaslow_series(bound)
    assert [yz.coefficient(h) for h in range(bound + 1)] == expected


def test_packed_grid_matches_lambda_list_recurrence(grid200):
    columns = _grid_by_lambda_lists(200)
    assert grid200.columns == tuple(columns)
    # each h_max has its own slot width, so every small grid is rebuilt
    for h_max in range(61):
        assert bps_grid_from_kkv(h_max).columns == tuple(columns[: h_max + 1]), h_max


@pytest.mark.parametrize("h_max", [0, 1, 2, 3, 80, 200])
def test_slot_width_leaves_a_sign_bit_over_the_largest_entry(h_max, grid200):
    width = _slot_width(_euler_power_coefficients(h_max, 18), _signed_thetas(h_max))
    largest = max(abs(v) for column in grid200.columns[: h_max + 1] for v in column)
    assert width % 8 == 0
    assert width >= largest.bit_length() + 1


def _signed_digits(width):
    half = 1 << (width - 1)
    return st.lists(st.integers(min_value=-half, max_value=half - 1), min_size=1, max_size=6)


packed_cases = st.sampled_from([8, 16, 32]).flatmap(
    lambda width: st.tuples(st.just(width), _signed_digits(width))
)


@given(packed_cases)
def test_unpack_inverts_packing(case):
    width, digits = case
    packed = sum(c << (width * g) for g, c in enumerate(digits))
    assert _unpack(packed, len(digits), width) == tuple(digits)


@pytest.mark.parametrize(
    "digits",
    [
        [0, 0, 128],  # the top slot overflows upwards
        [0, 0, -129],  # and downwards
        [5, 128, 127],  # a middle slot carries into a full top slot
        [0, 0, 0, 1],  # bits past the last slot
    ],
)
def test_unpack_refuses_a_coefficient_that_does_not_fit(digits):
    packed = sum(c << (8 * g) for g, c in enumerate(digits))
    with pytest.raises(ArithmeticError, match="8-bit slot"):
        _unpack(packed, 3, 8)


def test_product_second_coefficient_by_brute_force():
    # truncate each factor at q^2 and multiply out by hand:
    # (1-q)^-20 (1-q^2)^-20 (1-zq)^-2 (1-zq^2)^-2 (1-q/z)^-2 (1-q^2/z)^-2
    # coefficients are lists [q^0, q^1, q^2] of {z-degree: int} dictionaries
    def mul(a, b):
        out = [dict() for _ in range(3)]
        for i in range(3):
            for j in range(3 - i):
                for za, va in a[i].items():
                    for zb, vb in b[j].items():
                        out[i + j][za + zb] = out[i + j].get(za + zb, 0) + va * vb
        return out

    def inv_square(n, zdeg):
        # (1 - z^zdeg * q^n)^-2 = sum_j (j+1) z^(j*zdeg) q^(n*j), cut at q^2
        factor = [dict() for _ in range(3)]
        factor[0][0] = 1
        for j in (1, 2):
            if n * j <= 2:
                factor[n * j][j * zdeg] = j + 1
        return factor

    def inv_twenty(n):
        factor = [dict() for _ in range(3)]
        factor[0][0] = 1
        for j in (1, 2):
            if n * j <= 2:
                factor[n * j][0] = comb(j + 19, 19)
        return factor

    total = [dict() for _ in range(3)]
    total[0][0] = 1
    for piece in (
        inv_twenty(1),
        inv_twenty(2),
        inv_square(1, 1),
        inv_square(2, 1),
        inv_square(1, -1),
        inv_square(2, -1),
    ):
        total = mul(total, piece)
    expected = SymLaurentPoly(total[2])
    assert kkv_product(2)[2] == expected
    # and its lambda coefficients carry the h = 2 column of the grid
    assert [(-1) ** g * c for g, c in enumerate(lambda_decompose(expected))] == [324, -54, 3]
