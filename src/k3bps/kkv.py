"""The KKV product formula and the BPS grid of a K3 surface.

The generating identity expanded here is

    sum_{g,h >= 0} (-1)^g * n_{g,h} * lambda^g * q^h
        = prod_{n >= 1} 1 / ((1 - q^n)^20 * (1 - z*q^n)^2 * (1 - q^n/z)^2),

with lambda = z - 2 + 1/z, where n_{g,h} is the BPS count for a class of
square 2h-2 (independent of its divisibility).  Up to Euler factors and an
elementary prefactor the product is theta_1(z, q)^(-2), and Jacobi's triple
product gives

    D := prod_{n >= 1} (1 - q^n)(1 - z*q^n)(1 - q^n/z)
       = sum_{m >= 0} (-1)^m * q^(m(m+1)/2) * S_m,

with S_m = sum_{|j| <= m} z^j, whose lambda-coefficients are the integers
C(m+k+1, 2k+1) + C(m+k, 2k+1), k = 0..m.  So the KKV product is
prod (1 - q^n)^(-18) / D^2, and :func:`bps_grid_from_kkv` divides the integer
Euler power twice by the lacunary series D.  Each power of q is one integer,
its lambda-polynomial evaluated at lambda = 2^W, so the division is a few
shifts and small multiples of big integers per term of D; W comes from an l1
majorant of the coefficients, and the integers are cut into their
lambda-coefficients once at the end.  The Euler powers come from the
divisor-sum recurrence n p_n = a sum_k sigma(k) p_(n-k).  No Laurent
polynomial, fraction or elimination is involved.

The z-expansion is kept as an independent oracle.  :func:`kkv_product`
expands the same product as one symmetric Laurent polynomial in z per q^h,
and :func:`lambda_decompose` rewrites such a polynomial in the basis
lambda^g = (sqrt(z) - 1/sqrt(z))^(2g) by exact triangular elimination; the
tests compare the two expansions column by column.  Setting z -> 1 kills
every g > 0 term and leaves the Yau-Zaslow genus-0 series
prod (1 - q^n)^(-24), computed separately by :func:`yau_zaslow_series`.
"""

from __future__ import annotations

import logging
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul
from time import perf_counter

from .series import LaurentSeries
from .symlaurent import SymLaurentPoly

log = logging.getLogger("k3bps")


def _euler_power_coefficients(q_order: int, exponent: int) -> list[int]:
    """Integer coefficients p_n of prod_{n>=1} (1 - q^n)^(-exponent) up to q^q_order.

    The logarithmic derivative of the product is exponent * sum_k sigma(k) q^k
    (sigma the divisor sum), which gives the recurrence

        n * p_n = exponent * sum_{k=1..n} sigma(k) * p_(n-k);

    each division by n is checked to be exact.
    """
    sigma = [0] * (q_order + 1)
    for d in range(1, q_order + 1):
        for multiple in range(d, q_order + 1, d):
            sigma[multiple] += d
    out = [1]
    for n in range(1, q_order + 1):
        p, rest = divmod(exponent * sum(map(mul, sigma[1 : n + 1], reversed(out))), n)
        if rest:
            raise ArithmeticError(f"q^{n} coefficient of the Euler power is not an integer")
        out.append(p)
    return out


def _z_pair_product(q_order: int) -> list[dict[int, int]]:
    """q-coefficients (as z-Laurent dicts) of prod_n ((1-z*q^n)(1-q^n/z))^(-2).

    The two factors at each n are expanded jointly:
    sum_{j,l >= 0} (j+1)(l+1) z^(j-l) q^(n(j+l)).
    """
    out: list[dict[int, int]] = [dict() for _ in range(q_order + 1)]
    out[0][0] = 1
    for n in range(1, q_order + 1):
        s_max = q_order // n
        factor = {
            s: {2 * j - s: (j + 1) * (s - j + 1) for j in range(s + 1)}
            for s in range(1, s_max + 1)
        }
        for h in range(q_order, n - 1, -1):
            acc = dict(out[h])
            for s in range(1, h // n + 1):
                block = out[h - n * s]
                if not block:
                    continue
                for zd, w in factor[s].items():
                    for zd0, v0 in block.items():
                        key = zd0 + zd
                        acc[key] = acc.get(key, 0) + v0 * w
            out[h] = acc
    return out


class KkvSeries:
    """Truncated expansion of the KKV product: one symmetric z-polynomial per q^h."""

    __slots__ = ("q_order", "coefficients")

    def __init__(self, q_order: int, coefficients: tuple[SymLaurentPoly, ...]) -> None:
        if q_order < 0:
            raise ValueError("q_order must be >= 0")
        if len(coefficients) != q_order + 1:
            raise ValueError("need exactly one coefficient per degree 0..q_order")
        for h, poly in enumerate(coefficients):
            if poly.degree() > h:
                raise ArithmeticError(
                    f"q^{h} coefficient has z-degree {poly.degree()} > {h}; "
                    "the product expansion violated its degree bound"
                )
        object.__setattr__(self, "q_order", q_order)
        object.__setattr__(self, "coefficients", tuple(coefficients))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("KkvSeries is immutable")

    def coefficient(self, h: int) -> SymLaurentPoly:
        if not 0 <= h <= self.q_order:
            raise ValueError(f"q^{h} is outside the computed window 0..{self.q_order}")
        return self.coefficients[h]

    def specialize_z_one(self) -> LaurentSeries:
        """The q-series obtained by z -> 1."""
        return LaurentSeries(
            "q", 0, [poly.evaluate_at_one() for poly in self.coefficients], self.q_order
        )

    def __repr__(self) -> str:
        return f"KkvSeries(q_order={self.q_order})"


def kkv_product(q_order: int) -> KkvSeries:
    """Expand the KKV product in z exactly up to q^q_order (the oracle route)."""
    if q_order < 0:
        raise ValueError("q_order must be >= 0")
    plain = _euler_power_coefficients(q_order, 20)
    paired = _z_pair_product(q_order)
    polys = []
    for h in range(q_order + 1):
        acc: dict[int, int] = {}
        for a in range(h + 1):
            scale = plain[a]
            if not scale:
                continue
            for zd, v in paired[h - a].items():
                acc[zd] = acc.get(zd, 0) + scale * v
        polys.append(SymLaurentPoly(acc))
    return KkvSeries(q_order, tuple(polys))


@lru_cache(maxsize=None)
def lambda_power(g: int) -> SymLaurentPoly:
    """The genus basis element lambda^g with lambda = z - 2 + 1/z."""
    if g < 0:
        raise ValueError("g must be >= 0")
    if g == 0:
        return SymLaurentPoly.constant(1)
    return lambda_power(g - 1) * SymLaurentPoly({1: 1, 0: -2, -1: 1})


def lambda_decompose(poly: SymLaurentPoly) -> list[Fraction]:
    """Coefficients c_g with poly = sum_g c_g * lambda^g.

    lambda^g is the unique basis element with leading z-degree g (coefficient
    1 there), so eliminating from the top degree down is exact and unique.
    """
    if poly.is_zero:
        return []
    top = poly.degree()
    out = [Fraction(0)] * (top + 1)
    work = poly
    for g in range(top, 0, -1):
        c = work.coefficient(g)
        if c:
            out[g] = c
            work = work - lambda_power(g) * c
        if work.degree() >= g:
            raise ArithmeticError("triangular elimination failed to lower the degree")
    out[0] = work.coefficient(0)
    return out


class KkvBpsGrid:
    """The triangular grid n_{g,h} for 0 <= g <= h <= h_max.

    Entries above the diagonal vanish and the diagonal is the signed Euler
    characteristic (-1)^h * (h+1) of the h-dimensional linear system; both are
    enforced at construction.
    """

    __slots__ = ("columns",)

    def __init__(self, columns) -> None:
        cols = []
        for h, column in enumerate(columns):
            column = tuple(int(c) for c in column)
            if len(column) != h + 1:
                raise ValueError(f"column {h} must hold genera 0..{h}")
            if column[h] != (-1) ** h * (h + 1):
                raise ValueError(
                    f"diagonal entry n_{{{h},{h}}} = {column[h]} violates (-1)^h*(h+1)"
                )
            cols.append(column)
        if not cols:
            raise ValueError("grid needs at least the h = 0 column")
        object.__setattr__(self, "columns", tuple(cols))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("KkvBpsGrid is immutable")

    @property
    def h_max(self) -> int:
        return len(self.columns) - 1

    def value(self, g: int, h: int) -> int:
        """n_{g,h}; classes of square below -2 (h < 0) carry no states."""
        if g < 0:
            raise ValueError("genus must be >= 0")
        if h < 0:
            return 0
        if h > self.h_max:
            raise ValueError(f"h = {h} beyond the computed bound {self.h_max}")
        column = self.columns[h]
        return column[g] if g < len(column) else 0

    def column(self, h: int) -> tuple[int, ...]:
        if not 0 <= h <= self.h_max:
            raise ValueError(f"h = {h} beyond the computed bound {self.h_max}")
        return self.columns[h]

    def __eq__(self, other) -> bool:
        if not isinstance(other, KkvBpsGrid):
            return NotImplemented
        return self.columns == other.columns

    def __hash__(self) -> int:
        return hash(self.columns)

    def __repr__(self) -> str:
        return f"KkvBpsGrid(h_max={self.h_max})"


def _theta_coefficients(m: int) -> list[int]:
    """lambda-coefficients of S_m = sum_{|j| <= m} z^j, the q^(m(m+1)/2) term of D up to sign."""
    return [comb(m + k + 1, 2 * k + 1) + comb(m + k, 2 * k + 1) for k in range(m + 1)]


def _signed_thetas(h_max: int) -> list[tuple[int, list[int]]]:
    """(T_m, lambda-coefficients of (-1)^m S_m(-lambda) from the top degree down)
    for every m >= 1 with T_m = m(m+1)/2 <= h_max."""
    out = []
    m = 1
    while m * (m + 1) // 2 <= h_max:
        signed = [(-1) ** (m + k) * s for k, s in enumerate(_theta_coefficients(m))]
        out.append((m * (m + 1) // 2, signed[::-1]))
        m += 1
    return out


def _slot_width(euler: list[int], thetas: list[tuple[int, list[int]]]) -> int:
    """Bits per packed lambda-coefficient: enough for every coefficient of every column.

    The division recurrence of :func:`bps_grid_from_kkv` run on l1 norms,
    M_h += sum_m ||theta_m||_1 * M_(h - T_m) from M_h = |E_h|, bounds the l1
    norm, hence every coefficient, of column h after each pass.  Two bits
    more than the largest M_h leave a signed coefficient room in its slot;
    the width is rounded up to whole bytes for the unpack.
    """
    norms = [abs(e) for e in euler]
    weights = [(t, sum(map(abs, theta))) for t, theta in thetas]
    for _ in range(2):
        for h in range(1, len(norms)):
            norms[h] += sum(w * norms[h - t] for t, w in weights if t <= h)
    bits = max(norms).bit_length() + 2
    return -(-bits // 8) * 8


def _unpack(packed: int, slots: int, width: int) -> tuple[int, ...]:
    """The signed base-2^width digits c_0..c_(slots-1) of packed = sum_g c_g 2^(width*g).

    A bias of 2^(width-1) per slot makes every digit non-negative, so one
    byte string holds them all.  Bits left past the last slot, or a negative
    biased value, mean some coefficient did not fit its slot.
    """
    size = width // 8
    half = 1 << (width - 1)
    biased = packed + int.from_bytes((bytes(size - 1) + b"\x80") * slots, "little")
    if biased < 0 or biased >> (width * slots):
        raise ArithmeticError(f"a lambda-coefficient does not fit its {width}-bit slot")
    data = biased.to_bytes(size * slots, "little")
    return tuple(
        int.from_bytes(data[i : i + size], "little") - half for i in range(0, len(data), size)
    )


def bps_grid_from_kkv(h_max: int) -> KkvBpsGrid:
    """Extract n_{g,h} for h <= h_max from the KKV product, expanded in lambda.

    By Jacobi's triple product the KKV product is prod (1 - q^n)^(-18) / D^2
    with D = sum_{m >= 0} (-1)^m q^(T_m) S_m(lambda), T_m = m(m+1)/2.
    Replacing lambda by -lambda makes the lambda^g q^h coefficient n_{g,h}
    itself.  Column h is the q^h coefficient, a polynomial in lambda of
    degree at most h, stored packed as one integer: its value at
    lambda = 2^W (Kronecker substitution).  Evaluation at 2^W is a ring
    homomorphism, so every step below is exact in Z whatever the size of the
    coefficients.  The columns start as the Euler power
    prod (1 - q^n)^(-18) (:func:`_euler_power_coefficients`) and are divided
    by D twice in place, going up in h:

        column[h] -= sum_{m >= 1, T_m <= h} (-1)^m S_m(-lambda) * column[h - T_m],

    which reads only columns that are already divided.  Each product is
    formed by Horner's rule at 2^W, one shift and one small multiple per
    theta coefficient, all linear-time bigint work (multiplying by the packed
    theta would cost more from h ~ 200).  D has only about sqrt(2h) terms up
    to q^h.  Only the final unpack needs W to be large enough:
    :func:`_slot_width` takes it from an l1 majorant of the columns, and
    :func:`_unpack` raises if a coefficient still overflows its slot.

    The z-route (:func:`kkv_product`, then :func:`lambda_decompose` per
    column) computes the same grid independently and is its oracle in the
    tests.
    """
    if h_max < 0:
        raise ValueError("h_max must be >= 0")
    start = perf_counter()
    thetas = _signed_thetas(h_max)
    columns = _euler_power_coefficients(h_max, 18)
    width = _slot_width(columns, thetas)
    for _ in range(2):
        for h in range(1, h_max + 1):
            acc = columns[h]
            for t, theta in thetas:
                if t > h:
                    break
                earlier = columns[h - t]
                product = 0
                for s in theta:
                    product = (product << width) + s * earlier
                acc -= product
            columns[h] = acc
    grid = KkvBpsGrid(_unpack(packed, h + 1, width) for h, packed in enumerate(columns))
    log.debug(
        "bps_grid_from_kkv h_max=%d in %.3f s, slot %d bits",
        h_max,
        perf_counter() - start,
        width,
    )
    return grid


def yau_zaslow_series(h_max: int) -> LaurentSeries:
    """The genus-0 count series prod_{n>=1} (1 - q^n)^(-24) up to q^h_max."""
    if h_max < 0:
        raise ValueError("h_max must be >= 0")
    return LaurentSeries("q", 0, _euler_power_coefficients(h_max, 24), h_max)
