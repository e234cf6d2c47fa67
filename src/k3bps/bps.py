"""The BPS (Gopakumar-Vafa) transform between Gromov-Witten potentials and
integer state counts.

For a threefold whose curve classes are multiples of one primitive class, the
genus-graded Gromov-Witten series at grade D sums primitive series at rescaled u,

    sum_{g} N_{g,D} u^(2g-2) = sum_{k | D} (1/k) * F_{D/k}(k*u),
    F_e(u) = sum_{g} n_{g,e} * (2*sin(u/2))^(2g-2),

so only the d = 1 sine brackets are expanded.  They are integers over
factorials: (2*sin(u/2))^(2m) from the central factorial numbers T(2n, 2m),
and (2*sin(u/2))^-2 from the Bernoulli numbers, both tables grown once and
shared by every u-order.  A grade is then one integer sum per coefficient
over (2n)! * D, reduced once.

The inverse shares none of that.  With T_k G(u) = G(k*u)/k the forward is
N_D = sum_{k | D} T_k F_{D/k}, and T_k T_l = T_(kl), so Moebius inversion
gives F_D = sum_{k | D} mu(k) T_k N_{D/k}: its u^(2g-2) coefficient is
sum_{k | D} mu(k) k^(2g-3) N_{g,D/k}, one integer sum over D^3 once the
potential is on one integer scale.  Then n_{g,D} = [x^(g-1)] F_D with
x = (2*sin(u/2))^2, read from the other side of the substitution: u^(2j)/(2j)!
= sum_n |t(2n,2j)| x^n/(2n)! in the central factorial numbers of the first
kind, and u^-2 = sum_g c_g x^(g-1) with c_g = [x^g] x/u^2, one series inverse
of u^2/x = sum_m 2 m!^2 x^m/(2m+2)!.  Both tables are grown once, like the
forward's.  The solve is exact, but it need not produce integers for
arbitrary rational input, and integrality is reported rather than assumed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Mapping

from .scalars import as_fraction
from .series import LaurentSeries


def divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError("n must be >= 1")
    small, large = [], []
    k = 1
    while k * k <= n:
        if n % k == 0:
            small.append(k)
            if k != n // k:
                large.append(n // k)
        k += 1
    return small + large[::-1]


def mobius(n: int) -> int:
    """The Moebius function mu(n) of n >= 1, by trial division."""
    if n < 1:
        raise ValueError("n must be >= 1")
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


# Growing caches shared by every u-order: rows n of the central factorial
# triangle T(2n, 2j), j = 0..n, and |B_2n| with the last Seidel-Entringer row
# they are read from; for the inverse, rows n of the first-kind triangle
# |t(2n, 2j)| and the genus-0 column e_g.
_central_rows: list[list[int]] = [[1]]
_bernoulli: list[Fraction] = [Fraction(1)]
_seidel_row: list[int] = [1]
_first_kind_rows: list[list[int]] = [[1]]
_genus_zero: list[Fraction] = [Fraction(1)]


def central_factorial_row(n: int) -> list[int]:
    """The integers T(2n, 2j), j = 0..n: T(0,0) = 1 and
    T(2n,2j) = T(2n-2,2j-2) + j^2 T(2n-2,2j)."""
    while len(_central_rows) <= n:
        prev = _central_rows[-1] + [0]
        _central_rows.append([0] + [prev[j - 1] + j * j * prev[j] for j in range(1, len(prev))])
    return _central_rows[n]


def bernoulli_abs(n: int) -> Fraction:
    """|B_2n| = 2n A_(2n-1) / (4^n (4^n - 1)) for n >= 1, from the zigzag numbers
    A_r, the last entries of the Seidel-Entringer rows E(r,k) = E(r,k-1) + E(r-1,r-k)."""
    global _seidel_row
    while len(_bernoulli) <= n:
        k = len(_bernoulli)
        while len(_seidel_row) < 2 * k:
            row = [0]
            for i in range(len(_seidel_row), 0, -1):
                row.append(row[-1] + _seidel_row[i - 1])
            _seidel_row = row
        _bernoulli.append(Fraction(2 * k * _seidel_row[-1], 4**k * (4**k - 1)))
    return _bernoulli[n]


def central_factorial_first_kind_row(n: int) -> list[int]:
    """The integers |t(2n, 2j)|, j = 0..n: |t(0,0)| = 1 and
    |t(2n,2j)| = |t(2n-2,2j-2)| + (n-1)^2 |t(2n-2,2j)|.

    They expand u in x = (2*sin(u/2))^2, u^(2j)/(2j)! = sum_n |t(2n,2j)| x^n/(2n)!,
    and the signed (-1)^(n-j) |t(2n,2j)| invert the rows of T(2n, 2j).
    """
    while len(_first_kind_rows) <= n:
        r = len(_first_kind_rows)
        prev = _first_kind_rows[-1] + [0]
        step = (r - 1) ** 2
        _first_kind_rows.append([0] + [prev[j - 1] + step * prev[j] for j in range(1, r + 1)])
    return _first_kind_rows[n]


def genus_zero_column(g: int) -> Fraction:
    """e_g = (2g+1)! [x^g] x/u^2 with x = (2*sin(u/2))^2, so that
    u^-2 = sum_g e_g x^(g-1) / (2g+1)!.

    u^2/x = sum_m 2 m!^2 x^m/(2m+2)!, so the e_g solve
    sum_m 2 m!^2 C(2g+3, 2m+2) e_(g-m) = 6 [g = 0], each one integer sum over
    the lcm of the earlier (small) denominators.
    """
    while len(_genus_zero) <= g:
        n = len(_genus_zero)
        common = lcm(*(e.denominator for e in _genus_zero))
        total, weight = 0, 1  # weight = m!
        for m in range(1, n + 1):
            weight *= m
            e = _genus_zero[n - m]
            scaled = e.numerator * (common // e.denominator)
            total += weight * weight * comb(2 * n + 3, 2 * m + 2) * scaled
        _genus_zero.append(Fraction(-2 * total, (2 * n + 2) * (2 * n + 3) * common))
    return _genus_zero[g]


@lru_cache(maxsize=None)
def sine_bracket(d: int, g: int, order: int) -> LaurentSeries:
    """Laurent series of ``(2*sin(d*u/2))**(2g-2)`` in u: even, led by (d*u)^(2g-2).

    The d = 1 series is rescaled by u -> d*u.  With m = g-1 >= 0,

        (2*sin(u/2))**(2m) = (2m)! * sum_{n>=m} (-1)^(n-m) T(2n,2m) u^(2n)/(2n)!

    in the integer central factorial numbers T, and g = 0 is

        (2*sin(u/2))**-2 = u^-2 + sum_{n>=1} (2n-1) |B_2n| u^(2n-2)/(2n)!

    in the Bernoulli numbers: the one-state primitive series F_1 of the grade
    sums, so no series is inverted.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if g < 0:
        raise ValueError("g must be >= 0")
    if order < 2 * g - 2:
        raise ValueError(f"truncation order {order} cannot hold the leading term u^{2 * g - 2}")
    if d > 1:
        return sine_bracket(1, g, order).rescaled(d)
    return _grade_series({1: _primitive_numerators({g: 1}, order)}, 1, order)


# bound once, so the counts stay readable when the name ``sine_bracket`` is
# rebound to a wrapper (a profiler or a test double) that has no cache_info
sine_bracket_cache_info = sine_bracket.cache_info


class BpsTable:
    """Finite table of BPS state counts n_{g, d*beta} keyed by (genus, grade).

    Values are integers for honest BPS data; rational values are accepted so
    that the inverse transform can report non-integrality instead of failing.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[tuple[int, int], object]) -> None:
        kept: dict[tuple[int, int], object] = {}
        for (g, d), value in entries.items():
            g, d = int(g), int(d)
            if g < 0:
                raise ValueError("genus must be >= 0")
            if d < 1:
                raise ValueError("class grade must be >= 1")
            if not isinstance(value, int):
                value = as_fraction(value)
                if value.denominator == 1:
                    value = int(value)
            if value:
                kept[(g, d)] = value
        object.__setattr__(self, "entries", kept)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("BpsTable is immutable")

    @classmethod
    def single_state(cls) -> "BpsTable":
        """One genus-0 state in the primitive class: the isolated rational curve."""
        return cls({(0, 1): 1})

    def value(self, g: int, d: int):
        return self.entries.get((g, d), 0)

    def max_genus(self) -> int:
        return max((g for (g, _) in self.entries), default=-1)

    @property
    def is_integral(self) -> bool:
        return not self.non_integral_entries()

    def non_integral_entries(self) -> list[tuple[int, int]]:
        return sorted(k for k, v in self.entries.items() if not isinstance(v, int))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BpsTable):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"BpsTable({self.entries!r})"


class GwPotential:
    """Gromov-Witten invariants N_{g, d*beta} with an explicit u-truncation."""

    __slots__ = ("entries", "u_truncation")

    def __init__(self, entries: Mapping[tuple[int, int], object], u_truncation: int) -> None:
        kept: dict[tuple[int, int], Fraction] = {}
        for (g, d), value in entries.items():
            g, d = int(g), int(d)
            if g < 0 or d < 1:
                raise ValueError("invalid (genus, grade) key")
            value = as_fraction(value)
            if 2 * g - 2 > u_truncation:
                raise ValueError(
                    f"entry at genus {g} lies beyond the u-truncation {u_truncation}"
                )
            if value:
                kept[(g, d)] = value
        object.__setattr__(self, "entries", kept)
        object.__setattr__(self, "u_truncation", u_truncation)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("GwPotential is immutable")

    def value(self, g: int, d: int) -> Fraction:
        return self.entries.get((g, d), Fraction(0))

    def grade_series(self, d: int) -> LaurentSeries:
        """The u-series sum_g N_{g,d} u^(2g-2) at one grade."""
        picked = {2 * g - 2: v for (g, dd), v in self.entries.items() if dd == d}
        if not picked:
            return LaurentSeries.zero("u", self.u_truncation)
        lo = min(picked)
        coeffs = [picked.get(k, Fraction(0)) for k in range(lo, self.u_truncation + 1)]
        return LaurentSeries("u", lo, coeffs, self.u_truncation)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GwPotential):
            return NotImplemented
        return self.u_truncation == other.u_truncation and self.entries == other.entries

    def __repr__(self) -> str:
        return f"GwPotential({self.entries!r}, u_truncation={self.u_truncation})"


def _primitive_numerators(values: Mapping[int, object], u_order: int):
    """F_e(u) = sum_g n_g (2*sin(u/2))^(2g-2) for one grade e, in integers.

    ``values`` maps genus g to n_(g,e); a genus whose leading degree 2g-2
    exceeds the truncation is left out.  Returns (scale, lead, numerators),
    or None when nothing is left: scale is the lcm of the values'
    denominators, and F_e = lead/scale u^-2 + sum_n numerators[n] /
    (scale * D_n) u^(2n), D_n = (2n+2)! * den |B_(2n+2)|.
    """
    top = u_order // 2
    kept = {g: v for g, v in values.items() if v and 2 * g - 2 <= u_order}
    if not kept:
        return None
    scale = lcm(*(v.denominator for v in kept.values() if not isinstance(v, int)))
    kept = {g: int(v * scale) for g, v in kept.items()}
    lead = kept.get(0, 0)
    # n_g (-1)^m (2m)! with m = g - 1, the genus-g factor of T(2n,2m)
    weights = [(g - 1, n * (-1) ** (g - 1) * factorial(2 * g - 2)) for g, n in kept.items() if g]
    numerators = []
    for n in range(top + 1):
        row = central_factorial_row(n)
        inner = sum(w * row[m] for m, w in weights if m <= n)
        bernoulli = bernoulli_abs(n + 1)
        numerators.append(
            (-1) ** n * inner * (2 * n + 1) * (2 * n + 2) * bernoulli.denominator
            + lead * (2 * n + 1) * bernoulli.numerator
        )
    return scale, lead, numerators


def _grade_pairs(primitives: Mapping[int, tuple], d: int, u_order: int):
    """sum_(k | d) (1/k) F_(d/k)(k*u), with F_e read from ``primitives`` (grade e
    to the output of :func:`_primitive_numerators`; a missing grade is zero),
    as one (numerator, denominator) integer pair per degree -2 .. u_order, or
    [] for zero.

    F_e(k*u)/k has u^(2n) coefficient numerators[n] k^(2n-1) / (scale * D_n);
    over the common denominator D_n * d * L, with L the lcm of the scales,
    every term is the integer numerators[n] * (L/scale) * k^(2n) * (d/k), so
    each coefficient is one integer sum.  The u^-2 terms lead/scale k^-3 sit
    over d^3 * L alike.  The pairs are not reduced.
    """
    terms = [(k, primitives[d // k]) for k in divisors(d) if primitives.get(d // k)]
    if not terms or u_order < -2:
        return []
    common = lcm(*(scale for _, (scale, _, _) in terms))
    terms = [(k, (d // k) * common // scale, lead, nums) for k, (scale, lead, nums) in terms]
    pairs = [(0, 1)] * (u_order + 3)
    pairs[0] = (sum(lead * w * (d // k) ** 2 for k, w, lead, _ in terms), d**3 * common)
    powers = [1] * len(terms)  # k^(2n)
    factorial_part = 2  # (2n+2)!
    for n in range(u_order // 2 + 1):
        if n:
            factorial_part *= (2 * n + 1) * (2 * n + 2)
            powers = [p * k * k for p, (k, _, _, _) in zip(powers, terms)]
        total = sum(p * w * nums[n] for p, (_, w, _, nums) in zip(powers, terms))
        pairs[2 * n + 2] = (total, factorial_part * bernoulli_abs(n + 1).denominator * d * common)
    return pairs


def _grade_series(primitives: Mapping[int, tuple], d: int, u_order: int):
    """The grade sum of :func:`_grade_pairs` as one series over the lcm of the pairs."""
    pairs = _grade_pairs(primitives, d, u_order)
    if not pairs:
        return LaurentSeries.zero("u", u_order)
    common = lcm(*(den for _, den in pairs))
    return LaurentSeries._from_integers(
        "u", -2, [n * (common // den) for n, den in pairs], common, u_order
    )


def _by_grade(entries: Mapping[tuple[int, int], object], u_order: int, grades) -> dict:
    values: dict[int, dict[int, object]] = {}
    for (g, e), value in entries.items():
        if e in grades:
            values.setdefault(e, {})[g] = value
    return {e: _primitive_numerators(v, u_order) for e, v in values.items()}


def gw_grade_series(table: BpsTable, d: int, u_order: int) -> LaurentSeries:
    """Forward transform at a single grade: sum_{k | d} (1/k) F_{d/k}(k*u)."""
    grades = {d // k for k in divisors(d)}
    total = _grade_series(_by_grade(table.entries, u_order, grades), d, u_order)
    for deg, c in enumerate(total._num, total.min_degree):
        if deg % 2 and c:
            raise ArithmeticError(
                f"odd-degree coefficient {total.coefficient(deg)} at u^{deg}: the sine brackets "
                "are even, so this signals an internal arithmetic bug"
            )
    return total


def gw_from_bps(table: BpsTable, d_max: int, u_order: int | None = None) -> GwPotential:
    """Gromov-Witten potential generated by a BPS table, for grades <= d_max.

    Each F_e is built once and read by every grade that e divides."""
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    if u_order is None:
        u_order = 2 * max(table.max_genus(), 0) + 2
    primitives = _by_grade(table.entries, u_order, range(1, d_max + 1))
    entries: dict[tuple[int, int], Fraction] = {}
    for d in range(1, d_max + 1):
        for k, (n, den) in enumerate(_grade_pairs(primitives, d, u_order)):
            if n:
                entries[k // 2, d] = Fraction(n, den)
    return GwPotential(entries, u_order)


def _x_coefficients(f: list[int]) -> list[tuple[int, int]]:
    """[x^(g-1)] of sum_g f_g u^(2g-2), x = (2*sin(u/2))^2, for g = 0..len(f)-1,
    as (numerator, denominator) integer pairs, not reduced.

    u^(2g-2) = (2g-2)! sum_(r >= g-1) |t(2r,2g-2)| x^r/(2r)! for g >= 1 and
    u^-2 = sum_r e_r x^(r-1)/(2r+1)!, so the x^(g-1) coefficient is
    f_0 e_g/(2g+1)! + sum_(j < g) f_(j+1) (2j)! |t(2g-2,2j)| / (2g-2)!.
    """
    scaled, weight = [], 1  # f_(j+1) (2j)!, weight = (2j)!
    for j, c in enumerate(f[1:]):
        if j:
            weight *= (2 * j - 1) * 2 * j
        scaled.append(c * weight)
    pairs = [(f[0], 1)]
    top_factorial = 1  # (2g+1)!
    for g in range(1, len(f)):
        top_factorial *= 2 * g * (2 * g + 1)
        inner = sum(s * t for s, t in zip(scaled, central_factorial_first_kind_row(g - 1)) if s)
        e = genus_zero_column(g)
        numerator = f[0] * e.numerator + e.denominator * (2 * g + 1) * 2 * g * (2 * g - 1) * inner
        pairs.append((numerator, e.denominator * top_factorial))
    return pairs


def bps_from_gw(potential: GwPotential, d_max: int) -> BpsTable:
    """The unique BPS table whose forward transform matches the potential.

    By Moebius inversion over the covers, F_d has u^(2g-2) coefficient
    d^-3 sum_(k | d) mu(k) (d/k)^3 k^(2g) N_(g,d/k); its genus-g count is the
    x^(g-1) coefficient of F_d in x = (2*sin(u/2))^2 (:func:`_x_coefficients`).
    Non-integer results are kept as Fractions and reported, not rejected.
    """
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    u_order = potential.u_truncation
    if u_order < -2:
        raise ValueError("u-truncation below u^-2 cannot hold any genus-0 data")
    top_genus = (u_order + 2) // 2
    kept = {key: v for key, v in potential.entries.items() if key[1] <= d_max}
    scale = lcm(*(v.denominator for v in kept.values()))
    mu = [0] + [mobius(k) for k in range(1, d_max + 1)]
    # grade d to d^3 * scale * (u^(2g-2) coefficient of F_d), g = 0..top_genus
    primitives: dict[int, list[int]] = {}
    for (g, e), v in kept.items():
        weight = v.numerator * (scale // v.denominator) * e**3
        for k in range(1, d_max // e + 1):
            if mu[k]:
                row = primitives.setdefault(e * k, [0] * (top_genus + 1))
                row[g] += mu[k] * k ** (2 * g) * weight
    entries: dict[tuple[int, int], Fraction] = {}
    for d in sorted(primitives):
        for g, (n, den) in enumerate(_x_coefficients(primitives[d])):
            if n:
                entries[g, d] = Fraction(n, den * d**3 * scale)
    return BpsTable(entries)
