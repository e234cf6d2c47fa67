"""The BPS (Gopakumar-Vafa) transform between Gromov-Witten potentials and
integer state counts.

For a threefold whose curve classes are multiples of one primitive class, the
genus-graded Gromov-Witten series at grade D sums primitive series at rescaled u,

    sum_{g} N_{g,D} u^(2g-2) = sum_{k | D} (1/k) * F_{D/k}(k*u),
    F_e(u) = sum_{g} n_{g,e} * (2*sin(u/2))^(2g-2),

so only the d = 1 sine brackets are expanded.  The relation is upper triangular
with unit diagonal (grade-by-grade over divisors, genus-by-genus within a
grade), so it inverts exactly; the inverse need not produce integers for
arbitrary rational input, and integrality is reported rather than assumed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
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


@lru_cache(maxsize=None)
def sine_bracket(d: int, g: int, order: int) -> LaurentSeries:
    """Laurent series of ``(2*sin(d*u/2))**(2g-2)`` in u: even, led by (d*u)^(2g-2).

    The d = 1 series is rescaled by u -> d*u.  With m = g-1 >= 1,

        (2*sin(u/2))**(2m) = (2m)! * sum_{n>=m} (-1)^(n-m) T(2n,2m) u^(2n)/(2n)!

    in the central factorial numbers, the integers with T(0,0) = 1 and
    T(2n,2j) = T(2n-2,2j-2) + j^2 T(2n-2,2j).  Rows are carried only up to
    column m: O(order * g) integer operations.  g = 0 inverts the m = 1
    series taken to order + 4, as the inverse loses four orders; g = 1 is 1.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if g < 0:
        raise ValueError("g must be >= 0")
    if order < 2 * g - 2:
        raise ValueError(f"truncation order {order} cannot hold the leading term u^{2 * g - 2}")
    if d > 1:
        return sine_bracket(1, g, order).rescaled(d)
    if g == 1:
        return LaurentSeries.one("u", order)
    m, top = (1, order + 4) if g == 0 else (g - 1, order)
    row = [1] + [0] * m  # T(2n, 2j) for j = 0..m, starting at n = 0
    coeffs = [0] * (top - 2 * m + 1)  # degrees 2m..top
    scale, denominator = factorial(2 * m), 1  # (2m)! and (2n)!
    for n in range(1, top // 2 + 1):
        for j in range(min(n, m), 0, -1):
            row[j] = row[j - 1] + j * j * row[j]
        row[0] = 0
        denominator *= (2 * n - 1) * 2 * n
        if n >= m:
            coeffs[2 * (n - m)] = Fraction((-1) ** (n - m) * scale * row[m], denominator)
    power = LaurentSeries("u", 2 * m, coeffs, top)
    return power.inverse() if g == 0 else power


# bound once, so the counts stay readable when the name ``sine_bracket`` is
# rebound to a wrapper (a profiler or a test double) that has no cache_info
sine_bracket_cache_info = sine_bracket.cache_info


class BpsTable:
    """Finite table of BPS state counts n_{g, d*beta} keyed by (genus, grade).

    Values are integers for honest BPS data; rational values are accepted so
    that the inverse transform can report non-integrality instead of failing.
    ``square_labels`` optionally records, per grade, the square label h of the
    class d*beta (kept as plain metadata).
    """

    __slots__ = ("entries", "square_labels")

    def __init__(
        self,
        entries: Mapping[tuple[int, int], object],
        square_labels: Mapping[int, int] | None = None,
    ) -> None:
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
        object.__setattr__(
            self, "square_labels", dict(square_labels) if square_labels is not None else None
        )

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


def _covers(entries: Mapping, d: int, ks: list[int], u_order: int) -> list:
    """The terms (1/k, F_{d/k}(k*u)) of grade d for k in ks, F_e built from the
    d = 1 brackets only.  A zero F_e is left out, as is an entry whose leading
    degree 2g-2 exceeds the truncation: it contributes nothing below it."""
    covers = []
    for k in ks:
        primitive = [
            (value, sine_bracket(1, g, u_order))
            for (g, e), value in entries.items()
            if e * k == d and 2 * g - 2 <= u_order
        ]
        if primitive:
            covers.append((Fraction(1, k), LaurentSeries.linear_combination(primitive).rescaled(k)))
    return covers


def gw_grade_series(table: BpsTable, d: int, u_order: int) -> LaurentSeries:
    """Forward transform at a single grade: sum_{k | d} (1/k) F_{d/k}(k*u)."""
    total = LaurentSeries.linear_combination(
        [(1, LaurentSeries.zero("u", u_order))] + _covers(table.entries, d, divisors(d), u_order)
    )
    for deg, c in total.items():
        if deg % 2 and c:
            raise ArithmeticError(
                f"odd-degree coefficient {c} at u^{deg}: the sine brackets are even, "
                "so this signals an internal arithmetic bug"
            )
    return total


def gw_from_bps(table: BpsTable, d_max: int, u_order: int | None = None) -> GwPotential:
    """Gromov-Witten potential generated by a BPS table, for grades <= d_max."""
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    if u_order is None:
        u_order = 2 * max(table.max_genus(), 0) + 2
    entries: dict[tuple[int, int], Fraction] = {}
    for d in range(1, d_max + 1):
        for degree, value in gw_grade_series(table, d, u_order).items():
            if value:
                entries[(degree + 2) // 2, d] = value
    return GwPotential(entries, u_order)


def bps_from_gw(potential: GwPotential, d_max: int) -> BpsTable:
    """The unique BPS table whose forward transform matches the potential.

    Works grade-by-grade (subtract the covers (1/k) F_{d/k}(k*u), k > 1) and
    genus-by-genus (triangular solve against the unit-leading d = 1 brackets).
    Non-integer results are kept as Fractions and reported, not rejected.
    """
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    u_order = potential.u_truncation
    if u_order < -2:
        raise ValueError("u-truncation below u^-2 cannot hold any genus-0 data")
    top_genus = (u_order + 2) // 2
    entries: dict[tuple[int, int], object] = {}
    for d in range(1, d_max + 1):
        covered = _covers(entries, d, divisors(d)[1:], u_order)
        residual = LaurentSeries.linear_combination(
            [(1, potential.grade_series(d))] + [(-w, f) for w, f in covered]
        )
        for g in range(0, top_genus + 1):
            c = residual.coefficient(2 * g - 2)
            if c:
                entries[(g, d)] = c
                residual = residual - sine_bracket(1, g, u_order) * c
    return BpsTable(entries, square_labels=None)
