"""Stable-pairs generating functions and the MNOP change of variables.

For a primitive class of square 2h-2 the connected/reduced pairs series is
the rational function

    P_h(q) = sum_{g=0..h} n_{g,h} * q^(1-g) * (1+q)^(2g-2),

the unique rational function matching the primitive Gromov-Witten series
term-by-term under q = -exp(i*u), via the identity
(2*sin(u/2))^2 = (1+q)^2 / q.  Each summand is palindromic, so P_h is
invariant under q <-> 1/q.

Over the denominator q^max(h-1, 0) * (1+q)^2 its numerator has the integer
coefficients sum_g n_{g,h} * C(2g, j).  Like every pairs function below, it
reaches canonical form through the generic reduction of RationalFunction,
whose gcd splits off each operand's own power of q, so only the factor
(1+q)^2 enters the remainder sequence.

Imprimitive classes d*beta are assembled purely from primitive data keyed by
the square, never by the divisibility, through the multiple cover formula

    P_{d*beta}(q) = sum_{k | d} (1/k) * P_{gamma(k)}( -(-q)^k ),

where gamma(k) is a primitive class with the same square as (d/k)*beta.
Every pairs function is reached through a :class:`PairsLedger`, which
computes it once and checks its q <-> 1/q invariance.

The substitution q = -exp(i*u) needs no imaginary unit.  Centred on the
midpoint a of the denominator's degree range, e^{-iau} p(-e^{iu}) has u^t
coefficient i^t/t! * sum_j p_j (-1)^j (j-a)^t; invariance under q <-> 1/q
makes every odd-t sum vanish, which is checked exactly, so only real even
powers of u remain and the factor e^{-iau} cancels in the quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .bps import BpsTable, divisors, gw_grade_series
from .graded import GradedSeries
from .kkv import KkvBpsGrid
from .rational import (
    RationalFunction,
    _proot_multiplicity,
    _pval,
    check_q_inversion_symmetry,
)
from .series import LaurentSeries


@dataclass(frozen=True)
class HodgeLabel:
    """A class d*beta with beta primitive of square 2h-2.

    The derived label ``h_of(k)`` is the square label of the class (d/k)*beta:
    a primitive class of equal square has square label (d/k)^2*(h-1)+1.
    """

    d: int
    h: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("divisibility d must be >= 1")
        if self.h < 0:
            raise ValueError("square label h must be >= 0")

    def h_of(self, k: int) -> int:
        if self.d % k:
            raise ValueError(f"{k} does not divide {self.d}")
        return self.square_label(self.d // k)

    def square_label(self, grade: int) -> int:
        """Square label of the class grade*beta (may be negative for h = 0)."""
        return grade * grade * (self.h - 1) + 1


def grid_column(d: int, h: int) -> int:
    """The KKV grid column that the classes k*beta, k <= d, read.

    For beta primitive with square label h this is the square label
    d^2 (h-1) + 1 of d*beta, never below h or 0.
    """
    return max(d * d * (h - 1) + 1, h, 0)


def primitive_pairs_ratfn(h: int, grid: KkvBpsGrid) -> RationalFunction:
    """Connected pairs series of a primitive class with square label h.

    The integer numerator is put over q^max(h-1, 0) (1+q)^2 and reduced by
    the generic canonical form.  Labels below h = 0 have square below -2 and
    carry nothing.
    """
    if h < 0:
        return RationalFunction.zero()
    if h > grid.h_max:
        raise ValueError(f"grid only reaches h = {grid.h_max}, need column {h}")
    shift = max(h - 1, 0)
    # numerator = sum_g n_{g,h} q^(shift+1-g) (1+q)^(2g) over the common
    # denominator q^shift (1+q)^2, in integers
    numerator = [0] * (shift + h + 2)
    for g in range(h + 1):
        n = grid.value(g, h)
        if n:
            low = shift + 1 - g
            for j in range(2 * g + 1):
                numerator[low + j] += n * comb(2 * g, j)
    return RationalFunction(numerator, (0,) * shift + (1, 2, 1))


class PairsLedger:
    """The one route to pairs series: computed once per class, each checked.

    ``primitive`` maps a square label h to the primitive series; ``imprimitive``
    maps (d, h) with h the square label of the underlying primitive class and
    runs the multiple cover sum over cached primitive series.  Whatever either
    returns has passed :func:`check_q_inversion_symmetry`; a failure raises
    ``ArithmeticError``, since it can only be an arithmetic bug.
    """

    def __init__(self, grid: KkvBpsGrid) -> None:
        self.grid = grid
        self._primitive: dict[int, RationalFunction] = {}
        self._imprimitive: dict[tuple[int, int], RationalFunction] = {}

    def _checked(self, fn: RationalFunction, what: str) -> RationalFunction:
        if not check_q_inversion_symmetry(fn):
            raise ArithmeticError(f"{what} is not invariant under q <-> 1/q: arithmetic bug")
        return fn

    def primitive(self, h: int) -> RationalFunction:
        if h not in self._primitive:
            self._primitive[h] = self._checked(
                primitive_pairs_ratfn(h, self.grid), f"primitive series at h={h}"
            )
        return self._primitive[h]

    def imprimitive(self, d: int, h: int) -> RationalFunction:
        """P_{d*beta}(q) = sum_{k|d} (1/k) * P_{gamma(k)}(-(-q)^k); the sign flip
        for even k keeps each summand q <-> 1/q symmetric."""
        if (d, h) not in self._imprimitive:
            label = HodgeLabel(d, h)
            total = RationalFunction.linear_combination(
                (
                    Fraction(1, k),
                    self.primitive(label.h_of(k)).substitute_scaled_power((-1) ** (k + 1), k),
                )
                for k in divisors(d)
            )
            self._imprimitive[(d, h)] = self._checked(total, f"series at (d={d}, h={h})")
        return self._imprimitive[(d, h)]

    @property
    def primitive_entries(self) -> dict[int, RationalFunction]:
        return dict(self._primitive)

    @property
    def imprimitive_entries(self) -> dict[tuple[int, int], RationalFunction]:
        return dict(self._imprimitive)


def multiple_cover(
    label: HodgeLabel, grid: KkvBpsGrid, ledger: PairsLedger | None = None
) -> RationalFunction:
    """Pairs series of the class d*beta from primitive data only.

    Always read through a ledger (a new one when none is passed), so the
    result is symmetry-checked.  A ledger built on a grid with other columns
    than ``grid`` raises ``ValueError`` rather than answer from other data.
    """
    if ledger is None:
        ledger = PairsLedger(grid)
    if ledger.grid.columns != grid.columns:
        raise ValueError("the ledger was built on another KKV grid than the one passed")
    return ledger.imprimitive(label.d, label.h)


def _centred_u_series(p: tuple, centre2: int, u_order: int) -> LaurentSeries:
    """The u-series of e^{-iau} p(-e^{iu}) with 2a = ``centre2``, over Fraction.

    Since p(-e^{iu}) = sum_j p_j (-1)^j e^{iju}, its u^t coefficient is i^t
    times s_t = sum_j p_j (-1)^j (j - a)^t / t!.  Every odd s_t must vanish;
    then i^t is the real sign (-1)^(t/2).  The sums run over integers: p is
    cleared of denominators and (j - a) is doubled.
    """
    denom = lcm(*(c.denominator for c in p))
    offsets = [2 * j - centre2 for j, c in enumerate(p) if c]
    terms = [int(c * denom) * (-1) ** j for j, c in enumerate(p) if c]
    coeffs = []
    scale = denom  # denom * 2^t * t!
    for t in range(u_order + 1):
        if t:
            scale *= 2 * t
            terms = [x * m for x, m in zip(terms, offsets)]
        total = sum(terms)
        if t % 2 and total:
            raise ArithmeticError(
                f"nonzero u^{t} term about q^{Fraction(centre2, 2)}: the input was not "
                "q <-> 1/q symmetric, or an arithmetic bug occurred"
            )
        coeffs.append(Fraction(-total if t % 4 == 2 else total, scale))
    return LaurentSeries("u", 0, coeffs, u_order)


def substitute_q_minus_exp(r: RationalFunction, u_order: int) -> LaurentSeries:
    """Formal substitution q = -exp(i*u) into a rational function of q.

    Numerator and denominator are both centred on a = (lowest + highest
    degree of the denominator) / 2, and the common factor e^{-iau} cancels in
    the quotient.  For a q <-> 1/q symmetric r both centred series are real
    and even in u; an odd term means r was not symmetric (or an arithmetic
    bug) and raises.  The pole at u = 0 comes from the denominator vanishing
    at q = -1 and is removed by exact Laurent division.
    """
    if r.is_zero:
        raise ValueError("the zero function has an identically vanishing numerator")
    pole = _proot_multiplicity(r.denominator, Fraction(-1))
    zero = _proot_multiplicity(r.numerator, Fraction(-1))
    # Working precision: the quotient of a valuation-`zero` numerator by a
    # valuation-`pole` denominator is valid to work - 2*pole + zero, and the
    # valuation checks below need the window to reach both valuations.
    work = max(u_order, 0) + 2 * pole + zero + 2
    centre2 = _pval(r.denominator) + len(r.denominator) - 1
    num_series = _centred_u_series(r.numerator, centre2, work)
    den_series = _centred_u_series(r.denominator, centre2, work)
    if den_series.valuation() != pole or num_series.valuation() != zero:
        raise ArithmeticError("substitution series valuation disagrees with root multiplicity")
    return (num_series * den_series.inverse()).truncate(u_order)


def bps_table_from_grid(grid: KkvBpsGrid, d_max: int, h: int) -> BpsTable:
    """BPS table over grades 1..d_max for multiples of a primitive class
    with square label h, populated from the KKV grid by square."""
    entries: dict[tuple[int, int], int] = {}
    squares: dict[int, int] = {}
    label = HodgeLabel(1, h)
    for grade in range(1, d_max + 1):
        hd = label.square_label(grade)
        squares[grade] = hd
        if hd < 0:
            continue
        if hd > grid.h_max:
            raise ValueError(
                f"grade {grade} needs column h = {hd}, but the grid stops at {grid.h_max}"
            )
        for g in range(hd + 1):
            value = grid.value(g, hd)
            if value:
                entries[(g, grade)] = value
    return BpsTable(entries, square_labels=squares)


@dataclass(frozen=True)
class MnopReport:
    """Outcome of one local MNOP comparison."""

    label: HodgeLabel
    equal: bool
    lhs: LaurentSeries
    rhs: LaurentSeries
    first_mismatch: tuple | None

    def __bool__(self) -> bool:
        return self.equal


def mnop_check(
    label: HodgeLabel,
    grid: KkvBpsGrid,
    u_order: int = 12,
    ledger: PairsLedger | None = None,
) -> MnopReport:
    """Compare the two sides of the local MNOP identity at one class.

    The left side runs the BPS transform on KKV data; the right side runs the
    multiple cover formula and the q = -exp(i*u) substitution.  The two
    pipelines share no series code beyond the base ring.
    """
    table = bps_table_from_grid(grid, label.d, label.h)
    lhs = gw_grade_series(table, label.d, u_order)
    rhs = substitute_q_minus_exp(multiple_cover(label, grid, ledger), u_order)
    mismatch = lhs.first_difference(rhs, u_order)
    return MnopReport(label, mismatch is None, lhs, rhs, mismatch)


def disconnected_partition(
    grid: KkvBpsGrid, h: int, d_max: int, ledger: PairsLedger | None = None
) -> GradedSeries:
    """Disconnected pairs partition function graded by class multiple.

    The graded exponential of the connected entries d -> P_{d*beta}; taking
    the graded log returns the connected ledger.
    """
    if ledger is None:
        ledger = PairsLedger(grid)
    entries = {
        d: multiple_cover(HodgeLabel(d, h), grid, ledger) for d in range(1, d_max + 1)
    }
    return GradedSeries(d_max, entries).exp()
