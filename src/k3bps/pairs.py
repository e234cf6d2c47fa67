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

The substitution q = -exp(i*u) runs in integers, on a RationalFunction's
integer pair.  Centred on the midpoint a of the denominator's degree range,
e^{-iau} p(-e^{iu}) has u^t coefficient i^t/t! sum_j p_j (-1)^j (j-a)^t.  Both
polynomials must be palindromic about a, with the sign (-1)^j on q^j, which
holds exactly when the function is q <-> 1/q symmetric; then odd-t sums vanish,
the even ones fold the offsets +-(j-a) together, and e^{-iau} cancels.  The
even series are divided in x = u^2 in binomial form over one integer
denominator.  Nothing here reads the sine brackets of :mod:`k3bps.bps`, so
:func:`mnop_check` compares two independent computations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, perm, prod
from time import perf_counter

from .bps import BpsTable, divisors, gw_grade_series
from .graded import GradedSeries
from .kkv import KkvBpsGrid
from .rational import RationalFunction, check_q_inversion_symmetry
from .series import LaurentSeries

log = logging.getLogger("k3bps")


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


def _minus_one_multiplicity(p: tuple) -> int:
    """Multiplicity of q = -1 as a root of a nonzero integer polynomial.

    p(-1) is the alternating sum of the coefficients; division by the monic
    q + 1 is synthetic, s_(i-1) = p_i - s_i from the top, and stays integral.
    """
    mult = 0
    while sum(p[0::2]) == sum(p[1::2]):
        quotient = [0] * (len(p) - 1)
        carry = 0
        for i in range(len(p) - 1, 0, -1):
            carry = p[i] - carry
            quotient[i - 1] = carry
        p = quotient
        mult += 1
    return mult


def _folded_even_sums(p: tuple, c: int, top: int) -> list[int]:
    """alpha_m = (-1)^m S_2m for m <= top, where S_t = sum_j s_j (2j - c)^t
    and s_j = (-1)^j p_j; with c = 2a, e^{-iau} p(-e^{iu}) has the coefficient
    alpha_m / (4^m (2m)!) at x^m = u^2m.  Raises unless p_(c-j) = (-1)^c p_j
    for all j (0 out of range); then s is palindromic, odd S_t vanish, and
    S_2m = [m=0] s_(c/2) + 2 sum_(2j>c) s_j (2j-c)^2m."""
    padded = tuple(p) + (0,) * (c + 1 - len(p))
    if len(p) > c + 1 or padded != tuple(-x if c % 2 else x for x in reversed(padded)):
        raise ArithmeticError(
            f"coefficients not palindromic about q^{Fraction(c, 2)}: the input was not "
            "q <-> 1/q symmetric, or an arithmetic bug occurred"
        )
    upper = [(j, x) for j, x in enumerate(p) if x and 2 * j > c]
    terms = [-2 * x if j % 2 else 2 * x for j, x in upper]
    squares = [(2 * j - c) ** 2 for j, _ in upper]
    sums = [sum(terms) + (0 if c % 2 else (-1) ** (c // 2) * padded[c // 2])]
    for m in range(1, top + 1):
        terms = [x * o for x, o in zip(terms, squares)]
        sums.append(-sum(terms) if m % 2 else sum(terms))
    return sums


def _even_quotient(alpha: list[int], beta: list[int], r: int, s: int, count: int) -> tuple:
    """The first ``count`` coefficients of sum_m alpha_m x^m / (4^m (2m)!), of
    valuation r, over the same series of beta, of valuation s, as (integer
    numerators, one denominator).  With N = max(r, s) the x^(r-s+k)
    coefficient is kappa_k / (4^(k+r-s) (2k+2N-2s)!), where kappa_k =
    (alpha_(k+r) (2k+2N)!/(2k+2r)! - sum_(j>=1) C(2k+2N, 2j+2s) beta_(j+s)
    kappa_(k-j)) / (C(2k+2N, 2s) beta_s).  The kappas share one denominator D
    that takes in the pivots of 8 steps at a time, so a step is integer
    multiply-adds and one divmod whose remainder raises.  After each block D
    and the numerators are divided by their gcd: a D keeping every pivot made
    a pole of order 6 at u-order 402 twice as slow.
    """
    n0 = 2 * max(r, s)
    kappas: list[int] = []
    den = 1
    for first in range(0, count, 8):
        steps = range(first, min(first + 8, count))
        pivots = [comb(2 * k + n0, 2 * s) * beta[s] for k in steps]
        grow = prod(pivots)
        den *= grow
        kappas = [x * grow for x in kappas]
        for k, pivot in zip(steps, pivots):
            n = 2 * k + n0
            acc = alpha[k + r] * perm(n, n0 - 2 * r) * den
            for j in range(1, k + 1):
                acc -= comb(n, 2 * j + 2 * s) * beta[j + s] * kappas[k - j]
            kappa, rem = divmod(acc, pivot)
            if rem:
                raise ArithmeticError("inexact pivot division in the even quotient: arithmetic bug")
            kappas.append(kappa)
        g = gcd(den, *kappas)
        den //= g
        kappas = [x // g for x in kappas]
    # over the common denominator D 4^shift f!, f = 2(count-1) + 2N - 2s
    f, shift = 2 * count - 2 + n0 - 2 * s, max(count - 1 + r - s, 0)
    lift = [perm(f, 2 * (count - 1 - k)) << 2 * (shift - k - r + s) for k in range(count)]
    return [x * y for x, y in zip(kappas, lift)], factorial(f) * den << 2 * shift


def _work_order(pole: int, zero: int, u_order: int) -> int:
    # The quotient of a valuation-`zero` numerator by a valuation-`pole`
    # denominator is valid to work - 2*pole + zero, and the valuation checks
    # need the window to reach both valuations.
    return max(u_order, 0) + 2 * pole + zero + 2


def substitution_work_order(r: RationalFunction, u_order: int) -> int:
    """The u-order to which :func:`substitute_q_minus_exp` expands the numerator
    and the denominator of r for a result through u^``u_order``."""
    if r.is_zero:
        raise ValueError("the zero function has an identically vanishing numerator")
    numerator, denominator = r.integer_pair
    return _work_order(
        _minus_one_multiplicity(denominator), _minus_one_multiplicity(numerator), u_order
    )


def substitute_q_minus_exp(r: RationalFunction, u_order: int) -> LaurentSeries:
    """Formal substitution q = -exp(i*u) into a rational function of q.

    Numerator and denominator are centred on a = (lowest + highest degree of
    the denominator) / 2.  Unless r is q <-> 1/q symmetric this raises at every
    ``u_order`` (:func:`_folded_even_sums`); else the real even series are
    divided by :func:`_even_quotient`.  The result starts at u^(zero - pole),
    the multiplicities of the root q = -1 of the numerator and the denominator,
    which the valuations of the two series must match.
    """
    if r.is_zero:
        raise ValueError("the zero function has an identically vanishing numerator")
    start = perf_counter()
    numerator, denominator = r.integer_pair
    pole = _minus_one_multiplicity(denominator)
    zero = _minus_one_multiplicity(numerator)
    work = _work_order(pole, zero, u_order)
    centre2 = next(i for i, c in enumerate(denominator) if c) + len(denominator) - 1
    alpha = _folded_even_sums(numerator, centre2, work // 2)
    beta = _folded_even_sums(denominator, centre2, work // 2)
    va = next((m for m, c in enumerate(alpha) if c), None)
    vb = next((m for m, c in enumerate(beta) if c), None)
    if vb is None or va is None or 2 * vb != pole or 2 * va != zero:
        raise ArithmeticError("substitution series valuation disagrees with root multiplicity")
    lowest = zero - pole
    if u_order < lowest:
        series = LaurentSeries.zero("u", u_order)
    else:
        quotient, common = _even_quotient(alpha, beta, va, vb, (u_order - lowest) // 2 + 1)
        coeffs = [c for x in quotient for c in (x, 0)][: u_order - lowest + 1]
        series = LaurentSeries._from_integers("u", lowest, coeffs, common, u_order)
    log.debug(
        "substitute_q_minus_exp pole=%d zero=%d work=%d in %.3f s",
        pole,
        zero,
        work,
        perf_counter() - start,
    )
    return series


def bps_table_from_grid(grid: KkvBpsGrid, d_max: int, h: int) -> BpsTable:
    """BPS table over grades 1..d_max for multiples of a primitive class
    with square label h, populated from the KKV grid by square."""
    entries: dict[tuple[int, int], int] = {}
    label = HodgeLabel(1, h)
    for grade in range(1, d_max + 1):
        hd = label.square_label(grade)
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
    return BpsTable(entries)


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
    fn = multiple_cover(label, grid, ledger)
    rhs = substitute_q_minus_exp(fn, u_order)
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
