"""Rational functions of q over the rationals, in canonical form.

A function is stored as its unique integer pair (num, den): the two
polynomials are coprime over Q, the coefficients of both taken together have
gcd 1, and den has a positive leading coefficient.  ``==`` is structural
comparison of that pair, the one equality, which the identity checks rely on.
``** -1`` is the one inverse (there is no ``/``), and the one composition is
the multiple-cover change of variable q -> +-q^k.  The public ``numerator``
and ``denominator`` are the monic view of the same pair, tuples of Fractions
divided by the leading coefficient of den.  Expansion about q = 0 returns a
truncated Laurent series; the q <-> 1/q inversion check compares a function
with its reciprocal substitution, built in canonical form without a gcd.

All polynomial arithmetic is in the integers.  Reduction (a polynomial gcd
and two exact divisions) is the expensive step.  The gcd is primitive, and
by Gauss's lemma a primitive polynomial that divides an integer polynomial
over Q divides it over Z, so both divisions are exact integer divisions.
The gcd splits off each operand's own power of q before its integer
remainder sequence, gcd(q^a A, q^b B) = q^min(a,b) gcd(A, B) for A, B prime
to q, so the power of q in a denominator such as q^S (1+q)^2 never enters it.
A sum is reduced once, not after every addition:
:meth:`RationalFunction.linear_combination` puts all its terms over one
common denominator and canonicalizes the total, and ``+`` goes through it.
Operations that cannot create a common factor skip the gcd altogether: for
n/d in canonical form and a constant c != 0, gcd(c*n, d) = 1 and
gcd(n + c*d, d) = gcd(n, d) = 1, and a power n^e/d^e of a coprime pair is
coprime; they only restore the integer content and sign.

Polynomials are dense tuples of ints, constant term first; the zero
polynomial is the empty tuple.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .series import LaurentSeries, _exact, _poly_str

Poly = tuple


# -- integer polynomial helpers ------------------------------------------------


def _trim(p: Sequence[int]) -> Poly:
    n = len(p)
    while n and not p[n - 1]:
        n -= 1
    return tuple(p[:n])


def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    nonzero_b = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in nonzero_b:
                out[i + j] += x * y
    return _trim(out)


def _ppow(a: Poly, exponent: int) -> Poly:
    """a**exponent for an integer exponent >= 0, by repeated squaring."""
    out: Poly = (1,)
    while exponent:
        if exponent & 1:
            out = _pmul(out, a)
        exponent >>= 1
        if exponent:
            a = _pmul(a, a)
    return out


def _pexact_div(a: Poly, b: Poly) -> Poly:
    """a / b in Z[q] for a nonzero b; raises ArithmeticError on any remainder."""
    r = list(a)
    span = len(b) - 1
    quotient = [0] * max(len(a) - span, 0)
    lead = b[-1]
    lower = [(j - span, c) for j, c in enumerate(b[:-1]) if c]
    for top in range(len(a) - 1, span - 1, -1):
        c, rem = divmod(r[top], lead)
        if rem:
            raise ArithmeticError("exact polynomial division left a remainder")
        if c:
            quotient[top - span] = c
            for offset, y in lower:
                r[top + offset] -= c * y
    if any(r[:span]):
        raise ArithmeticError("exact polynomial division left a remainder")
    return _trim(quotient)


def _pval(p: Poly) -> int | None:
    for i, c in enumerate(p):
        if c:
            return i
    return None


def _peval(p: Poly, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _pspread(p: Poly, scale: int, power: int) -> Poly:
    """p(scale * q**power) for scale = +-1: c_j moves to j * power, times scale**j."""
    out = [0] * ((len(p) - 1) * power + 1)
    out[::power] = p
    if scale < 0:
        out[power :: 2 * power] = [-c for c in p[1::2]]
    return tuple(out)


def _int_prem(a: tuple, b: tuple) -> tuple:
    """Pseudo-remainder of integer polynomials (exact, stays in the integers)."""
    r = a
    while len(r) >= len(b):
        c, shift = r[-1], len(r) - len(b)
        out = [x * b[-1] for x in r]
        for j, y in enumerate(b):
            out[shift + j] -= c * y
        r = _trim(out)
    return r


def _int_primitive(p: tuple) -> tuple:
    """p over its content, with positive leading coefficient."""
    content = gcd(*p)
    if p and p[-1] < 0:
        content = -content
    return p if content in (0, 1) else tuple(c // content for c in p)


def _pgcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd with positive leading coefficient, by a primitive
    pseudo-remainder sequence over the integers.

    Each operand's own power of q is split off first: for A, B not divisible
    by q, gcd(q^a A, q^b B) = q^min(a,b) gcd(A, B).  That is cheap, and the
    q-power is where most of the degree lives for the generating functions
    handled here, so a pairs denominator q^S (1+q)^2 enters the sequence at
    degree 2.  The primitive-part normalization after every pseudo-division
    keeps the integer coefficients from the exponential blowup of naive
    Euclid.
    """
    if not a or not b:
        return _int_primitive(a or b)
    va, vb = _pval(a), _pval(b)
    x = _int_primitive(a[va:])
    y = _int_primitive(b[vb:])
    if len(x) < len(y):
        x, y = y, x
    while y:
        x, y = y, _int_primitive(_int_prem(x, y))
    return (0,) * min(va, vb) + x


def _scalars(value) -> list:
    if isinstance(value, (int, Fraction)):
        value = (value,)
    return [_exact(c) for c in value]


def _integral(numerator, denominator) -> tuple[Poly, Poly]:
    """Integer polynomials in the ratio of two sequences of ints and Fractions
    (or two such scalars): both are scaled by the lcm of every denominator."""
    num, den = _scalars(numerator), _scalars(denominator)
    scale = lcm(*(c.denominator for c in num), *(c.denominator for c in den))
    return (
        _trim([c.numerator * (scale // c.denominator) for c in num]),
        _trim([c.numerator * (scale // c.denominator) for c in den]),
    )


def _reduced(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """A trimmed integer pair with its primitive gcd divided out: coprime."""
    if num and den:
        g = _pgcd(num, den)
        if len(g) > 1:
            return _pexact_div(num, g), _pexact_div(den, g)
    return num, den


# -- rational functions --------------------------------------------------------


class RationalFunction:
    """A ratio of integer polynomials in q, coprime and jointly primitive,
    with positive leading coefficient in the denominator."""

    __slots__ = ("_num", "_den")

    def __init__(self, numerator, denominator=(1,)) -> None:
        self._set_normalized(*_reduced(*_integral(numerator, denominator)))

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    def _set_normalized(self, num: Poly, den: Poly) -> None:
        """Store a coprime integer pair with the zero numerator over 1, the
        joint content divided out and the leading coefficient of den > 0."""
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            den = (1,)
        else:
            # the last coefficient of num + den is the leading one of den
            both = _int_primitive(num + den)
            num, den = both[: len(num)], both[len(num) :]
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _from_coprime(cls, numerator: Poly, denominator: Poly) -> "RationalFunction":
        """Fast path for integer polynomials with gcd(num, den) == 1 over Q."""
        self = object.__new__(cls)
        self._set_normalized(_trim(numerator), _trim(denominator))
        return self

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls((), (1,))

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls((1,), (1,))

    @classmethod
    def monomial(cls, degree: int, coefficient=1) -> "RationalFunction":
        """coefficient * q**degree, negative degrees allowed."""
        if degree >= 0:
            return cls([0] * degree + [coefficient], (1,))
        return cls((coefficient,), [0] * (-degree) + [1])

    # -- inspection ----------------------------------------------------------

    @property
    def integer_pair(self) -> tuple[Poly, Poly]:
        """The stored (num, den): coprime integer polynomials, jointly
        primitive, den with positive leading coefficient."""
        return self._num, self._den

    @property
    def numerator(self) -> tuple:
        """The numerator over the monic denominator, as Fractions."""
        lead = self._den[-1]
        return tuple(Fraction(c, lead) for c in self._num)

    @property
    def denominator(self) -> tuple:
        """The monic denominator, as Fractions."""
        lead = self._den[-1]
        return tuple(Fraction(c, lead) for c in self._den)

    @property
    def is_zero(self) -> bool:
        return not self._num

    def evaluate(self, point):
        """Exact evaluation at a rational point."""
        den = _peval(self._den, point)
        if not den:
            raise ZeroDivisionError(f"denominator vanishes at {point}")
        return _peval(self._num, point) / den

    # -- field operations -----------------------------------------------------

    @staticmethod
    def _coerce(value) -> "RationalFunction | None":
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, (int, Fraction)):
            return RationalFunction((value,), (1,))
        return None

    @classmethod
    def linear_combination(cls, terms: Iterable[tuple]) -> "RationalFunction":
        """The sum of weight * fn over (weight, fn) pairs, reduced once.

        Weights are int or Fraction; an int is used as it is.  The terms are
        put over the lcm of the distinct denominators (no work when they are
        all equal) times the lcm of the weights' denominators, their integer
        numerators are added in one pass, and only the total is canonicalized.
        """
        parts = [(_exact(w), fn) for w, fn in terms if w and not fn.is_zero]
        if not parts:
            return cls.zero()
        if len(parts) == 1:
            weight, fn = parts[0]
            return fn * weight
        common = parts[0][1]._den
        for _, fn in parts[1:]:
            den = fn._den
            if den != common:
                common = _pmul(common, _pexact_div(den, _pgcd(common, den)))
        scale = lcm(*(w.denominator for w, _ in parts))
        cofactors = {}
        total: list = []
        for weight, fn in parts:
            num, den = fn._num, fn._den
            if den != common:
                if den not in cofactors:
                    cofactors[den] = _pexact_div(common, den)
                num = _pmul(num, cofactors[den])
            w = weight.numerator * (scale // weight.denominator)
            total.extend([0] * (len(num) - len(total)))
            for i, c in enumerate(num):
                total[i] += w * c
        return cls._from_coprime(*_reduced(_trim(total), tuple(scale * c for c in common)))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            # gcd(n + c*d, d) = gcd(n, d) = 1
            a, b = other.numerator, other.denominator
            num = [b * c for c in self._num]
            num.extend([0] * (len(self._den) - len(num)))
            for i, c in enumerate(self._den):
                num[i] += a * c
            return RationalFunction._from_coprime(num, tuple(b * c for c in self._den))
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction.linear_combination(((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._from_coprime(tuple(-c for c in self._num), self._den)

    def __sub__(self, other):
        if not isinstance(other, (RationalFunction, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # gcd(c*n, d) = 1 for a constant c != 0
            a, b = other.numerator, other.denominator
            return RationalFunction._from_coprime(
                tuple(a * c for c in self._num), tuple(b * c for c in self._den)
            )
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        num, den = _reduced(_pmul(self._num, other._num), _pmul(self._den, other._den))
        return RationalFunction._from_coprime(num, den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "RationalFunction":
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an int")
        num, den = self._num, self._den
        if exponent < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of the zero rational function")
            num, den, exponent = den, num, -exponent
        # a power of a coprime pair is coprime
        return RationalFunction._from_coprime(_ppow(num, exponent), _ppow(den, exponent))

    # -- substitutions ----------------------------------------------------------

    def substitute_scaled_power(self, scale: int, power: int) -> "RationalFunction":
        """The composition q -> scale * q**power for scale = +-1 and power >= 1,
        the change of variable of a multiple cover."""
        if _exact(scale) not in (1, -1):
            raise ValueError("scale must be 1 or -1")
        if power < 1:
            raise ValueError("power must be >= 1")
        # Composition with a nonzero monomial preserves coprimality: a common
        # root of the composites would map to a common root of num and den.
        return RationalFunction._from_coprime(
            _pspread(self._num, scale, power), _pspread(self._den, scale, power)
        )

    def reciprocal_substitution(self) -> "RationalFunction":
        """The rational function q -> 1/q, with powers of q cleared.

        For n/d with degrees dn, dd this is q^(dd-dn) rev(n) / rev(d) after
        moving the power of q to whichever side keeps it nonnegative.  The
        reversed pair stays coprime: a common root r != 0 would give the
        common root 1/r of n and d, and the constant terms are the pair's
        coefficients at q^max(dn, dd), one of which is a leading coefficient.
        """
        num, den = self._num, self._den
        dn, dd = len(num) - 1, len(den) - 1
        rnum = tuple(reversed(num))
        rden = tuple(reversed(den))
        if dd >= dn:
            rnum = (0,) * (dd - dn) + rnum
        else:
            rden = (0,) * (dn - dd) + rden
        return RationalFunction._from_coprime(rnum, rden)

    # -- comparison / display -----------------------------------------------------

    def __eq__(self, other) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self._num == coerced._num and self._den == coerced._den

    def __hash__(self) -> int:
        # a constant equals its scalar, so it hashes as the scalar does
        if len(self._num) <= 1 and len(self._den) == 1:
            return hash(Fraction(sum(self._num), self._den[0]))
        return hash((self._num, self._den))

    def __str__(self) -> str:
        if len(self._den) == 1:
            return _poly_str(self.numerator)
        return f"({_poly_str(self.numerator)})/({_poly_str(self.denominator)})"

    def __repr__(self) -> str:
        return f"RationalFunction({list(self.numerator)!r}, {list(self.denominator)!r})"


# -- the module-level operations -------------------------------------------------


def ratfn_expand(a: RationalFunction, order: int) -> LaurentSeries:
    """Laurent expansion about q = 0 up to and including q**order."""
    if a.is_zero:
        return LaurentSeries.zero("q", order)
    num, den = a.integer_pair
    nv = _pval(num)
    dv = _pval(den)
    shift = nv - dv
    rel = order - shift
    if rel < 0:
        return LaurentSeries.zero("q", order)
    num_unit = LaurentSeries("q", 0, num[nv : nv + rel + 1], rel)
    den_unit = LaurentSeries("q", 0, den[dv : dv + rel + 1], rel)
    return (num_unit * den_unit.inverse()).shifted(shift)


def check_q_inversion_symmetry(a: RationalFunction) -> bool:
    """True iff a(q) == a(1/q) as rational functions.

    Exact by structural comparison: both ``a`` and its reciprocal
    substitution are in canonical form (coprime integer pair, jointly
    primitive, positive leading coefficient in the denominator, zero as
    0/1), and a rational function has exactly one canonical form, so the two
    functions are equal iff their integer pairs are.
    """
    return a.reciprocal_substitution() == a
