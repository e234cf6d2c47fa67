"""Rational functions of q over the rationals, in canonical form.

The canonical form (numerator and denominator coprime, denominator monic)
makes equality decidable by structural comparison, which the identity checks
rely on.  Expansion about q = 0 returns a truncated Laurent series; the
q <-> 1/q inversion check compares a function with its reciprocal
substitution, built in canonical form without a gcd.

Reduction (a polynomial gcd and two exact divisions) is the expensive step.
The gcd splits off each operand's own power of q before its integer
remainder sequence, gcd(q^a A, q^b B) = q^min(a,b) gcd(A, B) for A, B prime
to q, so the power of q in a denominator such as q^S (1+q)^2 never enters it.
A sum is reduced once, not after every addition:
:meth:`RationalFunction.linear_combination` puts all its terms over one
common denominator and canonicalizes the total, and ``+`` goes through it.
Operations that cannot create a common factor skip the gcd altogether: for
n/d in canonical form and a constant c != 0, gcd(c*n, d) = 1 and
gcd(n + c*d, d) = gcd(n, d) = 1, and a power n^e/d^e of a coprime pair is
coprime.

Polynomials are dense tuples of Fractions, constant term first; the zero
polynomial is the empty tuple.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .scalars import as_fraction
from .series import LaurentSeries

Poly = tuple


# -- polynomial helpers --------------------------------------------------------


def _as_poly(value) -> Poly:
    if isinstance(value, (int, Fraction)):
        value = [value]
    return _trim(tuple(as_fraction(c) for c in value))


def _trim(p: Sequence[Fraction]) -> Poly:
    n = len(p)
    while n and not p[n - 1]:
        n -= 1
    return tuple(p[:n])


def _deg(p: Poly) -> int:
    return len(p) - 1


def _padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pneg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def _pscale(a: Poly, s: Fraction) -> Poly:
    if not s:
        return ()
    return tuple(c * s for c in a)


def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return _trim(out)


def _ppow(a: Poly, exponent: int) -> Poly:
    """a**exponent for an integer exponent >= 0, by repeated squaring."""
    out: Poly = (Fraction(1),)
    while exponent:
        if exponent & 1:
            out = _pmul(out, a)
        exponent >>= 1
        if exponent:
            a = _pmul(a, a)
    return out


def _pexact_div(a: Poly, b: Poly) -> Poly:
    """a / b for a polynomial b known to divide a."""
    quotient, remainder = _pdivmod(a, b)
    if remainder:
        raise ArithmeticError("exact polynomial division left a remainder")
    return quotient


def _pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv_lead = 1 / b[-1]
    for top in range(len(a) - 1, len(b) - 2, -1):
        c = r[top] * inv_lead
        if c:
            q[top - len(b) + 1] = c
            for j in range(len(b)):
                r[top - len(b) + 1 + j] -= c * b[j]
    return _trim(q), _trim(r)


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


def _pcompose_scaled_power(p: Poly, scale: Fraction, power: int) -> Poly:
    """p(scale * q**power) for an integer power >= 1."""
    if power < 1:
        raise ValueError("power must be >= 1")
    if not p:
        return ()
    out = [Fraction(0)] * ((len(p) - 1) * power + 1)
    s = Fraction(1)
    for j, c in enumerate(p):
        if c:
            out[j * power] += c * s
        s *= scale
    return _trim(out)


def _to_primitive_int(p: Poly) -> tuple:
    """Scale a rational polynomial to a primitive integer one (sign of leading > 0)."""
    denom_lcm = lcm(*(c.denominator for c in p))
    return _int_primitive(tuple(int(c * denom_lcm) for c in p))


def _int_prem(a: tuple, b: tuple) -> tuple:
    """Pseudo-remainder of integer polynomials (exact, stays in the integers)."""
    lead_b = b[-1]
    r = list(a)
    while len(r) >= len(b) and any(r):
        while r and not r[-1]:
            r.pop()
        if len(r) < len(b):
            break
        c = r[-1]
        shift = len(r) - len(b)
        r = [x * lead_b for x in r]
        for j in range(len(b)):
            r[shift + j] -= c * b[j]
        r.pop()
    while r and not r[-1]:
        r.pop()
    return tuple(r)


def _int_primitive(p: tuple) -> tuple:
    content = 0
    for c in p:
        content = gcd(content, abs(c))
    if content > 1:
        p = tuple(c // content for c in p)
    if p and p[-1] < 0:
        p = tuple(-c for c in p)
    return p


def _pgcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via a primitive pseudo-remainder sequence over the integers.

    Each operand's own power of q is split off first: for A, B not divisible
    by q, gcd(q^a A, q^b B) = q^min(a,b) gcd(A, B).  That is cheap, and the
    q-power is where most of the degree lives for the generating functions
    handled here, so a pairs denominator q^S (1+q)^2 enters the sequence at
    degree 2.  The primitive-part normalization after every pseudo-division
    keeps the integer coefficients from the exponential blowup of naive
    fraction Euclid.
    """
    if not a:
        b = _trim(b)
        return _pscale(b, 1 / b[-1]) if b else ()
    if not b:
        a = _trim(a)
        return _pscale(a, 1 / a[-1])
    va, vb = _pval(a), _pval(b)
    shift = min(va, vb)
    x = _to_primitive_int(a[va:])
    y = _to_primitive_int(b[vb:])
    if len(x) < len(y):
        x, y = y, x
    while y:
        x, y = y, _int_primitive(_int_prem(x, y))
    lead = Fraction(x[-1])
    core = tuple(Fraction(c) / lead for c in x)
    if shift:
        core = ((Fraction(0),) * shift) + core
    return core


def _poly_str(p: Poly, variable: str = "q") -> str:
    if not p:
        return "0"
    parts = []
    for deg, c in enumerate(p):
        if not c:
            continue
        if deg == 0:
            parts.append(str(c))
        else:
            power = variable if deg == 1 else f"{variable}^{deg}"
            if c == 1:
                parts.append(power)
            elif c == -1:
                parts.append(f"-{power}")
            else:
                parts.append(f"{c}*{power}")
    return " + ".join(parts).replace("+ -", "- ")


# -- rational functions --------------------------------------------------------


class RationalFunction:
    """A ratio of polynomials in q, reduced with monic denominator."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator=(1,)) -> None:
        num = _as_poly(numerator)
        den = _as_poly(denominator)
        if num and den:
            g = _pgcd(num, den)
            if _deg(g) > 0:
                num = _pexact_div(num, g)
                den = _pexact_div(den, g)
        self._set_normalized(num, den)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("RationalFunction is immutable")

    def _set_normalized(self, num: Poly, den: Poly) -> None:
        """Store a coprime pair with the zero numerator over 1 and den monic."""
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            den = (Fraction(1),)
        elif den[-1] != 1:
            lead = den[-1]
            num = _pscale(num, 1 / lead)
            den = _pscale(den, 1 / lead)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    @classmethod
    def _from_coprime(cls, numerator, denominator) -> "RationalFunction":
        """Fast path for callers that guarantee gcd(num, den) == 1."""
        self = object.__new__(cls)
        self._set_normalized(_as_poly(numerator), _as_poly(denominator))
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
    def is_zero(self) -> bool:
        return not self.numerator

    def evaluate(self, point):
        """Exact evaluation at a rational point."""
        den = _peval(self.denominator, point)
        if not den:
            raise ZeroDivisionError(f"denominator vanishes at {point}")
        return _peval(self.numerator, point) / den

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

        Weights are int or Fraction.  The terms are put over the lcm of the
        distinct denominators (no work when they are all equal), their
        scaled numerators are added in one pass, and only the total is
        canonicalized.
        """
        parts = [(as_fraction(w), fn) for w, fn in terms if w and not fn.is_zero]
        if not parts:
            return cls.zero()
        if len(parts) == 1:
            weight, fn = parts[0]
            return fn * weight
        common = parts[0][1].denominator
        for _, fn in parts[1:]:
            den = fn.denominator
            if den != common:
                common = _pmul(common, _pexact_div(den, _pgcd(common, den)))
        cofactors = {}
        total: list = []
        for weight, fn in parts:
            num, den = fn.numerator, fn.denominator
            if den != common:
                if den not in cofactors:
                    cofactors[den] = _pexact_div(common, den)
                num = _pmul(num, cofactors[den])
            total.extend([0] * (len(num) - len(total)))
            for i, c in enumerate(num):
                total[i] += weight * c
        return cls(total, common)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            # gcd(n + c*d, d) = gcd(n, d) = 1
            return RationalFunction._from_coprime(
                _padd(self.numerator, _pscale(self.denominator, other)),
                self.denominator,
            )
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction.linear_combination(((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._from_coprime(_pneg(self.numerator), self.denominator)

    def __sub__(self, other):
        if not isinstance(other, (RationalFunction, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # gcd(c*n, d) = 1 for a constant c != 0
            return RationalFunction._from_coprime(_pscale(self.numerator, other), self.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(
            _pmul(self.numerator, other.numerator),
            _pmul(self.denominator, other.denominator),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(
            _pmul(self.numerator, other.denominator),
            _pmul(self.denominator, other.numerator),
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int) -> "RationalFunction":
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an int")
        num, den = self.numerator, self.denominator
        if exponent < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of the zero rational function")
            num, den, exponent = den, num, -exponent
        # a power of a coprime pair is coprime
        return RationalFunction._from_coprime(_ppow(num, exponent), _ppow(den, exponent))

    # -- substitutions ----------------------------------------------------------

    def substitute_scaled_power(self, scale, power: int) -> "RationalFunction":
        """The composition q -> scale * q**power, exact on canonical forms."""
        scale = as_fraction(scale)
        if not scale:
            raise ValueError("scale must be nonzero")
        # Composition with a nonzero monomial preserves coprimality: a common
        # root of the composites would map to a common root of num and den.
        return RationalFunction._from_coprime(
            _pcompose_scaled_power(self.numerator, scale, power),
            _pcompose_scaled_power(self.denominator, scale, power),
        )

    def reciprocal_substitution(self) -> "RationalFunction":
        """The rational function q -> 1/q, with powers of q cleared.

        For n/d with degrees dn, dd this is q^(dd-dn) rev(n) / rev(d) after
        moving the power of q to whichever side keeps it nonnegative.  The
        reversed pair stays coprime: a common root r != 0 would give the
        common root 1/r of n and d, and the constant terms are the pair's
        coefficients at q^max(dn, dd), one of which is a leading coefficient.
        """
        num, den = self.numerator, self.denominator
        dn, dd = _deg(num), _deg(den)
        rnum = tuple(reversed(num))
        rden = tuple(reversed(den))
        if dd >= dn:
            rnum = ((Fraction(0),) * (dd - dn)) + rnum
        else:
            rden = ((Fraction(0),) * (dn - dd)) + rden
        return RationalFunction._from_coprime(rnum, rden)

    # -- comparison / display -----------------------------------------------------

    def __eq__(self, other) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self.numerator == coerced.numerator and self.denominator == coerced.denominator

    def __hash__(self) -> int:
        return hash((self.numerator, self.denominator))

    def __str__(self) -> str:
        if self.denominator == (Fraction(1),):
            return _poly_str(self.numerator)
        return f"({_poly_str(self.numerator)})/({_poly_str(self.denominator)})"

    def __repr__(self) -> str:
        return f"RationalFunction({list(self.numerator)!r}, {list(self.denominator)!r})"


# -- the module-level operations -------------------------------------------------


def ratfn_eq(a: RationalFunction, b: RationalFunction) -> bool:
    """Equality by cross-multiplication (canonical forms make this structural)."""
    return _pmul(a.numerator, b.denominator) == _pmul(b.numerator, a.denominator)


def ratfn_expand(a: RationalFunction, order: int) -> LaurentSeries:
    """Laurent expansion about q = 0 up to and including q**order."""
    if a.is_zero:
        return LaurentSeries.zero("q", order)
    nv = _pval(a.numerator)
    dv = _pval(a.denominator)
    shift = nv - dv
    rel = order - shift
    if rel < 0:
        return LaurentSeries.zero("q", order)
    num_unit = LaurentSeries("q", 0, a.numerator[nv : nv + rel + 1], rel)
    den_unit = LaurentSeries("q", 0, a.denominator[dv : dv + rel + 1], rel)
    return (num_unit * den_unit.inverse()).shifted(shift)


def check_q_inversion_symmetry(a: RationalFunction) -> bool:
    """True iff a(q) == a(1/q) as rational functions.

    Exact by structural comparison: both ``a`` and its reciprocal
    substitution are in canonical form (coprime, denominator monic, zero as
    0/1), and a rational function has exactly one canonical form, so the two
    functions are equal iff their numerator and denominator tuples are.
    """
    return a.reciprocal_substitution() == a
