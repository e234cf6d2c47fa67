"""Truncated Laurent series with exact coefficients.

A series is a dense coefficient window ``min_degree .. truncation_order`` in
one formal variable.  Coefficients above the truncation order are *unknown*,
not zero: every arithmetic operation propagates the truncation pessimistically
and asking for a coefficient beyond it raises, so precision loss is never
silent.  Coefficients below ``min_degree`` are exactly zero.

The window is one tuple of integer numerators over one positive integer
denominator, in canonical form (``gcd(den, *num) == 1``, leading zeros
stripped so ``min_degree`` is the valuation, zero as ``(0,)`` over 1), so
equal series have equal fields.  Sums and scalar multiples all go through
:meth:`LaurentSeries.linear_combination` (one lcm, one reduction), and a
product is one integer convolution, reduced once.  Coefficients read back as
:class:`fractions.Fraction`, never floats.  :meth:`LaurentSeries.inverse`
alone runs per coefficient: its recurrence over a common denominator would
grow with every step, while reduced Fractions stay small.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .scalars import as_fraction

#: Admissible formal variable tags.  u carries genus expansions, q carries
#: box-counting/Euler-characteristic expansions, t is free for generic use.
VARIABLES = ("u", "q", "t")


def _exact(value):
    """An int as it is, or a Fraction; anything else raises TypeError."""
    return value if isinstance(value, int) else as_fraction(value)


def _poly_str(coefficients: Sequence, variable: str = "q", start: int = 0) -> str:
    """The terms c * variable^(start + k) of the nonzero coefficients, or "0"."""
    parts = []
    for deg, c in enumerate(coefficients, start):
        if not c:
            continue
        power = variable if deg == 1 else f"{variable}^{deg}"
        if deg == 0:
            parts.append(str(c))
        elif c in (1, -1):
            parts.append(power if c == 1 else f"-{power}")
        else:
            parts.append(f"{c}*{power}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


class LaurentSeries:
    """A truncated Laurent series ``sum(c_k * x**k for min_degree <= k <= truncation_order)``."""

    __slots__ = ("variable", "min_degree", "truncation_order", "_num", "_den")

    def __init__(
        self,
        variable: str,
        min_degree: int,
        coefficients: Sequence,
        truncation_order: int | None = None,
    ) -> None:
        coeffs = [_exact(c) for c in coefficients]
        den = lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        if truncation_order is None:
            if not num:
                raise ValueError("empty coefficient list needs an explicit truncation order")
            truncation_order = min_degree + len(num) - 1
        self._fill(variable, min_degree, num, den, truncation_order)

    @classmethod
    def _from_integers(cls, variable, min_degree, num, den, truncation_order) -> "LaurentSeries":
        """The series sum(num[k] / den * x**(min_degree + k)), brought to canonical form."""
        series = object.__new__(cls)
        series._fill(variable, min_degree, num, den, truncation_order)
        return series

    def _fill(self, variable, min_degree, num, den, truncation_order) -> None:
        if variable not in VARIABLES:
            raise ValueError(f"unknown variable tag {variable!r}, expected one of {VARIABLES}")
        width = truncation_order - min_degree + 1
        if width < 1:
            raise ValueError("truncation order below min_degree")
        if len(num) > width:
            raise ValueError("more coefficients than the truncation window holds")
        start = next((k for k, c in enumerate(num) if c), None)
        if start is None:
            min_degree, num, den = truncation_order, (0,), 1
        else:
            num = tuple(num[start:]) + (0,) * (width - len(num))
            min_degree += start
            g = gcd(den, *num) * (-1 if den < 0 else 1)
            if g != 1:
                num = tuple(c // g for c in num)
                den //= g
        for name, value in zip(self.__slots__, (variable, min_degree, truncation_order, num, den)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("LaurentSeries is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, variable: str, truncation_order: int) -> "LaurentSeries":
        return cls._from_integers(variable, truncation_order, [0], 1, truncation_order)

    @classmethod
    def one(cls, variable: str, truncation_order: int) -> "LaurentSeries":
        return cls.monomial(variable, 0, 1, truncation_order)

    @classmethod
    def monomial(
        cls, variable: str, degree: int, coefficient=1, truncation_order: int | None = None
    ) -> "LaurentSeries":
        if truncation_order is None:
            truncation_order = max(degree, 0)
        return cls(variable, degree, [coefficient], truncation_order)

    # -- inspection -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num[0]

    def valuation(self) -> int | None:
        """Degree of the lowest nonzero known coefficient, or None for zero."""
        return self.min_degree if self._num[0] else None

    @property
    def coefficients(self) -> tuple:
        """The window's coefficients as Fractions, from ``min_degree`` up."""
        return tuple(Fraction(c, self._den) for c in self._num)

    def coefficient(self, degree: int):
        """The coefficient of ``x**degree``; raises beyond the truncation order."""
        if degree > self.truncation_order:
            raise ValueError(
                f"coefficient of degree {degree} is beyond the truncation order "
                f"{self.truncation_order}"
            )
        if degree < self.min_degree:
            return Fraction(0)
        return Fraction(self._num[degree - self.min_degree], self._den)

    def items(self) -> Iterable[tuple[int, object]]:
        """(degree, coefficient) pairs over the stored window."""
        return enumerate(self.coefficients, self.min_degree)

    # -- helpers --------------------------------------------------------------

    def _check_same_variable(self, other: "LaurentSeries") -> None:
        if self.variable != other.variable:
            raise ValueError(
                f"variable mismatch: {self.variable!r} vs {other.variable!r}; "
                "series in different variables only meet through an explicit substitution"
            )

    def truncate(self, truncation_order: int) -> "LaurentSeries":
        """Restrict to a lower truncation order (raising it would invent data)."""
        if truncation_order > self.truncation_order:
            raise ValueError("cannot raise the truncation order of a series")
        if truncation_order < self.min_degree:
            return LaurentSeries.zero(self.variable, truncation_order)
        keep = truncation_order - self.min_degree + 1
        return LaurentSeries._from_integers(
            self.variable, self.min_degree, self._num[:keep], self._den, truncation_order
        )

    def shifted(self, degrees: int) -> "LaurentSeries":
        """Multiply by ``x**degrees``."""
        return LaurentSeries._from_integers(
            self.variable,
            self.min_degree + degrees,
            self._num,
            self._den,
            self.truncation_order + degrees,
        )

    def rescaled(self, k) -> "LaurentSeries":
        """Substitute x -> k*x: the coefficient c_n becomes c_n * k**n, in the same window.

        With k = p/r over the window m..T, c_n k^n = (p/r)^m c_n p^(n-m) r^(T-n) / r^(T-m)."""
        p, r = as_fraction(k).as_integer_ratio()
        lo, width = self.min_degree, self.truncation_order - self.min_degree
        scale = Fraction(p, r) ** lo / r**width
        num = [c * p**n * r ** (width - n) * scale.numerator for n, c in enumerate(self._num)]
        return LaurentSeries._from_integers(
            self.variable, lo, num, self._den * scale.denominator, self.truncation_order
        )

    # -- ring operations ------------------------------------------------------

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries.linear_combination(((-1, self),))

    @classmethod
    def linear_combination(cls, terms: Iterable[tuple]) -> "LaurentSeries":
        """The sum of weight * series over (weight, series) pairs, in one pass.

        Weights are int or Fraction.  A term of weight zero is dropped, as zero
        times a truncated series is exactly zero; the others fix the truncation
        at the lowest among them.  If every weight is zero, the result is the
        zero series at the lowest truncation among all terms.  The sum is one
        integer sum over the lcm of the terms' denominators, reduced once.
        """
        terms = [(_exact(w), series) for w, series in terms]
        if not terms:
            raise ValueError("a linear combination of series needs at least one term")
        first = terms[0][1]
        for _, series in terms[1:]:
            first._check_same_variable(series)
        parts = [(w, series) for w, series in terms if w] or terms
        order = min(series.truncation_order for _, series in parts)
        lo = min(min(series.min_degree for _, series in parts), order)
        den = lcm(*(w.denominator * series._den for w, series in parts))
        out = [0] * (order - lo + 1)
        for weight, series in parts:
            factor = weight.numerator * (den // (weight.denominator * series._den))
            base = series.min_degree - lo
            for k, c in enumerate(series._num[: max(order - lo - base + 1, 0)], base):
                if c:
                    out[k] += factor * c
        return cls._from_integers(first.variable, lo, out, den, order)

    def _plus(self, other, weight: int):
        if isinstance(other, (int, Fraction)):
            other = LaurentSeries.monomial(self.variable, 0, other, self.truncation_order)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return LaurentSeries.linear_combination(((1, self), (weight, other)))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentSeries.linear_combination(((other, self),))
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        self._check_same_variable(other)
        # Degrees above min(Oa + mb, Ob + ma) would need unknown coefficients.
        order = min(
            self.truncation_order + other.min_degree,
            other.truncation_order + self.min_degree,
        )
        lo = self.min_degree + other.min_degree
        width = order - lo + 1
        if width < 1:
            return LaurentSeries.zero(self.variable, order)
        out = [0] * width
        right = [(j, b) for j, b in enumerate(other._num[:width]) if b]
        for i, a in enumerate(self._num[:width]):
            if a:
                for j, b in right:
                    if i + j >= width:
                        break
                    out[i + j] += a * b
        return LaurentSeries._from_integers(
            self.variable, lo, out, self._den * other._den, order
        )

    __rmul__ = __mul__

    def inverse(self) -> "LaurentSeries":
        """Multiplicative inverse to the propagated truncation order.

        A series of valuation m inverts to one of valuation -m, known to
        order ``truncation_order - 2*m``, by a recurrence on reduced Fractions.
        """
        val = self.valuation()
        if val is None:
            raise ZeroDivisionError("cannot invert an identically-zero series")
        order = self.truncation_order - 2 * val
        a = self.coefficients  # the unit part a_0 + a_1 x + ..., a_0 the leading term
        lead_inv = 1 / a[0]
        b = [lead_inv] + [Fraction(0)] * (len(a) - 1)
        for n in range(1, len(a)):
            acc = Fraction(0)
            for k in range(1, n + 1):
                if a[k]:
                    acc += a[k] * b[n - k]
            b[n] = -lead_inv * acc
        return LaurentSeries(self.variable, -val, b, order)

    def __pow__(self, exponent: int) -> "LaurentSeries":
        if not isinstance(exponent, int):
            raise TypeError("series exponent must be an int")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if exponent == 0:
            return LaurentSeries.one(self.variable, self.truncation_order)
        result = self
        for _ in range(exponent - 1):
            result = result * self
        return result

    # -- comparison / display ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.variable == other.variable
            and self.min_degree == other.min_degree
            and self.truncation_order == other.truncation_order
            and self._num == other._num
            and self._den == other._den
        )

    def __hash__(self) -> int:
        return hash((self.variable, self.min_degree, self.truncation_order, self._num, self._den))

    def first_difference(self, other: "LaurentSeries", through: int) -> tuple | None:
        """Lowest ``(degree, a, b)`` up to ``through`` with a != b, or None.

        Raises, as :meth:`coefficient` does, when the search passes a
        truncation order before it finds a difference."""
        self._check_same_variable(other)
        lo = min(self.min_degree, other.min_degree)
        top = min(through, self.truncation_order, other.truncation_order)
        width = max(top - lo + 1, 0)
        da, db = self._den, other._den
        if self.min_degree == other.min_degree and da == db:
            a, b = self._num[:width], other._num[:width]
        else:
            # a_n / da != b_n / db  iff  a_n * db != b_n * da, windows aligned at lo
            g = gcd(da, db)
            a = [x * (db // g) for x in ((0,) * (self.min_degree - lo) + self._num)[:width]]
            b = [y * (da // g) for y in ((0,) * (other.min_degree - lo) + other._num)[:width]]
        if a != b:
            degree = lo + next(k for k, (x, y) in enumerate(zip(a, b)) if x != y)
            return degree, self.coefficient(degree), other.coefficient(degree)
        if top < through:
            # no difference up to the lower truncation: reading on must raise
            self.coefficient(top + 1)
            other.coefficient(top + 1)
        return None

    def agrees_with(self, other: "LaurentSeries", through: int | None = None) -> bool:
        """Coefficientwise equality on the common known window (up to ``through``)."""
        top = min(self.truncation_order, other.truncation_order)
        return self.first_difference(other, top if through is None else min(top, through)) is None

    def __str__(self) -> str:
        body = _poly_str(self.coefficients, self.variable, self.min_degree)
        return f"{body} + O({self.variable}^{self.truncation_order + 1})"

    def __repr__(self) -> str:
        return (
            f"LaurentSeries({self.variable!r}, {self.min_degree}, "
            f"{list(self.coefficients)!r}, {self.truncation_order})"
        )
