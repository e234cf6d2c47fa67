"""Truncated Laurent series with exact coefficients.

A series is a dense coefficient window ``min_degree .. truncation_order`` in
one formal variable.  Coefficients above the truncation order are *unknown*,
not zero: every arithmetic operation propagates the truncation pessimistically
and asking for a coefficient beyond it raises, so precision loss is never
silent.  Coefficients below ``min_degree`` are exactly zero.

Coefficients are :class:`fractions.Fraction` (ints are coerced), never floats.
Sums and scalar multiples all go through :meth:`LaurentSeries.linear_combination`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .scalars import as_fraction

#: Admissible formal variable tags.  u carries genus expansions, q carries
#: box-counting/Euler-characteristic expansions, t is free for generic use.
VARIABLES = ("u", "q", "t")


class LaurentSeries:
    """A truncated Laurent series ``sum(c_k * x**k for min_degree <= k <= truncation_order)``."""

    __slots__ = ("variable", "min_degree", "coefficients", "truncation_order")

    def __init__(
        self,
        variable: str,
        min_degree: int,
        coefficients: Sequence,
        truncation_order: int | None = None,
    ) -> None:
        if variable not in VARIABLES:
            raise ValueError(f"unknown variable tag {variable!r}, expected one of {VARIABLES}")
        coeffs = [as_fraction(c) for c in coefficients]
        if truncation_order is None:
            if not coeffs:
                raise ValueError("empty coefficient list needs an explicit truncation order")
            truncation_order = min_degree + len(coeffs) - 1
        width = truncation_order - min_degree + 1
        if width < 1:
            raise ValueError("truncation order below min_degree")
        if len(coeffs) > width:
            raise ValueError("more coefficients than the truncation window holds")
        coeffs.extend([Fraction(0)] * (width - len(coeffs)))
        # Canonical form: strip leading zeros so min_degree is the valuation
        # (the zero series keeps a single zero at the truncation order).
        start = 0
        while start < len(coeffs) - 1 and not coeffs[start]:
            start += 1
        if start:
            coeffs = coeffs[start:]
            min_degree += start
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "min_degree", min_degree)
        object.__setattr__(self, "coefficients", tuple(coeffs))
        object.__setattr__(self, "truncation_order", truncation_order)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("LaurentSeries is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, variable: str, truncation_order: int) -> "LaurentSeries":
        return cls(variable, truncation_order, [Fraction(0)], truncation_order)

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
        return all(not c for c in self.coefficients)

    def valuation(self) -> int | None:
        """Degree of the lowest nonzero known coefficient, or None for zero."""
        for k, c in enumerate(self.coefficients):
            if c:
                return self.min_degree + k
        return None

    def coefficient(self, degree: int):
        """The coefficient of ``x**degree``; raises beyond the truncation order."""
        if degree > self.truncation_order:
            raise ValueError(
                f"coefficient of degree {degree} is beyond the truncation order "
                f"{self.truncation_order}"
            )
        if degree < self.min_degree:
            return Fraction(0)
        return self.coefficients[degree - self.min_degree]

    def items(self) -> Iterable[tuple[int, object]]:
        """(degree, coefficient) pairs over the stored window."""
        for k, c in enumerate(self.coefficients):
            yield self.min_degree + k, c

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
        return LaurentSeries(
            self.variable, self.min_degree, self.coefficients[:keep], truncation_order
        )

    def shifted(self, degrees: int) -> "LaurentSeries":
        """Multiply by ``x**degrees``."""
        return LaurentSeries(
            self.variable,
            self.min_degree + degrees,
            self.coefficients,
            self.truncation_order + degrees,
        )

    def rescaled(self, k) -> "LaurentSeries":
        """Substitute x -> k*x: the coefficient c_n becomes c_n * k**n, in the same window."""
        k = as_fraction(k)
        coeffs = [c * k**n if c else c for n, c in self.items()]
        return LaurentSeries(self.variable, self.min_degree, coeffs, self.truncation_order)

    # -- ring operations ------------------------------------------------------

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries.linear_combination(((-1, self),))

    @classmethod
    def linear_combination(cls, terms: Iterable[tuple]) -> "LaurentSeries":
        """The sum of weight * series over (weight, series) pairs, in one pass.

        Weights are int or Fraction.  A term of weight zero is dropped, as zero
        times a truncated series is exactly zero; the others fix the truncation
        at the lowest among them.  If every weight is zero, the result is the
        zero series at the lowest truncation among all terms.
        """
        terms = [(as_fraction(w), series) for w, series in terms]
        if not terms:
            raise ValueError("a linear combination of series needs at least one term")
        first = terms[0][1]
        for _, series in terms[1:]:
            first._check_same_variable(series)
        parts = [(w, series) for w, series in terms if w] or terms
        order = min(series.truncation_order for _, series in parts)
        lo = min(min(series.min_degree for _, series in parts), order)
        out = [Fraction(0)] * (order - lo + 1)
        for weight, series in parts:
            base = series.min_degree - lo
            for k, c in enumerate(series.coefficients[: max(order - lo - base + 1, 0)]):
                if c:
                    out[base + k] += weight * c
        return cls(first.variable, lo, out, order)

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
        out = [Fraction(0)] * width
        for i, a in enumerate(self.coefficients):
            if not a:
                continue
            base = self.min_degree + i + other.min_degree - lo
            top = min(len(other.coefficients), width - base)
            for j in range(top):
                b = other.coefficients[j]
                if b:
                    out[base + j] = out[base + j] + a * b
        return LaurentSeries(self.variable, lo, out, order)

    __rmul__ = __mul__

    def inverse(self) -> "LaurentSeries":
        """Multiplicative inverse to the propagated truncation order.

        A series of valuation m inverts to one of valuation -m, known to
        order ``truncation_order - 2*m``.
        """
        val = self.valuation()
        if val is None:
            raise ZeroDivisionError("cannot invert an identically-zero series")
        order = self.truncation_order - 2 * val
        rel = self.truncation_order - val  # relative precision of the unit part
        lead = self.coefficients[val - self.min_degree]
        lead_inv = 1 / lead
        # Unit part a_0 + a_1 x + ... with a_0 = lead; invert by the usual recurrence.
        a = [self.coefficient(val + k) for k in range(rel + 1)]
        b = [lead_inv] + [Fraction(0)] * rel
        for n in range(1, rel + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                if a[k]:
                    acc += a[k] * b[n - k]
            b[n] = -lead_inv * acc
        return LaurentSeries(self.variable, -val, b, order)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        if isinstance(other, LaurentSeries):
            return self * other.inverse()
        return NotImplemented

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

    # -- exp / log ------------------------------------------------------------

    def exp(self) -> "LaurentSeries":
        """Exponential of a series whose terms of degree <= 0 all vanish."""
        val = self.valuation()
        if val is not None and val <= 0:
            raise ValueError("series exp needs the constant-and-below part to vanish")
        order = self.truncation_order
        if order < 0:
            raise ValueError("series exp needs a nonnegative truncation order")
        a = [self.coefficient(k) if k >= self.min_degree else Fraction(0) for k in range(order + 1)]
        f = [Fraction(0)] * (order + 1)
        f[0] = Fraction(1)
        # n*f_n = sum_{k=1..n} k*a_k*f_{n-k}
        for n in range(1, order + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                if a[k]:
                    acc += k * a[k] * f[n - k]
            f[n] = acc / n
        return LaurentSeries(self.variable, 0, f, order)

    def log(self) -> "LaurentSeries":
        """Logarithm of a series with constant term 1 and nothing below."""
        if self.min_degree < 0 or self.coefficient(0) != 1:
            raise ValueError("series log needs constant term exactly 1")
        order = self.truncation_order
        a = [self.coefficient(k) for k in range(order + 1)]
        g = [Fraction(0)] * (order + 1)
        # n*g_n = n*a_n - sum_{k=1..n-1} k*g_k*a_{n-k}
        for n in range(1, order + 1):
            acc = n * a[n]
            for k in range(1, n):
                if g[k] and a[n - k]:
                    acc -= k * g[k] * a[n - k]
            g[n] = acc / n
        return LaurentSeries(self.variable, 0, g, order)

    # -- comparison / display ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.variable == other.variable
            and self.min_degree == other.min_degree
            and self.truncation_order == other.truncation_order
            and self.coefficients == other.coefficients
        )

    def __hash__(self) -> int:
        return hash((self.variable, self.min_degree, self.coefficients, self.truncation_order))

    def first_difference(self, other: "LaurentSeries", through: int) -> tuple | None:
        """Lowest ``(degree, a, b)`` up to ``through`` with a != b, or None."""
        self._check_same_variable(other)
        for degree in range(min(self.min_degree, other.min_degree), through + 1):
            if self.coefficient(degree) != other.coefficient(degree):
                return degree, self.coefficient(degree), other.coefficient(degree)
        return None

    def agrees_with(self, other: "LaurentSeries", through: int | None = None) -> bool:
        """Coefficientwise equality on the common known window (up to ``through``)."""
        top = min(self.truncation_order, other.truncation_order)
        return self.first_difference(other, top if through is None else min(top, through)) is None

    def _term_str(self, degree: int, coeff) -> str:
        x = self.variable
        if degree == 0:
            return str(coeff)
        power = x if degree == 1 else f"{x}^{degree}"
        if coeff == 1:
            return power
        if coeff == -1:
            return f"-{power}"
        return f"{coeff}*{power}"

    def __str__(self) -> str:
        terms = [self._term_str(d, c) for d, c in self.items() if c]
        body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        return f"{body} + O({self.variable}^{self.truncation_order + 1})"

    def __repr__(self) -> str:
        return (
            f"LaurentSeries({self.variable!r}, {self.min_degree}, "
            f"{list(self.coefficients)!r}, {self.truncation_order})"
        )
