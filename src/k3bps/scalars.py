"""Exact scalar arithmetic.

Rational scalars are plain :class:`fractions.Fraction` values (arbitrary
precision, always reduced, positive denominator); :func:`as_fraction` is the
one coercion the other modules use.

:class:`GaussianRational` (numbers ``re + im*i`` with rational parts and
``i**2 == -1``) and the unit :data:`I` remain public API, but the pipeline no
longer uses them: the ``q = -exp(i*u)`` change of variables is computed over
the rationals (see :func:`k3bps.pairs.substitute_q_minus_exp`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


def as_fraction(value: Rational) -> Fraction:
    """Coerce an int or Fraction to Fraction; reject floats and the rest."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational scalar, got {type(value).__name__}")


class GaussianRational:
    """A Gaussian rational ``re + im*i`` with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rational = 0, im: Rational = 0) -> None:
        object.__setattr__(self, "re", as_fraction(re))
        object.__setattr__(self, "im", as_fraction(im))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("GaussianRational is immutable")

    # -- predicates ---------------------------------------------------------

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _coerce(value) -> "GaussianRational | None":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """The multiplicative norm ``re**2 + im**2``."""
        return self.re * self.re + self.im * self.im

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        num = self * other.conjugate()
        return GaussianRational(num.re / n, num.im / n)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an int")
        if exponent < 0:
            return 1 / (self ** (-exponent))
        result = GaussianRational(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self.re == coerced.re and self.im == coerced.im

    def __hash__(self) -> int:
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        if self.im == 0:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {abs(self.im)}*i"


#: The imaginary unit.
I = GaussianRational(0, 1)
