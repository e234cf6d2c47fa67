"""Laurent polynomials in z invariant under z <-> 1/z.

These are the carriers of genus information in the KKV product: the q^h
coefficient of the product expansion is such a polynomial, and the basis
``(z - 2 + 1/z)**g`` extracts one genus per power.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .scalars import as_fraction


class SymLaurentPoly:
    """A finite Laurent polynomial with ``coefficient(k) == coefficient(-k)``."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Mapping[int, object]) -> None:
        coeffs = {}
        for deg, value in coefficients.items():
            value = as_fraction(value)
            if value:
                coeffs[int(deg)] = value
        for deg, value in coeffs.items():
            if coeffs.get(-deg) != value:
                raise ValueError(
                    f"not symmetric under z <-> 1/z: coefficient({deg}) = {value} "
                    f"but coefficient({-deg}) = {coeffs.get(-deg, Fraction(0))}"
                )
        object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("SymLaurentPoly is immutable")

    @classmethod
    def constant(cls, value) -> "SymLaurentPoly":
        return cls({0: value})

    @classmethod
    def zero(cls) -> "SymLaurentPoly":
        return cls({})

    @classmethod
    def from_half(cls, half: Mapping[int, object]) -> "SymLaurentPoly":
        """Build from the degrees >= 0 half; negative degrees are mirrored."""
        full: dict[int, object] = {}
        for deg, value in half.items():
            if deg < 0:
                raise ValueError("from_half expects nonnegative degrees only")
            full[deg] = value
            full[-deg] = value
        return cls(full)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> int:
        """Largest degree with a nonzero coefficient (-1 for the zero polynomial)."""
        if not self._coeffs:
            return -1
        return max(self._coeffs)

    def coefficient(self, degree: int) -> Fraction:
        return self._coeffs.get(degree, Fraction(0))

    def items(self):
        return sorted(self._coeffs.items())

    def evaluate_at_one(self) -> Fraction:
        """The specialization z -> 1, i.e. the sum of all coefficients."""
        return sum(self._coeffs.values(), Fraction(0))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SymLaurentPoly.constant(other)
        if not isinstance(other, SymLaurentPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for deg, value in other._coeffs.items():
            out[deg] = out.get(deg, Fraction(0)) + value
        return SymLaurentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return SymLaurentPoly({d: -v for d, v in self._coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SymLaurentPoly.constant(other)
        if not isinstance(other, SymLaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            scale = as_fraction(other)
            return SymLaurentPoly({d: v * scale for d, v in self._coeffs.items()})
        if not isinstance(other, SymLaurentPoly):
            return NotImplemented
        out: dict[int, Fraction] = {}
        for d1, v1 in self._coeffs.items():
            for d2, v2 in other._coeffs.items():
                deg = d1 + d2
                out[deg] = out.get(deg, Fraction(0)) + v1 * v2
        return SymLaurentPoly(out)

    __rmul__ = __mul__

    # -- comparison / display -------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SymLaurentPoly.constant(other)
        if not isinstance(other, SymLaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        # a constant equals its scalar, so it hashes as the scalar does
        if self.degree() <= 0:
            return hash(self.coefficient(0))
        return hash(tuple(sorted(self._coeffs.items())))

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for deg, value in self.items():
            if deg == 0:
                parts.append(str(value))
            else:
                power = "z" if deg == 1 else f"z^{deg}"
                parts.append(power if value == 1 else f"{value}*{power}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"SymLaurentPoly({dict(self.items())!r})"
