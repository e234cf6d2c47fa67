"""Series graded by multiples of a primitive curve class.

A :class:`GradedSeries` stores one value per grade d = 1..max_degree (the
coefficient of the d-th power of the formal class variable), plus an optional
exact unit at grade 0.  Values form a commutative Q-algebra under ``*``; they
are truncated Laurent series or rational functions in practice, and each must
offer ``is_zero`` and a ``linear_combination`` classmethod over
``(weight, value)`` pairs, as :class:`~k3bps.series.LaurentSeries` and
:class:`~k3bps.rational.RationalFunction` do.

Every grade of a sum, a product, exp or log is one ``linear_combination`` of
its terms, so a rational function is reduced once per grade rather than after
every addition.  exp and log act degree-by-degree in the grading and convert
between connected data (no grade-0 term) and disconnected partition-function
data (unit at grade 0); they are mutually inverse.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping


def _sum(terms: list):
    """The sum of weight * value over nonempty (weight, value) terms, as one
    linear combination in the values' own type."""
    return type(terms[0][1]).linear_combination(terms)


@dataclass(frozen=True, slots=True, repr=False)
class GradedSeries:
    """Finitely many graded entries with an optional grade-0 unit."""

    max_degree: int
    entries: Mapping[int, object]
    has_unit: bool = False

    def __post_init__(self) -> None:
        if self.max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        kept = {}
        for grade, value in self.entries.items():
            grade = int(grade)
            if not 1 <= grade <= self.max_degree:
                raise ValueError(f"grade {grade} outside 1..{self.max_degree}")
            if not value.is_zero:
                kept[grade] = value
        object.__setattr__(self, "entries", kept)
        object.__setattr__(self, "has_unit", bool(self.has_unit))

    def entry(self, grade: int):
        """Stored value at a grade, or None when it is zero/absent."""
        if not 1 <= grade <= self.max_degree:
            raise ValueError(f"grade {grade} outside 1..{self.max_degree}")
        return self.entries.get(grade)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        if self.has_unit or other.has_unit:
            raise ValueError("cannot add graded series carrying a grade-0 unit")
        top = min(self.max_degree, other.max_degree)
        terms = defaultdict(list)
        for series in (self, other):
            for grade, value in series.entries.items():
                if grade <= top:
                    terms[grade].append((1, value))
        return GradedSeries(top, {grade: _sum(t) for grade, t in terms.items()})

    def __mul__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        top = min(self.max_degree, other.max_degree)
        terms = defaultdict(list)
        for d1, v1 in self.entries.items():
            for d2, v2 in other.entries.items():
                if d1 + d2 <= top:
                    terms[d1 + d2].append((1, v1 * v2))
        # the unit of one factor carries the other's entries through unchanged
        for unit, series in ((self.has_unit, other), (other.has_unit, self)):
            if unit:
                for grade, value in series.entries.items():
                    if grade <= top:
                        terms[grade].append((1, value))
        summed = {grade: _sum(t) for grade, t in terms.items()}
        return GradedSeries(top, summed, has_unit=self.has_unit and other.has_unit)

    # -- exp / log -----------------------------------------------------------

    def exp(self) -> "GradedSeries":
        """Exponential in the grading; input must have no grade-0 part."""
        if self.has_unit:
            raise ValueError("exp needs a series with no grade-0 term")
        out: dict[int, object] = {}
        # D*F_D = sum_{j=1..D} j*g_j*F_{D-j}   with F_0 = 1
        for grade in range(1, self.max_degree + 1):
            terms = [(1, self.entries[grade])] if grade in self.entries else []
            for j in range(1, grade):
                g = self.entries.get(j)
                f = out.get(grade - j)
                if g is not None and f is not None:
                    terms.append((Fraction(j, grade), g * f))
            if terms:
                out[grade] = _sum(terms)
        return GradedSeries(self.max_degree, out, has_unit=True)

    def log(self) -> "GradedSeries":
        """Logarithm in the grading; input must carry the grade-0 unit."""
        if not self.has_unit:
            raise ValueError("log needs the grade-0 term to be exactly 1")
        out: dict[int, object] = {}
        # g_D = F_D - (1/D) * sum_{j=1..D-1} j*g_j*F_{D-j}
        for grade in range(1, self.max_degree + 1):
            terms = [(1, self.entries[grade])] if grade in self.entries else []
            for j in range(1, grade):
                g = out.get(j)
                f = self.entries.get(grade - j)
                if g is not None and f is not None:
                    terms.append((Fraction(-j, grade), g * f))
            if terms:
                out[grade] = _sum(terms)
        return GradedSeries(self.max_degree, out)

    # -- display ---------------------------------------------------------------

    def __repr__(self) -> str:
        unit = "1 + " if self.has_unit else ""
        body = ", ".join(f"{d}: {v}" for d, v in sorted(self.entries.items()))
        return f"GradedSeries(<= {self.max_degree}; {unit}{{{body}}})"
