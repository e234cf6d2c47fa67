"""JSON encoding for the CLI.

Scalars are emitted as exact strings, ``"24"`` or ``"1/8"``, never as floats;
series carry ``{variable, min_degree, truncation_order, coefficients[]}`` and
rational functions ``{numerator[], denominator[]}`` with constant-first
coefficient lists.  The CLI only writes JSON, so there are no decoders.
"""

from __future__ import annotations

from fractions import Fraction

from .bps import GwPotential
from .kkv import KkvBpsGrid
from .nl import NlMatrix
from .rational import RationalFunction
from .series import LaurentSeries


def scalar_to_str(value) -> str:
    return str(Fraction(value))


def series_to_jsonable(series: LaurentSeries) -> dict:
    return {
        "variable": series.variable,
        "min_degree": series.min_degree,
        "truncation_order": series.truncation_order,
        "coefficients": [scalar_to_str(c) for c in series.coefficients],
    }


def ratfn_to_jsonable(fn: RationalFunction) -> dict:
    return {
        "numerator": [scalar_to_str(c) for c in fn.numerator],
        "denominator": [scalar_to_str(c) for c in fn.denominator],
    }


def grid_to_jsonable(grid: KkvBpsGrid, g_max: int) -> dict:
    """Rectangular layout, rows by genus and columns by h (zeros above the diagonal)."""
    return {
        "h_max": grid.h_max,
        "g_max": g_max,
        "values": [
            [str(grid.value(g, h)) for h in range(grid.h_max + 1)] for g in range(g_max + 1)
        ],
    }


def potential_to_jsonable(potential: GwPotential) -> dict:
    return {
        "u_truncation": potential.u_truncation,
        "entries": [
            {"g": g, "d": d, "value": scalar_to_str(v)}
            for (g, d), v in sorted(potential.entries.items())
        ],
    }


def matrix_to_jsonable(nl: NlMatrix) -> dict:
    return {
        "rows": [str(r) for r in nl.rows],
        "cols": [[c.m, c.h] for c in nl.cols],
        "entries": [[scalar_to_str(v) for v in row] for row in nl.data],
    }


def _value_to_jsonable(value) -> dict:
    if isinstance(value, LaurentSeries):
        return {"kind": "series", **series_to_jsonable(value)}
    if isinstance(value, RationalFunction):
        return {"kind": "rational", **ratfn_to_jsonable(value)}
    raise TypeError(f"cannot serialize vector value of type {type(value).__name__}")


def vector_to_jsonable(vector: dict) -> dict:
    """A vector of the NL layer, its labels as strings (fibre rows such as ``"beta0"``)."""
    return {
        "labels": [str(label) for label in vector],
        "values": [_value_to_jsonable(value) for value in vector.values()],
    }
