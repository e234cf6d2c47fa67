"""JSON encoding/decoding for the CLI.

Scalars are emitted as exact strings, ``"24"`` or ``"1/8"``, never as floats;
series carry ``{variable, min_degree, truncation_order, coefficients[]}`` and
rational functions ``{numerator[], denominator[]}`` with constant-first
coefficient lists.  Every encoder has a decoder and the pair round-trips.
"""

from __future__ import annotations

from fractions import Fraction

from .bps import BpsTable, GwPotential
from .kkv import KkvBpsGrid
from .nl import ClassLabel, InvariantVector, NlMatrix
from .rational import RationalFunction
from .series import LaurentSeries


def scalar_to_str(value) -> str:
    return str(Fraction(value))


def scalar_from_str(text: str) -> Fraction:
    return Fraction(text)


def series_to_jsonable(series: LaurentSeries) -> dict:
    return {
        "variable": series.variable,
        "min_degree": series.min_degree,
        "truncation_order": series.truncation_order,
        "coefficients": [scalar_to_str(c) for c in series.coefficients],
    }


def series_from_jsonable(obj: dict) -> LaurentSeries:
    return LaurentSeries(
        obj["variable"],
        int(obj["min_degree"]),
        [scalar_from_str(c) for c in obj["coefficients"]],
        int(obj["truncation_order"]),
    )


def ratfn_to_jsonable(fn: RationalFunction) -> dict:
    return {
        "numerator": [scalar_to_str(c) for c in fn.numerator],
        "denominator": [scalar_to_str(c) for c in fn.denominator],
    }


def ratfn_from_jsonable(obj: dict) -> RationalFunction:
    return RationalFunction(
        [scalar_from_str(c) for c in obj["numerator"]],
        [scalar_from_str(c) for c in obj["denominator"]],
    )


def grid_to_jsonable(grid: KkvBpsGrid, g_max: int | None = None) -> dict:
    """Rectangular layout, rows by genus and columns by h (zeros above the diagonal)."""
    if g_max is None:
        g_max = grid.h_max
    return {
        "h_max": grid.h_max,
        "g_max": g_max,
        "values": [
            [str(grid.value(g, h)) for h in range(grid.h_max + 1)] for g in range(g_max + 1)
        ],
    }


def grid_from_jsonable(obj: dict) -> KkvBpsGrid:
    values = obj["values"]
    h_max = int(obj["h_max"])
    columns = []
    for h in range(h_max + 1):
        columns.append(tuple(int(values[g][h]) for g in range(h + 1)))
    return KkvBpsGrid(columns)


def _entries_to_jsonable(entries: dict) -> list[dict]:
    """The ``{"g", "d", "value"}`` list shared by BPS tables and GW potentials."""
    return [{"g": g, "d": d, "value": scalar_to_str(v)} for (g, d), v in sorted(entries.items())]


def _entries_from_jsonable(items: list[dict]) -> dict:
    return {(int(e["g"]), int(e["d"])): scalar_from_str(e["value"]) for e in items}


def table_to_jsonable(table: BpsTable) -> dict:
    return {"entries": _entries_to_jsonable(table.entries)}


def table_from_jsonable(obj: dict) -> BpsTable:
    return BpsTable(_entries_from_jsonable(obj["entries"]))


def potential_to_jsonable(potential: GwPotential) -> dict:
    return {
        "u_truncation": potential.u_truncation,
        "entries": _entries_to_jsonable(potential.entries),
    }


def potential_from_jsonable(obj: dict) -> GwPotential:
    return GwPotential(_entries_from_jsonable(obj["entries"]), int(obj["u_truncation"]))


def matrix_to_jsonable(nl: NlMatrix) -> dict:
    return {
        "rows": [str(r) for r in nl.rows],
        "cols": [[c.m, c.h] for c in nl.cols],
        "entries": [[scalar_to_str(v) for v in row] for row in nl.data],
    }


def matrix_from_jsonable(obj: dict) -> NlMatrix:
    return NlMatrix(
        obj["rows"],
        [ClassLabel(int(m), int(h)) for m, h in obj["cols"]],
        [[scalar_from_str(v) for v in row] for row in obj["entries"]],
    )


def _value_to_jsonable(value) -> dict:
    if isinstance(value, LaurentSeries):
        return {"kind": "series", **series_to_jsonable(value)}
    if isinstance(value, RationalFunction):
        return {"kind": "rational", **ratfn_to_jsonable(value)}
    raise TypeError(f"cannot serialize vector value of type {type(value).__name__}")


def _value_from_jsonable(obj: dict):
    if obj["kind"] == "series":
        return series_from_jsonable(obj)
    if obj["kind"] == "rational":
        return ratfn_from_jsonable(obj)
    raise ValueError(f"unknown value kind {obj['kind']!r}")


def vector_to_jsonable(vector: InvariantVector) -> dict:
    labels = []
    values = []
    for label in vector.labels:
        if isinstance(label, ClassLabel):
            labels.append({"m": label.m, "h": label.h})
        else:
            labels.append(str(label))
        values.append(_value_to_jsonable(vector.value(label)))
    return {"labels": labels, "values": values}


def vector_from_jsonable(obj: dict) -> InvariantVector:
    out = {}
    for label, value in zip(obj["labels"], obj["values"]):
        if isinstance(label, dict):
            label = ClassLabel(int(label["m"]), int(label["h"]))
        out[label] = _value_from_jsonable(value)
    return InvariantVector(out)
