"""Each JSON encoder against a literal: exact strings, never floats, and a
payload that a round trip through JSON text leaves unchanged."""

import json
from fractions import Fraction
from random import Random

from k3bps import (
    ClassLabel,
    GwPotential,
    LaurentSeries,
    NlMatrix,
    RationalFunction,
    bps_grid_from_kkv,
)
from k3bps.jsonio import (
    grid_to_jsonable,
    matrix_to_jsonable,
    potential_to_jsonable,
    ratfn_to_jsonable,
    scalar_to_str,
    series_to_jsonable,
    vector_to_jsonable,
)

FOOTNOTE = RationalFunction((0, 1), (1, 2, 1))  # q/(1+q)^2
FOOTNOTE_JSON = {"numerator": ["0", "1"], "denominator": ["1", "2", "1"]}


def assert_encodes(payload, expected):
    assert payload == expected
    assert json.loads(json.dumps(payload)) == payload


def test_scalars_are_exact_strings():
    assert scalar_to_str(Fraction(1, 8)) == "1/8"
    assert scalar_to_str(Fraction(-24, 2)) == "-12"
    assert scalar_to_str(24) == "24"


def test_series_roundtrip():
    # dense from min_degree up to the truncation order, zeros included
    series = LaurentSeries("u", -2, [1, 0, Fraction(1, 12), 0, Fraction(1, 240)], 4)
    assert_encodes(
        series_to_jsonable(series),
        {
            "variable": "u",
            "min_degree": -2,
            "truncation_order": 4,
            "coefficients": ["1", "0", "1/12", "0", "1/240", "0", "0"],
        },
    )


def test_ratfn_roundtrip():
    assert_encodes(ratfn_to_jsonable(FOOTNOTE), FOOTNOTE_JSON)
    assert_encodes(
        ratfn_to_jsonable(RationalFunction((1,), (2,))), {"numerator": ["1/2"], "denominator": ["1"]}
    )


def test_grid_roundtrip():
    # rows by genus up to g_max, here one above h_max and all zero
    assert_encodes(
        grid_to_jsonable(bps_grid_from_kkv(2), 3),
        {
            "h_max": 2,
            "g_max": 3,
            "values": [
                ["1", "24", "324"],
                ["0", "-2", "-54"],
                ["0", "0", "3"],
                ["0", "0", "0"],
            ],
        },
    )


def test_potential_roundtrip():
    potential = GwPotential({(1, 2): 3, (0, 1): Fraction(1, 8)}, 6)
    assert_encodes(
        potential_to_jsonable(potential),
        {
            "u_truncation": 6,
            "entries": [{"g": 0, "d": 1, "value": "1/8"}, {"g": 1, "d": 2, "value": "3"}],
        },
    )


def test_matrix_roundtrip():
    labels = (ClassLabel(1, 0), ClassLabel(2, 5))
    nl = NlMatrix.random_invertible(("a", "b"), labels, Random(3))
    assert_encodes(
        matrix_to_jsonable(nl),
        {"rows": ["a", "b"], "cols": [[1, 0], [2, 5]], "entries": [["-2", "4"], ["3", "-3"]]},
    )


def test_vector_roundtrip_mixed_kinds():
    vector = {"b0": LaurentSeries("u", -2, [1, 0, Fraction(-1, 3)], 0), "b1": FOOTNOTE}
    assert_encodes(
        vector_to_jsonable(vector),
        {
            "labels": ["b0", "b1"],
            "values": [
                {
                    "kind": "series",
                    "variable": "u",
                    "min_degree": -2,
                    "truncation_order": 0,
                    "coefficients": ["1", "0", "-1/3"],
                },
                {"kind": "rational", **FOOTNOTE_JSON},
            ],
        },
    )
