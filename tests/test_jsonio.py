import json
from fractions import Fraction
from random import Random

from k3bps import (
    BpsTable,
    ClassLabel,
    GwPotential,
    InvariantVector,
    LaurentSeries,
    NlMatrix,
    RationalFunction,
    bps_grid_from_kkv,
)
from k3bps.jsonio import (
    grid_from_jsonable,
    grid_to_jsonable,
    matrix_from_jsonable,
    matrix_to_jsonable,
    potential_from_jsonable,
    potential_to_jsonable,
    ratfn_from_jsonable,
    ratfn_to_jsonable,
    scalar_from_str,
    scalar_to_str,
    series_from_jsonable,
    series_to_jsonable,
    table_from_jsonable,
    table_to_jsonable,
    vector_from_jsonable,
    vector_to_jsonable,
)


def through_json(payload):
    return json.loads(json.dumps(payload))


def test_scalars_are_exact_strings():
    assert scalar_to_str(Fraction(1, 8)) == "1/8"
    assert scalar_to_str(24) == "24"
    assert scalar_from_str("1/8") == Fraction(1, 8)
    assert scalar_from_str("24") == 24


def test_series_roundtrip():
    series = LaurentSeries("u", -2, [1, 0, Fraction(1, 12), 0, Fraction(1, 240)], 4)
    again = series_from_jsonable(through_json(series_to_jsonable(series)))
    assert again == series


def test_ratfn_roundtrip():
    fn = RationalFunction((0, 1), (1, 2, 1))
    assert ratfn_from_jsonable(through_json(ratfn_to_jsonable(fn))) == fn


def test_grid_roundtrip():
    grid = bps_grid_from_kkv(4)
    payload = through_json(grid_to_jsonable(grid))
    assert payload["values"][0][4] == "25650"
    assert grid_from_jsonable(payload) == grid


def test_table_roundtrip():
    table = BpsTable({(0, 1): 1, (2, 3): Fraction(5, 2)})
    assert table_from_jsonable(through_json(table_to_jsonable(table))) == table


def test_potential_roundtrip():
    potential = GwPotential({(0, 1): Fraction(1, 8), (1, 2): 3}, 6)
    assert potential_from_jsonable(through_json(potential_to_jsonable(potential))) == potential


def test_matrix_roundtrip():
    labels = (ClassLabel(1, 0), ClassLabel(2, 5))
    nl = NlMatrix.random_invertible(("a", "b"), labels, Random(3))
    again = matrix_from_jsonable(through_json(matrix_to_jsonable(nl)))
    assert again.rows == nl.rows
    assert again.cols == nl.cols
    assert again.data == nl.data


def test_vector_roundtrip_mixed_kinds():
    labels = (ClassLabel(1, 0), ClassLabel(1, 1))
    series_vec = InvariantVector(
        {labels[0]: LaurentSeries("u", -2, [1, 0, 1], 2), labels[1]: LaurentSeries.one("u", 2)}
    )
    ratfn_vec = InvariantVector(
        {"b0": RationalFunction((0, 1), (1, 2, 1)), "b1": RationalFunction((3,))}
    )
    assert vector_from_jsonable(through_json(vector_to_jsonable(series_vec))) == series_vec
    assert vector_from_jsonable(through_json(vector_to_jsonable(ratfn_vec))) == ratfn_vec
