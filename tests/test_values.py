"""Value semantics shared by every value type of the package.

Each instance is immutable; two instances built separately from the same
data are equal and, where the type is hashable, hash equal.  An
``NlMatrix`` equals only itself.  The hand-written types that also equal
plain scalars hash as those scalars.
"""

from fractions import Fraction

import pytest

from k3bps import (
    BpsTable,
    ClassLabel,
    GaussianRational,
    GradedSeries,
    GwPotential,
    HodgeLabel,
    LaurentSeries,
    NlMatrix,
    RationalFunction,
    SymLaurentPoly,
    bps_grid_from_kkv,
    mnop_check,
)
from k3bps.checks import CheckResult
from k3bps.nl import TransferReport

# (build, a field name): build() makes a fresh instance each call
VALUES = {
    "HodgeLabel": (lambda: HodgeLabel(2, 1), "d"),
    "ClassLabel": (lambda: ClassLabel(1, 2), "h"),
    "MnopReport": (lambda: mnop_check(HodgeLabel(1, 1), bps_grid_from_kkv(1), 4), "equal"),
    "TransferReport": (lambda: TransferReport(True, ()), "ok"),
    "CheckResult": (lambda: CheckResult("kkv-table", True, "fine"), "detail"),
    "BpsTable": (lambda: BpsTable({(0, 1): 1, (1, 2): Fraction(1, 2)}), "entries"),
    "GwPotential": (lambda: GwPotential({(0, 1): 1}, 4), "u_truncation"),
    "KkvBpsGrid": (lambda: bps_grid_from_kkv(3), "columns"),
    "GradedSeries": (
        lambda: GradedSeries(2, {1: LaurentSeries("u", -2, [1, 0, 3], 4)}, has_unit=True),
        "max_degree",
    ),
    "LaurentSeries": (lambda: LaurentSeries("q", 1, [2, Fraction(1, 3)], 5), "min_degree"),
    "NlMatrix": (lambda: NlMatrix.identity([ClassLabel(1, 1), ClassLabel(1, 2)]), "rows"),
    "RationalFunction": (lambda: RationalFunction((1, 2), (1, 0, 3)), "_num"),
    "SymLaurentPoly": (lambda: SymLaurentPoly.from_half({0: 3, 2: Fraction(1, 2)}), "_coeffs"),
    "GaussianRational": (lambda: GaussianRational(1, Fraction(2, 3)), "re"),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_semantics(name):
    build, attr = VALUES[name]
    value, twin = build(), build()
    with pytest.raises(AttributeError):
        setattr(value, attr, getattr(twin, attr))
    if name == "NlMatrix":
        assert value == value
        assert value != twin
        return
    assert value == twin
    try:
        hash(value)
    except TypeError:
        return  # a value holding a dict is unhashable
    assert hash(value) == hash(twin)


@pytest.mark.parametrize(
    "value, scalar",
    [
        (RationalFunction.one(), 1),
        (RationalFunction.zero(), 0),
        (RationalFunction((Fraction(-3, 4),)), Fraction(-3, 4)),
        (SymLaurentPoly.constant(Fraction(1, 2)), Fraction(1, 2)),
        (SymLaurentPoly.zero(), 0),
        (GaussianRational(5), 5),
    ],
    ids=[
        "ratfn-one",
        "ratfn-zero",
        "ratfn-constant",
        "symlaurent-constant",
        "symlaurent-zero",
        "gaussian-real",
    ],
)
def test_constant_hashes_as_its_scalar(value, scalar):
    assert value == scalar
    assert hash(value) == hash(scalar)
    assert len({value, scalar}) == 1
    assert {scalar: "x"}[value] == "x"
