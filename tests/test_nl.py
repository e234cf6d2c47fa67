import logging
from fractions import Fraction
from random import Random

import pytest

from k3bps import (
    ClassLabel,
    InvariantVector,
    LaurentSeries,
    NlMatrix,
    RationalFunction,
    SingularMatrixError,
    combine,
    invert_correspondence,
    mnop_check,
    substitute_q_minus_exp,
    synthetic_k3_vectors,
    transfer_mnop,
)

LABELS = (ClassLabel(1, 0), ClassLabel(1, 1), ClassLabel(2, 5))
ROWS = ("b0", "b1", "b2")


def series(*coeffs, lo=0):
    return LaurentSeries("u", lo, [Fraction(c) for c in coeffs], lo + len(coeffs) - 1)


def vector_of_series(values):
    return InvariantVector(dict(zip(LABELS, values)))


def test_class_label_validation():
    with pytest.raises(ValueError):
        ClassLabel(0, 1)
    assert ClassLabel(2, 5).hodge_label().h == 2
    with pytest.raises(ValueError, match="m\\^2 must divide"):
        ClassLabel(2, 2).hodge_label()


def test_identity_matrix_preserves_vector():
    vec = vector_of_series([series(1, 2), series(0, 3), series(5)])
    ident = NlMatrix.identity(LABELS)
    assert combine(vec, ident) == vec
    assert invert_correspondence(vec, ident) == vec


def test_zero_matrix_gives_zero_vector():
    vec = vector_of_series([series(1, 2), series(0, 3), series(5)])
    zero = NlMatrix(ROWS, LABELS, [[0] * 3 for _ in range(3)])
    out = combine(vec, zero)
    assert all(out.value(r).is_zero for r in ROWS)


def test_two_by_two_upper_triangular_by_hand():
    labels = LABELS[:2]
    a, b = series(1, 1), series(0, 2)
    vec = InvariantVector({labels[0]: a, labels[1]: b})
    nl = NlMatrix(("r0", "r1"), labels, [[1, 3], [0, 1]])
    out = combine(vec, nl)
    assert out.value("r0") == a + b * 3
    assert out.value("r1") == b
    assert invert_correspondence(out, nl) == vec


def test_label_mismatch_rejected():
    vec = vector_of_series([series(1), series(2), series(3)])
    nl = NlMatrix.identity(LABELS[:2])
    with pytest.raises(ValueError, match="labels"):
        combine(vec, nl)


def test_singular_matrix_reports_rank():
    data = [[1, 2, 3], [2, 4, 6], [0, 0, 1]]
    nl = NlMatrix(ROWS, LABELS, data)
    for _ in range(2):  # the outcome is cached; every call still raises
        with pytest.raises(SingularMatrixError) as exc:
            nl.inverse_data()
        assert exc.value.rank == 2
        assert exc.value.size == 3


@pytest.mark.parametrize("rows, cols", [(("a", "b"), LABELS), (ROWS, LABELS[:2])])
def test_non_square_matrix_has_no_inverse(rows, cols):
    nl = NlMatrix(rows, cols, [[1] * len(cols) for _ in rows])
    message = f"{len(rows)}x{len(cols)} NlMatrix has no inverse: only a square matrix does"
    with pytest.raises(ValueError, match=message) as exc:
        nl.inverse_data()
    assert not isinstance(exc.value, SingularMatrixError)
    fib_gw = InvariantVector({row: series(1) for row in rows})
    fib_pairs = InvariantVector({row: RationalFunction.one() for row in rows})
    with pytest.raises(ValueError, match=message):
        invert_correspondence(fib_gw, nl)
    with pytest.raises(ValueError, match=message):
        transfer_mnop(fib_gw, fib_pairs, nl, 0)


def _random_square(rng, n, kind):
    if kind == "integer":
        return [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    if kind == "rational":
        return [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(n)] for _ in range(n)
        ]
    # singular: every row a combination of at most n - 1 random rows
    basis = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n - 1))]
    return [
        [sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(n)] for _ in range(n)
    ]


@pytest.mark.parametrize("kind", ["integer", "rational", "singular"])
def test_inverse_and_rank_match_sympy(kind):
    sympy = pytest.importorskip("sympy")
    rng = Random(kind)
    for case in range(25):
        n = 1 + case % 6
        data = _random_square(rng, n, kind)
        labels = [ClassLabel(1, h) for h in range(n)]
        expected = sympy.Matrix(data)
        nl = NlMatrix(labels, labels, data)
        rank = expected.rank()
        if rank < n:
            with pytest.raises(SingularMatrixError) as exc:
                nl.inverse_data()
            assert exc.value.rank == rank, data
            continue
        inverse = expected.inv()
        assert nl.inverse_data() == tuple(
            tuple(Fraction(int(v.p), int(v.q)) for v in inverse.row(i)) for i in range(n)
        ), data


def test_elimination_logs_size_rank_and_time_at_debug(caplog):
    with caplog.at_level(logging.DEBUG, logger="k3bps"):
        with pytest.raises(SingularMatrixError):
            NlMatrix(ROWS, LABELS, [[1, 2, 3], [2, 4, 6], [0, 0, 1]]).inverse_data()
    (record,) = [r for r in caplog.records if r.getMessage().startswith("NlMatrix")]
    assert record.levelno == logging.DEBUG
    assert record.getMessage().startswith("NlMatrix elimination size=3 rank=2 in ")


def test_inverse_is_computed_once_per_matrix(monkeypatch):
    nl = NlMatrix.random_invertible(ROWS, LABELS, Random(3))
    monkeypatch.setattr(NlMatrix, "_eliminate", lambda self: pytest.fail("eliminated twice"))
    first = nl.inverse_data()
    assert nl.inverse_data() is first
    product = [
        [sum(nl.data[i][k] * first[k][j] for k in range(3)) for j in range(3)] for i in range(3)
    ]
    assert product == [[int(i == j) for j in range(3)] for i in range(3)]


def test_random_invertible_tests_each_draw_through_inverse_data(monkeypatch):
    # the public entry point sees every draw, so a caller counting its
    # raises counts the singular redraws; Random(0) redraws once at bound 1
    outcomes = []
    inverse_data = NlMatrix.inverse_data

    def recorded(self):
        try:
            inverse = inverse_data(self)
        except SingularMatrixError:
            outcomes.append("singular")
            raise
        outcomes.append("inverse")
        return inverse

    monkeypatch.setattr(NlMatrix, "inverse_data", recorded)
    NlMatrix.random_invertible(ROWS, LABELS, Random(0), bound=1)
    assert outcomes == ["singular", "inverse"]


def test_roundtrip_with_random_matrices():
    rng = Random(11)
    for case in range(30):
        vec = vector_of_series(
            [
                series(*[Fraction(rng.randint(-5, 5)) for _ in range(4)], lo=-2)
                for _ in LABELS
            ]
        )
        nl = (
            NlMatrix.random_invertible(ROWS, LABELS, rng)
            if case % 2
            else NlMatrix.upper_triangular_unit(ROWS, LABELS, rng)
        )
        assert invert_correspondence(combine(vec, nl), nl) == vec


def test_transfer_on_consistent_synthetic_fibration(grid5):
    gw_vec, pairs_vec = synthetic_k3_vectors(LABELS, grid5, 8)
    nl = NlMatrix.random_invertible(ROWS, LABELS, Random(5))
    report = transfer_mnop(combine(gw_vec, nl), combine(pairs_vec, nl), nl, 8)
    assert report.ok
    assert report.failures == ()


def test_transfer_locates_symmetric_fault(grid5):
    gw_vec, pairs_vec = synthetic_k3_vectors(LABELS, grid5, 8)
    nl = NlMatrix.upper_triangular_unit(ROWS, LABELS, Random(2))
    fib_gw = combine(gw_vec, nl)
    fib_pairs = combine(pairs_vec, nl)
    bump = RationalFunction.monomial(1, Fraction(1, 3)) + RationalFunction.monomial(
        -1, Fraction(1, 3)
    )
    broken = fib_pairs.replace("b1", fib_pairs.value("b1") + bump)
    report = transfer_mnop(fib_gw, broken, nl, 8)
    assert not report.ok
    label = report.failures[0][0]
    assert isinstance(label, ClassLabel)


def test_transfer_flags_asymmetric_fault(grid5):
    gw_vec, pairs_vec = synthetic_k3_vectors(LABELS, grid5, 8)
    nl = NlMatrix.identity(LABELS)
    fib_pairs = combine(pairs_vec, nl)
    broken = fib_pairs.replace(
        LABELS[0], fib_pairs.value(LABELS[0]) + RationalFunction.monomial(2)
    )
    report = transfer_mnop(combine(gw_vec, nl), broken, nl, 8)
    assert not report.ok
    assert any(failure[1] == "substitution failed" for failure in report.failures)


def test_transfer_flags_asymmetry_beyond_the_compared_orders(grid5):
    # odd centred power sums of this entry vanish below u^7, far above u^0
    asymmetric = RationalFunction((0, 0, -14, -14, -6, -1), (1, 2, 1))
    gw_vec, pairs_vec = synthetic_k3_vectors(LABELS, grid5, 8)
    nl = NlMatrix.identity(LABELS)
    broken = combine(pairs_vec, nl).replace(LABELS[0], asymmetric)
    report = transfer_mnop(combine(gw_vec, nl), broken, nl, 0)
    assert [failure[:2] for failure in report.failures] == [(LABELS[0], "substitution failed")]
    assert "not q <-> 1/q symmetric" in report.failures[0][2]


def test_identity_matrix_reduces_transfer_to_pointwise_mnop(grid5):
    gw_vec, pairs_vec = synthetic_k3_vectors(LABELS, grid5, 8)
    ident = NlMatrix.identity(LABELS)
    report = transfer_mnop(combine(gw_vec, ident), combine(pairs_vec, ident), ident, 8)
    pointwise = all(
        mnop_check(label.hodge_label(), grid5, 8).equal for label in LABELS
    )
    assert report.ok == pointwise is True


def _k3_route_transfer(fib_gw, fib_pairs, nl, u_order):
    """Oracle: the earlier transfer, which inverts both fibre vectors (the
    pairs one over rational functions) and compares each recovered K3 label."""
    k3_gw = invert_correspondence(fib_gw, nl)
    k3_pairs = invert_correspondence(fib_pairs, nl)
    failures = []
    for label in nl.cols:
        lhs = k3_gw.value(label)
        entry = k3_pairs.value(label)
        if getattr(entry, "is_zero", False):
            rhs = LaurentSeries.zero("u", u_order)
        else:
            try:
                rhs = substitute_q_minus_exp(entry, u_order)
            except ArithmeticError as err:
                failures.append((label, "substitution failed", str(err)))
                continue
        mismatch = lhs.first_difference(rhs, u_order)
        if mismatch:
            failures.append((label, *mismatch))
    return not failures, tuple(failures)


def _without_messages(failures):
    return tuple(f[:2] if f[1] == "substitution failed" else f for f in failures)


FOUR = LABELS + (ClassLabel(1, 2),)
FOUR_ROWS = ROWS + ("b3",)


def _bump(rng, symmetric):
    j = rng.randint(0, 3) if symmetric else rng.randint(1, 3)
    eps = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
    bump = RationalFunction.monomial(j, eps)
    return bump + RationalFunction.monomial(-j, eps) if symmetric else bump


def test_transfer_matches_the_k3_route_on_seeded_fibrations(grid5):
    u_order = 10
    gw_vec, pairs_vec = synthetic_k3_vectors(FOUR, grid5, u_order)
    rng = Random(2022)
    for case in range(300):
        kind = case % 4  # consistent, symmetric, asymmetric, two asymmetric rows
        nl = (
            NlMatrix.random_invertible(FOUR_ROWS, FOUR, rng)
            if case // 4 % 2
            else NlMatrix.upper_triangular_unit(FOUR_ROWS, FOUR, rng)
        )
        fib_gw = combine(gw_vec, nl)
        fib_pairs = combine(pairs_vec, nl)
        bumped = rng.sample(FOUR_ROWS, 2 if kind == 3 else 1 if kind else 0)
        for row in bumped:
            fib_pairs = fib_pairs.replace(row, fib_pairs.value(row) + _bump(rng, kind == 1))
        report = transfer_mnop(fib_gw, fib_pairs, nl, u_order)
        ok, expected = _k3_route_transfer(fib_gw, fib_pairs, nl, u_order)
        assert report.ok == ok == (kind == 0), case
        got, want = _without_messages(report.failures), _without_messages(expected)
        if got != want:
            # the one documented difference: asymmetric parts of two bumped
            # rows that cancel in a K3 label, which the K3 route compares
            # and this route flags
            assert kind == 3, case
            flagged, compared = {f[0]: f for f in got}, {f[0]: f for f in want}
            for label, weights in zip(nl.cols, nl.inverse_data()):
                if flagged.get(label) != compared.get(label):
                    assert flagged.get(label) == (label, "substitution failed"), case
                    assert compared.get(label, (label, None))[1] != "substitution failed"
                    assert all(weights[FOUR_ROWS.index(row)] for row in bumped), case


def test_transfer_flags_a_label_where_asymmetric_rows_cancel(grid5):
    # inverse rows (1, -1) and (0, 1): the same asymmetric bump on both fibre
    # rows cancels in the first K3 label, which is still flagged, naming the
    # first failed row it weighs
    labels = LABELS[:2]
    gw_vec, pairs_vec = synthetic_k3_vectors(labels, grid5, 8)
    nl = NlMatrix(("r0", "r1"), labels, [[1, 1], [0, 1]])
    fib_gw = combine(gw_vec, nl)
    fib_pairs = combine(pairs_vec, nl)
    bump = RationalFunction.monomial(2)
    for row in nl.rows:
        fib_pairs = fib_pairs.replace(row, fib_pairs.value(row) + bump)
    report = transfer_mnop(fib_gw, fib_pairs, nl, 8)
    assert [f[:2] for f in report.failures] == [
        (labels[0], "substitution failed"),
        (labels[1], "substitution failed"),
    ]
    assert report.failures[0][2].startswith("fibre row 'r0': coefficients not palindromic")
    assert report.failures[1][2].startswith("fibre row 'r1': coefficients not palindromic")
    ok, expected = _k3_route_transfer(fib_gw, fib_pairs, nl, 8)
    assert not ok and [f[:2] for f in expected] == [(labels[1], "substitution failed")]


def test_singular_matrix_raises_even_when_every_row_agrees(grid5):
    gw_vec, pairs_vec = synthetic_k3_vectors(LABELS, grid5, 8)
    nl = NlMatrix(ROWS, LABELS, [[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    with pytest.raises(SingularMatrixError):
        transfer_mnop(combine(gw_vec, nl), combine(pairs_vec, nl), nl, 8)


@pytest.mark.parametrize("side", ["gw", "pairs"])
def test_transfer_rejects_a_label_mismatch_in_either_vector(grid5, side):
    gw_vec, pairs_vec = synthetic_k3_vectors(LABELS, grid5, 8)
    nl = NlMatrix.identity(LABELS)
    fib = {"gw": combine(gw_vec, nl), "pairs": combine(pairs_vec, nl)}
    fib[side] = InvariantVector(dict(zip(ROWS, fib[side].values.values())))
    with pytest.raises(ValueError, match="labels"):
        transfer_mnop(fib["gw"], fib["pairs"], nl, 8)


def test_transfer_handles_a_zero_fibre_row_and_a_zero_k3_label(grid5):
    gw_vec, pairs_vec = synthetic_k3_vectors(LABELS, grid5, 8)
    # equal K3 data on the first two labels gives a zero first fibre row
    gw_vec = gw_vec.replace(LABELS[0], gw_vec.value(LABELS[1]))
    pairs_vec = pairs_vec.replace(LABELS[0], pairs_vec.value(LABELS[1]))
    # and the third K3 label is zero on both sides
    gw_vec = gw_vec.replace(LABELS[2], LaurentSeries.zero("u", 8))
    pairs_vec = pairs_vec.replace(LABELS[2], RationalFunction.zero())
    nl = NlMatrix(ROWS, LABELS, [[1, -1, 0], [0, 1, 2], [1, 0, 1]])
    fib_gw = combine(gw_vec, nl)
    fib_pairs = combine(pairs_vec, nl)
    assert fib_pairs.value("b0").is_zero and fib_gw.value("b0").is_zero
    report = transfer_mnop(fib_gw, fib_pairs, nl, 8)
    assert report.ok and report.failures == ()
    broken = fib_pairs.replace("b0", RationalFunction.monomial(0, 3))
    report = transfer_mnop(fib_gw, broken, nl, 8)
    assert (report.ok, report.failures) == _k3_route_transfer(fib_gw, broken, nl, 8)
    assert not report.ok


def test_transfer_does_no_rational_function_arithmetic(grid5, monkeypatch):
    gw_vec, pairs_vec = synthetic_k3_vectors(LABELS, grid5, 8)
    nl = NlMatrix.random_invertible(ROWS, LABELS, Random(7))
    fib_gw = combine(gw_vec, nl)
    fib_pairs = combine(pairs_vec, nl)
    faulty = [
        fib_pairs.replace("b1", fib_pairs.value("b1") + RationalFunction((1, 0, 1), (0, 1))),
        fib_pairs.replace("b2", fib_pairs.value("b2") + RationalFunction.monomial(1)),
    ]
    expected = [_k3_route_transfer(fib_gw, broken, nl, 8) for broken in faulty]

    def refuse(*args, **kwargs):
        raise AssertionError("RationalFunction.linear_combination called")

    monkeypatch.setattr(RationalFunction, "linear_combination", staticmethod(refuse))
    assert transfer_mnop(fib_gw, fib_pairs, nl, 8).ok
    for broken, (ok, failures) in zip(faulty, expected):
        report = transfer_mnop(fib_gw, broken, nl, 8)
        assert not report.ok and not ok
        assert _without_messages(report.failures) == _without_messages(failures)
