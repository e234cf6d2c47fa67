"""Noether-Lefschetz correspondences as exact linear systems.

A K3-fibred threefold expresses each fibre-class invariant as a fixed
rational linear combination of K3 invariants indexed by (divisibility m,
square label h); the combination is the same on the Gromov-Witten and the
stable-pairs side.  With synthetic (caller-supplied) coefficient matrices the
correspondence is plain exact linear algebra: combine is the matrix-vector
product (one ``linear_combination`` of the value type per row), and when the
matrix is invertible over the rationals the K3 data can be recovered.

The substitution q = -exp(i*u) is Q-linear, so for an invertible matrix A the
MNOP identity holds on every K3 class exactly when it holds on every fibre
class.  :func:`transfer_mnop` therefore compares first and locates second: it
substitutes and compares the fibre rows, and only when a row disagrees does
it invert the two u-series vectors to name the K3 labels at fault.  No
rational function is summed on the way.

Real Noether-Lefschetz intersection numbers are out of scope here; matrices
are demonstration data with the right shape.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from random import Random
from time import perf_counter
from typing import Mapping, Sequence

from .bps import gw_grade_series
from .kkv import KkvBpsGrid
from .pairs import (
    HodgeLabel,
    PairsLedger,
    bps_table_from_grid,
    multiple_cover,
    substitute_q_minus_exp,
)
from .scalars import as_fraction
from .series import LaurentSeries

log = logging.getLogger("k3bps")


@dataclass(frozen=True, order=True)
class ClassLabel:
    """A K3 curve class keyed by divisibility m and square label h (square 2h-2)."""

    m: int
    h: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("divisibility m must be >= 1")

    def hodge_label(self) -> HodgeLabel:
        """Split off the primitive part: requires m**2 to divide h - 1."""
        if (self.h - 1) % (self.m * self.m):
            raise ValueError(
                f"no primitive class exists under (m={self.m}, h={self.h}): "
                "m^2 must divide h - 1"
            )
        return HodgeLabel(self.m, (self.h - 1) // (self.m * self.m) + 1)


class SingularMatrixError(ValueError):
    """Raised when a correspondence matrix cannot be inverted; carries the rank."""

    def __init__(self, rank: int, size: int) -> None:
        super().__init__(f"matrix is singular: rank {rank} < size {size}")
        self.rank = rank
        self.size = size


class NlMatrix:
    """Rational matrix of synthetic Noether-Lefschetz coefficients.

    Rows carry fibre-class labels (any hashable tags); columns carry
    :class:`ClassLabel` entries.
    """

    __slots__ = ("rows", "cols", "data", "_inverse")

    def __init__(self, rows: Sequence, cols: Sequence[ClassLabel], data: Sequence[Sequence]) -> None:
        rows = tuple(rows)
        cols = tuple(cols)
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("row and column labels must be distinct")
        grid = tuple(tuple(as_fraction(v) for v in row) for row in data)
        if len(grid) != len(rows) or any(len(row) != len(cols) for row in grid):
            raise ValueError("data shape does not match the labels")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", grid)
        object.__setattr__(self, "_inverse", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("NlMatrix is immutable")

    @classmethod
    def identity(cls, labels: Sequence[ClassLabel]) -> "NlMatrix":
        labels = tuple(labels)
        data = [
            [Fraction(1) if i == j else Fraction(0) for j in range(len(labels))]
            for i in range(len(labels))
        ]
        return cls(labels, labels, data)

    @classmethod
    def upper_triangular_unit(
        cls, rows: Sequence, cols: Sequence[ClassLabel], rng: Random, bound: int = 5
    ) -> "NlMatrix":
        """Unit upper-triangular with random integer entries above the diagonal."""
        rows = tuple(rows)
        cols = tuple(cols)
        if len(rows) != len(cols):
            raise ValueError("need a square shape")
        n = len(rows)
        data = [
            [
                Fraction(1)
                if i == j
                else (Fraction(rng.randint(-bound, bound)) if j > i else Fraction(0))
                for j in range(n)
            ]
            for i in range(n)
        ]
        return cls(rows, cols, data)

    @classmethod
    def random_invertible(
        cls, rows: Sequence, cols: Sequence[ClassLabel], rng: Random, bound: int = 5
    ) -> "NlMatrix":
        """Dense random integer matrix, redrawn until invertible."""
        rows = tuple(rows)
        cols = tuple(cols)
        if len(rows) != len(cols):
            raise ValueError("need a square shape")
        n = len(rows)
        while True:
            data = [
                [Fraction(rng.randint(-bound, bound)) for _ in range(n)] for _ in range(n)
            ]
            candidate = cls(rows, cols, data)
            try:
                candidate.inverse_data()
            except SingularMatrixError:
                continue
            return candidate

    @property
    def is_square(self) -> bool:
        return len(self.rows) == len(self.cols)

    def _eliminate(self) -> tuple[tuple[Fraction, ...], ...] | int:
        """The inverse rows, or the rank if the matrix is singular.

        Each row is scaled to integers by the lcm of its denominators, so the
        matrix is diag(scales) * data.  Fraction-free (Bareiss) Gauss-Jordan
        elimination of [A | I] keeps every entry an integer minor of A: each
        update (pivot * a - factor * b) // previous_pivot divides exactly.  At
        full rank the left block is det * I and the right block det * A^-1;
        scaling column k back by scales[k] gives data^-1, one division by det
        per entry.
        """
        start = perf_counter()
        n = len(self.rows)
        scales = [lcm(*(v.denominator for v in row)) for row in self.data]
        work = [
            [v.numerator * (scale // v.denominator) for v in row] + [int(i == j) for j in range(n)]
            for i, (row, scale) in enumerate(zip(self.data, scales))
        ]
        previous, rank = 1, 0
        for col in range(n):
            pivot = next((r for r in range(rank, n) if work[r][col]), None)
            if pivot is None:
                continue
            work[rank], work[pivot] = work[pivot], work[rank]
            top = work[rank]
            lead = top[col]
            for r, row in enumerate(work):
                if r != rank:
                    factor = row[col]
                    work[r] = [(lead * a - factor * b) // previous for a, b in zip(row, top)]
            previous = lead
            rank += 1
        log.debug("NlMatrix elimination size=%d rank=%d in %.4f s", n, rank, perf_counter() - start)
        if rank < n:
            return rank
        return tuple(
            tuple(Fraction(v * scale, previous) for v, scale in zip(row[n:], scales))
            for row in work
        )

    def inverse_data(self) -> tuple[tuple[Fraction, ...], ...]:
        """Exact inverse by fraction-free elimination; raises with the rank if singular.

        The matrix is eliminated once; later calls reuse the inverse rows, or
        the rank, which is raised as a fresh error every time.  A matrix that
        is not square raises a plain ``ValueError`` naming its shape.
        """
        if not self.is_square:
            shape = f"{len(self.rows)}x{len(self.cols)}"
            raise ValueError(f"{shape} NlMatrix has no inverse: only a square matrix does")
        if self._inverse is None:
            object.__setattr__(self, "_inverse", self._eliminate())
        if isinstance(self._inverse, int):
            raise SingularMatrixError(self._inverse, len(self.rows))
        return self._inverse

    def __repr__(self) -> str:
        return f"NlMatrix({len(self.rows)}x{len(self.cols)})"


class InvariantVector:
    """Values (u-series or pairs rational functions) indexed by labels."""

    __slots__ = ("labels", "values")

    def __init__(self, values: Mapping) -> None:
        object.__setattr__(self, "labels", tuple(values))
        object.__setattr__(self, "values", dict(values))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("InvariantVector is immutable")

    def value(self, label):
        return self.values[label]

    def replace(self, label, value) -> "InvariantVector":
        if label not in self.values:
            raise KeyError(label)
        out = dict(self.values)
        out[label] = value
        return InvariantVector(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, InvariantVector):
            return NotImplemented
        return self.values == other.values

    def __repr__(self) -> str:
        return f"InvariantVector({list(self.labels)!r})"


def _apply(weights, vector: InvariantVector, inputs, outputs) -> InvariantVector:
    """The vector whose value at outputs[i] is the sum over j of
    weights[i][j] * vector[inputs[j]], one ``linear_combination`` per label."""
    kind = type(vector.value(inputs[0]))
    return InvariantVector(
        {
            label: kind.linear_combination((w, vector.value(x)) for w, x in zip(row, inputs))
            for label, row in zip(outputs, weights)
        }
    )


def combine(k3: InvariantVector, nl: NlMatrix) -> InvariantVector:
    """Fibre-class invariants as the NL-weighted sums of K3 invariants."""
    if set(k3.labels) != set(nl.cols):
        raise ValueError("vector labels do not match the matrix columns")
    return _apply(nl.data, k3, nl.cols, nl.rows)


def invert_correspondence(fib: InvariantVector, nl: NlMatrix) -> InvariantVector:
    """Recover the K3 vector from fibre-class data: the unique solution of
    combine(result, nl) == fib for an invertible matrix."""
    if set(fib.labels) != set(nl.rows):
        raise ValueError("vector labels do not match the matrix rows")
    return _apply(nl.inverse_data(), fib, nl.rows, nl.cols)


def synthetic_k3_vectors(
    labels: Sequence[ClassLabel],
    grid: KkvBpsGrid,
    u_order: int,
    ledger: PairsLedger | None = None,
) -> tuple[InvariantVector, InvariantVector]:
    """Consistent (GW u-series, pairs rational function) vectors from KKV data."""
    if ledger is None:
        ledger = PairsLedger(grid)
    gw_values = {}
    pairs_values = {}
    for label in labels:
        hodge = label.hodge_label()
        table = bps_table_from_grid(grid, hodge.d, hodge.h)
        gw_values[label] = gw_grade_series(table, hodge.d, u_order)
        pairs_values[label] = multiple_cover(hodge, grid, ledger)
    return InvariantVector(gw_values), InvariantVector(pairs_values)


@dataclass(frozen=True)
class TransferReport:
    """Label-by-label outcome of transferring the MNOP identity through a fibration."""

    ok: bool
    failures: tuple

    def __bool__(self) -> bool:
        return self.ok


def transfer_mnop(
    fib_gw: InvariantVector,
    fib_pairs: InvariantVector,
    nl: NlMatrix,
    u_order: int,
) -> TransferReport:
    """Transfer the MNOP identity from the fibre classes to the K3 classes.

    The substitution q = -exp(i*u) is linear, so with A = ``nl`` invertible
    the recovered K3 data agree label by label exactly when every fibre row
    agrees: the q = -exp(i*u) expansion of each fibre pairs function (a zero
    row gives the zero series) must equal its fibre GW series through
    ``u_order``.  If every row agrees the report is ok and neither vector is
    inverted; otherwise both u-series vectors are inverted and compared per
    K3 label.

    A fibre pairs row that is not even q <-> 1/q symmetric cannot be
    substituted.  Every K3 label whose inverse row puts a nonzero weight on
    such a row is reported as ``(label, "substitution failed", "fibre row
    ...: reason")``, also where the asymmetric parts of several rows cancel in
    that label.  A singular matrix raises :class:`SingularMatrixError` even
    when every row agrees.
    """
    if set(fib_gw.labels) != set(nl.rows) or set(fib_pairs.labels) != set(nl.rows):
        raise ValueError("vector labels do not match the matrix rows")
    inverse = nl.inverse_data()
    substituted = {}
    failed = {}
    for row in nl.rows:
        entry = fib_pairs.value(row)
        substituted[row] = LaurentSeries.zero("u", u_order)
        if not entry.is_zero:
            try:
                substituted[row] = substitute_q_minus_exp(entry, u_order)
            except ArithmeticError as err:
                failed[row] = err
    if not failed and all(
        fib_gw.value(row).first_difference(substituted[row], u_order) is None for row in nl.rows
    ):
        return TransferReport(True, ())
    k3_gw = invert_correspondence(fib_gw, nl)
    k3_pairs = invert_correspondence(InvariantVector(substituted), nl)
    failures = []
    for label, weights in zip(nl.cols, inverse):
        bad = next((row for row, w in zip(nl.rows, weights) if w and row in failed), None)
        if bad is not None:
            failures.append((label, "substitution failed", f"fibre row {bad!r}: {failed[bad]}"))
            continue
        mismatch = k3_gw.value(label).first_difference(k3_pairs.value(label), u_order)
        if mismatch:
            failures.append((label, *mismatch))
    return TransferReport(not failures, tuple(failures))
