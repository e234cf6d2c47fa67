"""Noether-Lefschetz style correspondences as exact linear algebra.

A K3 fibration expresses each fibre-class invariant as one fixed rational
linear combination of K3 invariants, the same combination on the
Gromov-Witten and the stable-pairs side.  With an invertible coefficient
matrix the K3 data can be recovered from the fibration data, and the MNOP
identity transfers label by label.  The matrix entries here are synthetic:
the point is the algebra of the transfer, not the intersection theory.
"""

from fractions import Fraction
from random import Random

from k3bps import (
    ClassLabel,
    NlMatrix,
    PairsLedger,
    RationalFunction,
    bps_grid_from_kkv,
    combine,
    invert_correspondence,
    synthetic_k3_vectors,
    transfer_mnop,
)

labels = (ClassLabel(1, 0), ClassLabel(1, 1), ClassLabel(1, 2), ClassLabel(2, 5))
rows = tuple(f"beta{i}" for i in range(len(labels)))
grid = bps_grid_from_kkv(5)
ledger = PairsLedger(grid)

gw_vec, pairs_vec = synthetic_k3_vectors(labels, grid, 8, ledger)
print("K3 data per class label (m = divisibility, h = square label):")
for label in labels:
    print(f"  (m={label.m}, h={label.h}):  GW series {gw_vec[label]}")
print()

rng = Random(2024)
nl = NlMatrix.random_invertible(rows, labels, rng)
fib_gw = combine(gw_vec, nl)
fib_pairs = combine(pairs_vec, nl)
print("after mixing through a random invertible coefficient matrix:")
print(f"  fibre-class GW series at beta0: {fib_gw['beta0']}")
print()

recovered = invert_correspondence(fib_gw, nl)
print(f"inversion recovers the K3 vector exactly: {recovered == gw_vec}")

outcome = transfer_mnop(fib_gw, fib_pairs, nl, 8)
print(f"MNOP identity transfers through the fibration: {outcome.ok}")
print()

bump = RationalFunction.monomial(1, Fraction(1, 5)) + RationalFunction.monomial(-1, Fraction(1, 5))
broken = {**fib_pairs, "beta1": fib_pairs["beta1"] + bump}
caught = transfer_mnop(fib_gw, broken, nl, 8)
print("corrupting one fibre-class coefficient and transferring again:")
print(f"  consistent: {caught.ok}")
for failure in caught.failures:
    print(f"  flagged at {failure[0]}, first differing u-degree {failure[1]}")
