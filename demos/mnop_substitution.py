"""The change of variables q = -exp(i*u) and the local MNOP identity.

The substitution runs in integers: centred on the midpoint of the
denominator's degree range, a q <-> 1/q invariant function (checked exactly:
its signed coefficients are palindromic) has only even powers of u, whose
i^t factors are real signs, so a real even Laurent series comes out and no
imaginary unit is ever formed.  On the footnote function
q/(1+q)^2 the result is (2 sin(u/2))^-2, computed here by a completely
separate code path (trigonometric series versus exponential sums), and the
same comparison run over a block of classes is the local MNOP identity:
BPS-transformed Gromov-Witten series on one side, substituted multiple-cover
functions of stable pairs on the other.
"""

from k3bps import (
    HodgeLabel,
    PairsLedger,
    RationalFunction,
    bps_grid_from_kkv,
    mnop_check,
    sine_bracket,
    substitute_q_minus_exp,
)

footnote = RationalFunction((0, 1), (1, 2, 1))
via_pairs = substitute_q_minus_exp(footnote, 12)
via_sine = sine_bracket(1, 0, 12)
print(f"q/(1+q)^2 under q = -e^(iu):  {via_pairs}")
print(f"(2 sin(u/2))^-2 directly:     {via_sine}")
print(f"identical: {via_pairs == via_sine}")
print()

palindrome = RationalFunction((1, 0, 1), (0, 1))  # q + 1/q
print(f"q + 1/q becomes -2 cos(u): {substitute_q_minus_exp(palindrome, 8)}")
print()

grid = bps_grid_from_kkv(20)
ledger = PairsLedger(grid)
print("local MNOP identity, one line per class (d = divisibility, h = square label):")
for d in (1, 2, 3):
    for h in (0, 1, 2, 3):
        outcome = mnop_check(HodgeLabel(d, h), grid, 12, ledger)
        status = "equal" if outcome.equal else f"MISMATCH {outcome.first_mismatch}"
        print(f"  (d={d}, h={h}): {status}")
print()

sample = mnop_check(HodgeLabel(3, 2), grid, 12, ledger)
print("the two sides at (d=3, h=2), computed independently:")
print(f"  GW side:    {sample.lhs}")
print(f"  pairs side: {sample.rhs}")
