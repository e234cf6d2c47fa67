"""The genus-0 specialization of the KKV product is the Yau-Zaslow series.

Setting z -> 1 kills every positive power of lambda = z - 2 + 1/z, so only
the genus-0 counts survive and the product collapses to the 24th power of
the partition-number generating function.
"""

from k3bps import bps_grid_from_kkv, kkv_product, yau_zaslow_series

H_MAX = 16

yz = yau_zaslow_series(H_MAX)
print(f"prod (1-q^n)^-24 through q^{H_MAX}:")
for h in range(H_MAX + 1):
    print(f"  [q^{h}] = {yz.coefficient(h)}")
print()

series = kkv_product(H_MAX)
grid = bps_grid_from_kkv(H_MAX)
agree_spec = all(yz.coefficient(h) == series[h].evaluate_at_one() for h in range(H_MAX + 1))
agree_grid = all(yz.coefficient(h) == grid.value(0, h) for h in range(H_MAX + 1))
print(f"equals the z -> 1 specialization of the full product: {agree_spec}")
print(f"equals the genus-0 row of the BPS grid:               {agree_grid}")
