"""Expand the KKV product and read off the BPS counts of a K3 surface.

The product

    prod_{n>=1} 1 / ((1-q^n)^20 (1-z q^n)^2 (1-q^n/z)^2)

collects every count n_(g,h) at once: the q^h coefficient is a symmetric
Laurent polynomial in z, and writing it in powers of lambda = z - 2 + 1/z
separates the genera.
"""

from k3bps import bps_grid_from_kkv, kkv_product, lambda_decompose

H_MAX = 8

series = kkv_product(H_MAX)
print(f"q^0 coefficient: {series[0]}")
print(f"q^1 coefficient: {series[1]}")
print(f"  ... = 24 + 2*lambda, since lambda_decompose gives {lambda_decompose(series[1])}")
print()

grid = bps_grid_from_kkv(H_MAX)
width = max(len(str(grid.value(g, h))) for g in range(H_MAX + 1) for h in range(H_MAX + 1))
print(f"BPS counts n_(g,h) for h <= {H_MAX} (rows by genus):")
header = "        " + "  ".join(f"h={h}".rjust(width) for h in range(H_MAX + 1))
print(header)
for g in range(H_MAX + 1):
    row = "  ".join(str(grid.value(g, h)).rjust(width) for h in range(H_MAX + 1))
    print(f"  g={g}:  {row}")
print()

print("Two structural laws, visible in the triangle and exact at every h:")
print("  * n_(g,h) = 0 for g > h: no counts above the arithmetic genus.")
print("  * n_(h,h) = (-1)^h (h+1): the signed Euler characteristic of the")
print("    h-dimensional linear system of curves.")
for h in (3, 8):
    print(f"    check at h={h}: n_({h},{h}) = {grid.value(h, h)}")
