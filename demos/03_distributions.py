"""Refined counting by the pjum statistic.

pjum is the ascent count minus the maximum letter: the room left for
future jumps.  Two classes admit recurrences refined by it, and both are
cross-checked here against exhaustive bucketing.
"""

from ascentseq import (
    b_table_0111,
    f_series_1001,
    gf_catalog,
    jump_distribution_brute,
    pjum,
    pjum_distribution,
    pjum_distribution_brute,
)

print("pjum(010102) = asc - max =", pjum((0, 1, 0, 1, 0, 2)))

print("\nThe 0111 triangle from its recurrence (rows n = 1..8):")
triangle = b_table_0111(8)
for n in range(1, 9):
    print(f"    n={n}: {triangle.row(n)}")

brute = pjum_distribution_brute("021,0111", 8)
print("recurrence == exhaustive bucketing:", triangle.rows == brute.rows)
print("layer DP == exhaustive bucketing:",
      pjum_distribution("021,0111", 8).rows == brute.rows)
print("row sums == catalog series:",
      triangle.row_sums() == gf_catalog("0111", 8).int_coeffs()[1:])

print("\nThe 1001 class via the mutually recursive family f_i")
print("(f_i counts members with pjum = i; sums recover the class series):")
fs = f_series_1001(3, 10)
for i, f in enumerate(fs):
    print(f"    f_{i}:", tuple(int(c) for c in f.coeffs))

print("\nJump distribution of nondecreasing words from 0 (cap 3):")
table = jump_distribution_brute(8, 3)
for n in range(1, 9):
    print(f"    n={n}: {table.row(n)}")
