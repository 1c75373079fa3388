"""The generating-function catalog and its exact arithmetic.

Every restricted class has a closed-form generating function: rational
for most, algebraic (one square root) for the 1001 class, 0111 and 1110.
Coefficients are exact rationals end to end, and the catalog asserts
integrality after the divisions cancel.
"""

from fractions import Fraction

from ascentseq import (
    P,
    PowerSeries,
    count_avoiders,
    expand_ratio,
    gf_catalog,
    h_r_series,
)
from ascentseq.oeis import ALIGNMENTS, matching_terms, read_bfile

print("A rational entry, (1-x)(1-4x+4x^2+x^3)/(1-2x)^3:")
print("   ", expand_ratio(P(1, -1) * P(1, -4, 4, 1), P(1, -2) ** 3, 11).int_coeffs())

print("\nAn algebraic entry, the 1001 class:")
print("   ", gf_catalog("1001", 11).int_coeffs())

print("\nEach catalog entry equals its searched count vector:")
for name in ("0111", "1110", "1203"):
    series = gf_catalog(name, 9).int_coeffs()
    searched = count_avoiders(f"021,{name}", 9).counts
    print(f"    {name}: series == search -> {series == searched}")

print("\nSquare roots are computed by coefficient matching:")
s = PowerSeries.from_polynomial(P(1, -4, 2, 0, 1), 8).sqrt()
print("    sqrt(1-4x+2x^2+x^4) =", tuple(int(c) for c in s.coeffs))
print("    squared back:", (s * s).int_coeffs())

print("\nJump-bounded nondecreasing words, h_r = x(1-x)^r/(1-2x)^(r+1):")
for r in range(3):
    print(f"    h_{r}:", h_r_series(r, 8).int_coeffs())

print("\nOffline OEIS fixtures aligned with catalog expansions:")
for entry in sorted(ALIGNMENTS):
    pattern, shift = ALIGNMENTS[entry]
    k = matching_terms(entry, order=15)
    head = [read_bfile(entry)[n] for n in range(6)]
    print(f"    {entry} ~ pattern {pattern} (shift {shift:+d}): "
          f"{k} terms match; starts {head}")
