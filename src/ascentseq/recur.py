"""Refined counting: the pjum-indexed recurrence triangle for the 0111
class, the mutually recursive series family for the 1001 class, statistic
distributions by DP with their exhaustive oracles, and the closed-form
count identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import _check_length, bounded_jump_words, jump_count
from .patterns import (
    PATTERN_021,
    PatternSet,
    _coerce_patterns,
    _layers_021,
    _walk,
    normalize_pattern,
)

if TYPE_CHECKING:
    from .series import PowerSeries

# series and fractions are imported by the two functions that use them,
# so that the distribution and bijection commands never load them.


@dataclass(frozen=True)
class DistributionTable:
    """Counts of a statistic over length-n objects, for n = 1..horizon.

    rows[n-1][i] is the number of objects of length n with statistic
    value i; rows are dense from 0 to the largest observed value.
    """

    pattern_set: PatternSet | None
    statistic: str
    horizon: int
    rows: tuple[tuple[int, ...], ...]

    def row(self, n: int) -> tuple[int, ...]:
        if not 1 <= n <= self.horizon:
            raise IndexError(f"row {n} is outside 1..{self.horizon}")
        return self.rows[n - 1]

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(r) for r in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "patterns": [str(p) for p in self.pattern_set]
            if self.pattern_set is not None
            else [],
            "statistic": self.statistic,
            "rows": [
                {"n": n + 1, "counts": list(r)} for n, r in enumerate(self.rows)
            ],
        }

    def to_tsv(self) -> str:
        return "".join(
            f"{n + 1}\t" + "\t".join(str(c) for c in r) + "\n"
            for n, r in enumerate(self.rows)
        )


def _trim(row: list[int]) -> tuple[int, ...]:
    while len(row) > 1 and row[-1] == 0:
        row.pop()
    return tuple(row)


def pjum_distribution_brute(patterns, horizon: int) -> DistributionTable:
    """Bucket the avoiders of each length 1..horizon by their pjum value,
    by exhaustive enumeration.  The independent oracle for pjum_distribution
    and the two recurrences below.
    """
    _check_length(horizon)
    pats = _coerce_patterns(patterns)
    rows = [[0] * horizon for _ in range(horizon)]
    for depth, word, letters in _walk(horizon, pats):
        asc = mx = 0
        prev = 0
        for i in range(1, depth):
            letter = word[i]
            if letter > prev:
                asc += 1
                if letter > mx:
                    mx = letter
            prev = letter
        # Each letter closes an avoider of length depth + 1.
        row = rows[depth]
        for letter in letters:
            if letter > prev:
                row[asc + 1 - max(mx, letter)] += 1
            else:
                row[asc - mx] += 1
    return DistributionTable(
        pats, "pjum", horizon, tuple(_trim(r) for r in rows)
    )


def pjum_distribution(patterns, horizon: int) -> DistributionTable:
    """The pjum distribution of pjum_distribution_brute, read off the
    layer DP (_layers_021) when 021 is in the set: an avoider at slack s
    has pjum max(s - 1, 0).  Sets without 021 are bucketed exhaustively.
    """
    _check_length(horizon)
    pats = _coerce_patterns(patterns)
    if PATTERN_021 not in pats:
        return pjum_distribution_brute(pats, horizon)
    rows = []
    for d, layer in enumerate(_layers_021(horizon, pats), start=1):
        row = [0] * d
        for vec in layer.values():
            for s, c in enumerate(vec):
                row[max(s - 1, 0)] += c
        rows.append(_trim(row))
    return DistributionTable(pats, "pjum", horizon, tuple(rows))


def jump_distribution(horizon: int, max_jumps: int) -> DistributionTable:
    """The table of jump_distribution_brute by a DP over the jump count.

    A next letter equal to the last or one above it adds no jump, and one
    k + 1 above adds k, so next[j] = 2 cur[j] + sum_{t<j} cur[t].
    """
    _check_length(horizon)
    _check_length(max_jumps, "max_jumps")
    rows = []
    cur = [1] + [0] * max_jumps
    for _ in range(horizon):
        rows.append(tuple(cur))
        below = 0
        nxt = []
        for c in cur:
            nxt.append(2 * c + below)
            below += c
        cur = nxt
    return DistributionTable(None, "jum", horizon, tuple(rows))


def jump_distribution_brute(horizon: int, max_jumps: int) -> DistributionTable:
    """Bucket the nondecreasing words starting at 0 of each length
    1..horizon by their exact jump count, for jump counts up to max_jumps
    (without a cap there are infinitely many words per length).  Partial
    row sums across j <= r are the h_r coefficients.
    """
    _check_length(horizon)
    _check_length(max_jumps, "max_jumps")
    rows = []
    for n in range(1, horizon + 1):
        row = [0] * (max_jumps + 1)
        for w in bounded_jump_words(n, max_jumps):
            row[jump_count(w)] += 1
        rows.append(tuple(row))
    return DistributionTable(None, "jum", horizon, tuple(rows))


def b_table_0111(horizon: int) -> DistributionTable:
    """The pjum distribution over 021- and 0111-avoiders, computed purely
    from its recurrence (no enumeration): for n >= 3 and i <= n-3,

        b[n][i] = b[n-1][i] + sum_{j=i}^{n-3} (b[n-1][j] + b[n-2][j])
                  + [i>0] * sum_{d=1}^{n-i-2} sum_{j=i-1}^{n-d-3} b[n-d-2][j]

    with b[1][0] = 1, b[2][0] = 2, b[2][1] = 0 and the top two diagonals
    zero from n = 3 on.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    b: list[list[int]] = [[], [1], [2, 0]]
    for n in range(3, horizon + 1):
        row = [0] * n
        for i in range(0, n - 2):
            total = b[n - 1][i]
            for j in range(i, n - 2):
                total += b[n - 1][j] + b[n - 2][j]
            if i > 0:
                for d in range(1, n - i - 1):
                    for j in range(i - 1, n - d - 2):
                        total += b[n - d - 2][j]
            row[i] = total
        b.append(row)
    pats = PatternSet.of("021", "0111")
    return DistributionTable(
        pats, "pjum", horizon, tuple(_trim(list(b[n])) for n in range(1, horizon + 1))
    )


def f_series_1001(i_max: int, order: int) -> list[PowerSeries]:
    """The series f_0..f_{i_max} counting nonempty 021- and 1001-avoiders
    with a given pjum value, from the mutually recursive system

        f_i = x^3/(1-x)^3 f_{i-1} + x(1-x+x^2)/(1-x)^3 sum_{j>=i} f_j
        f_0 = x/(1-x) + x/(1-x)^2 sum_{j>=0} f_j

    Truncation makes the infinite sums finite: pjum = j needs length at
    least 2j+1, so f_j vanishes to the working order once 2j+1 > order.
    The three coefficient series have no constant term, so coefficient n
    of every f_i depends only on coefficients below n: the system is
    solved one coefficient at a time and the equations re-checked.
    """
    from .series import P, PowerSeries, expand_ratio

    if i_max < 0 or order < 1:
        raise ValueError("need i_max >= 0 and order >= 1")
    j_top = max(i_max, (order - 1) // 2)
    ncoef = order + 1
    A = expand_ratio(P(0, 0, 0, 1), P(1, -1) ** 3, order)  # x^3 / (1-x)^3
    B = expand_ratio(P(0, 1, -1, 1), P(1, -1) ** 3, order)  # x(1-x+x^2) / (1-x)^3
    C = expand_ratio(P(0, 1), P(1, -1) ** 2, order)  # x / (1-x)^2
    x_over_1mx = expand_ratio(P(0, 1), P(1, -1), order)
    # Every denominator is a power of 1 - x, so the solve runs on integers.
    a, b, c, g = (s.int_coeffs() for s in (A, B, C, x_over_1mx))
    # coeffs[i][n] is coefficient n of f_i, tails[i][n] that of sum_{j>=i} f_j.
    coeffs = [[0] * ncoef for _ in range(j_top + 1)]
    tails = [[0] * ncoef for _ in range(j_top + 2)]
    for n in range(ncoef):
        coeffs[0][n] = g[n] + sum(
            c[k] * tails[0][n - k] for k in range(1, n + 1)
        )
        for i in range(1, j_top + 1):
            prev, tail = coeffs[i - 1], tails[i]
            coeffs[i][n] = sum(
                a[k] * prev[n - k] + b[k] * tail[n - k] for k in range(1, n + 1)
            )
        for i in range(j_top, -1, -1):
            tails[i][n] = tails[i + 1][n] + coeffs[i][n]
    f = [PowerSeries(cs) for cs in coeffs]
    # Re-check the recurrences on the solution.
    total = f[0]
    for s in f[1:]:
        total = total + s
    if f[0] != x_over_1mx + C * total:
        raise ArithmeticError("1001 solution violates the f_0 equation")
    tail = total
    for i in range(1, j_top + 1):
        tail = tail - f[i - 1]
        if f[i] != A * f[i - 1] + B * tail:
            raise ArithmeticError(f"1001 solution violates the f_{i} equation")
    return f[: i_max + 1]


_CLOSED_FORMS = {
    (0, 0, 1, 1): "two_pow",
    (0, 1, 1, 2): "two_pow",
    (1, 2, 0, 2): "three_pow",
}


def closed_form_count(pattern, n: int) -> int:
    """Closed-form avoider counts: (n-1)*2^(n-2) + 1 for the 0011 class
    and (3^(n-1) + 1)/2 for 1202, valid for n >= 1.  Evaluated with exact
    rationals so the n = 1 edge needs no special case; integrality is
    asserted.
    """
    from fractions import Fraction

    letters = normalize_pattern(pattern).letters
    kind = _CLOSED_FORMS.get(letters)
    if kind is None:
        raise ValueError(f"no closed form for pattern {pattern!r}")
    if n < 1:
        raise ValueError("closed forms hold for n >= 1")
    if kind == "two_pow":
        value = Fraction(n - 1) * Fraction(2) ** (n - 2) + 1
    else:
        value = (Fraction(3) ** (n - 1) + 1) / 2
    if value.denominator != 1:
        raise ArithmeticError(f"closed form produced a non-integer: {value}")
    return int(value)
