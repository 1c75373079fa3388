"""Refined counting: the pjum-indexed recurrence triangle for the 0111
class, the mutually recursive series family for the 1001 class, exhaustive
statistic distributions, and the closed-form count identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import _check_length
from .patterns import PatternSet, _coerce_patterns, _walk, normalize_pattern
from .series import P, PowerSeries, expand_ratio


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
    by exhaustive enumeration.  The independent oracle for the two
    recurrences below.
    """
    _check_length(horizon)
    pats = _coerce_patterns(patterns)
    rows = [[0] * horizon for _ in range(horizon)]
    for depth, word in _walk(horizon, pats):
        if depth == 0:
            continue
        asc = mx = 0
        prev = 0
        for i in range(1, depth):
            letter = word[i]
            if letter > prev:
                asc += 1
                if letter > mx:
                    mx = letter
            prev = letter
        rows[depth - 1][asc - mx] += 1
    return DistributionTable(
        pats, "pjum", horizon, tuple(_trim(r) for r in rows)
    )


def jump_distribution_brute(horizon: int, max_jumps: int) -> DistributionTable:
    """Bucket the nondecreasing words starting at 0 of each length
    1..horizon by their exact jump count, for jump counts up to max_jumps
    (without a cap there are infinitely many words per length).  Partial
    row sums across j <= r are the h_r coefficients.
    """
    _check_length(horizon)
    if max_jumps < 0:
        raise ValueError("max_jumps must be non-negative")
    rows = [[0] * (max_jumps + 1) for _ in range(horizon)]
    word = [0] * horizon

    def rec(depth: int, jumps: int) -> None:
        rows[depth - 1][jumps] += 1
        if depth == horizon:
            return
        prev = word[depth - 1]
        for letter in range(prev, prev + (max_jumps - jumps) + 2):
            word[depth] = letter
            rec(depth + 1, jumps + max(0, letter - prev - 1))

    if horizon:
        rec(1, 0)
    return DistributionTable(
        None, "jum", horizon, tuple(tuple(r) for r in rows)
    )


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


_A_1001 = (P(0, 0, 0, 1), P(1, -1) ** 3)  # x^3 / (1-x)^3
_B_1001 = (P(0, 1, -1, 1), P(1, -1) ** 3)  # x(1-x+x^2) / (1-x)^3
_C_1001 = (P(0, 1), P(1, -1) ** 2)  # x / (1-x)^2


def f_series_1001(i_max: int, order: int) -> list[PowerSeries]:
    """The series f_0..f_{i_max} counting nonempty 021- and 1001-avoiders
    with a given pjum value, from the mutually recursive system

        f_i = x^3/(1-x)^3 f_{i-1} + x(1-x+x^2)/(1-x)^3 sum_{j>=i} f_j
        f_0 = x/(1-x) + x/(1-x)^2 sum_{j>=0} f_j

    Truncation makes the infinite sums finite: pjum = j needs length at
    least 2j+1, so f_j vanishes to the working order once 2j+1 > order.
    The system is iterated to a fixed point and the equations re-checked.
    """
    if i_max < 0 or order < 1:
        raise ValueError("need i_max >= 0 and order >= 1")
    j_top = max(i_max, (order - 1) // 2 if order >= 1 else 0)
    ncoef = order + 1
    A = expand_ratio(*_A_1001, order)
    B = expand_ratio(*_B_1001, order)
    C = expand_ratio(*_C_1001, order)
    x_over_1mx = expand_ratio(P(0, 1), P(1, -1), order)
    zero = PowerSeries([Fraction(0)] * ncoef)
    f = [zero] * (j_top + 1)
    for _ in range(ncoef + 1):
        total = zero
        for s in f:
            total = total + s
        new = list(f)
        new[0] = x_over_1mx + C * total
        tail = total
        for i in range(1, j_top + 1):
            tail = tail - f[i - 1]
            new[i] = A * f[i - 1] + B * tail
        if new == f:
            break
        f = new
    else:
        raise ArithmeticError("1001 series system did not reach a fixed point")
    # Re-check the recurrences on the fixed point.
    total = zero
    for s in f:
        total = total + s
    if f[0] != x_over_1mx + C * total:
        raise ArithmeticError("1001 fixed point violates the f_0 equation")
    tail = total
    for i in range(1, j_top + 1):
        tail = tail - f[i - 1]
        if f[i] != A * f[i - 1] + B * tail:
            raise ArithmeticError(f"1001 fixed point violates the f_{i} equation")
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
