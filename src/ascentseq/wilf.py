"""Wilf classification of the full pattern universe on 021-avoiders.

Patterns are grouped by their avoider count vectors up to a finite
horizon, so the report always says "equivalent up to N", never "proven
equivalent".  All count vectors are computed in a single enumeration of
the 021-avoiders: for each member every length-m subsequence is
normalized through a lookup table and tallied, which prices the whole
universe at one sweep instead of one search per pattern.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import MAX_LENGTH, _check_length
from .patterns import (
    Pattern,
    PatternSet,
    _walk,
    all_patterns,
    catalan,
    normalize_pattern,
)


@dataclass(frozen=True)
class WilfClass:
    """One equivalence class at the report's horizon."""

    representative: Pattern
    members: tuple[Pattern, ...]
    counts: tuple[int, ...]

    @property
    def is_catalan(self) -> bool:
        return all(
            c == catalan(n) for n, c in enumerate(self.counts)
        )


@dataclass(frozen=True)
class WilfClassReport:
    pattern_length: int
    horizon: int
    classes: tuple[WilfClass, ...]

    @property
    def catalan_patterns(self) -> tuple[Pattern, ...]:
        for cls in self.classes:
            if cls.is_catalan:
                return cls.members
        return ()

    def class_of(self, pattern) -> WilfClass:
        pat = normalize_pattern(pattern)
        for cls in self.classes:
            if pat.letters in {m.letters for m in cls.members}:
                return cls
        raise KeyError(f"{pat} is not in the classified universe")

    def to_json_dict(self) -> dict:
        return {
            "pattern_length": self.pattern_length,
            "horizon": self.horizon,
            "equivalence": "up to horizon only",
            "classes": [
                {
                    "representative": str(cls.representative),
                    "members": [str(p) for p in cls.members],
                    "counts": list(cls.counts),
                    "catalan": cls.is_catalan,
                }
                for cls in self.classes
            ],
        }

    def to_markdown(self) -> str:
        lines = [
            f"| class | counts b_0..b_{self.horizon} |",
            "|---|---|",
        ]
        for cls in self.classes:
            members = ", ".join(str(p) for p in cls.members)
            label = f"{{{members}}}"
            if cls.is_catalan:
                label += " (Catalan)"
            counts = ", ".join(str(c) for c in cls.counts)
            lines.append(f"| {label} | {counts} |")
        return "\n".join(lines) + "\n"


def pattern_avoidance_table(
    pattern_length: int, horizon: int, *, max_length: int = MAX_LENGTH
) -> dict[Pattern, tuple[int, ...]]:
    """Count vector of {021, tau}-avoiders for every normalized pattern
    tau of the given length, all from one enumeration sweep.
    """
    import numpy as np

    _check_length(horizon, max_length)
    pats = all_patterns(pattern_length)
    index = {p.letters: i for i, p in enumerate(pats)}
    npats = len(pats)
    m = pattern_length
    base = horizon + 1
    if base**m > 50_000_000:
        raise ValueError("pattern length too large for the table sweep")

    lut = np.empty(base**m, dtype=np.int32)
    for tup in itertools.product(range(base), repeat=m):
        enc = 0
        for v in tup:
            enc = enc * base + v
        lut[enc] = index[normalize_pattern(tup).letters]

    # Collect every 021-avoider of each length n <= horizon.
    rows: dict[int, np.ndarray] = {
        n: np.empty((catalan(n), n), dtype=np.int8) for n in range(1, horizon + 1)
    }
    fill = [0] * (horizon + 1)

    def on_node(depth, word):
        if depth:
            rows[depth][fill[depth]] = word[:depth]
            fill[depth] += 1

    _walk(horizon, PatternSet.of("021"), on_node)
    for n in range(1, horizon + 1):
        if fill[n] != catalan(n):
            raise ArithmeticError(f"{fill[n]} 021-avoiders of length {n}, not {catalan(n)}")

    powers = base ** np.arange(m - 1, -1, -1, dtype=np.int64)
    containing = np.zeros((horizon + 1, npats), dtype=np.int64)
    for n in range(m, horizon + 1):
        combos = np.array(list(itertools.combinations(range(n), m)), dtype=np.intp)
        x = rows[n]
        chunk = max(1, 8_000_000 // (combos.shape[0] * m))
        for lo in range(0, x.shape[0], chunk):
            part = x[lo : lo + chunk].astype(np.int64)
            vals = part[:, combos]  # (rows, combos, m)
            ids = lut[vals @ powers]  # (rows, combos)
            hit = np.zeros((part.shape[0], npats), dtype=bool)
            hit[np.arange(part.shape[0])[:, None], ids] = True
            containing[n] += hit.sum(axis=0)

    table: dict[Pattern, tuple[int, ...]] = {}
    for i, p in enumerate(pats):
        table[p] = tuple(
            catalan(n) - int(containing[n, i]) for n in range(horizon + 1)
        )
    return table


def wilf_classify(
    pattern_length: int, horizon: int, *, max_length: int = MAX_LENGTH
) -> WilfClassReport:
    """Group all patterns of one length into classes with identical count
    vectors up to the horizon, ordered by lexicographic representative.
    """
    table = pattern_avoidance_table(pattern_length, horizon, max_length=max_length)
    groups: dict[tuple[int, ...], list[Pattern]] = {}
    for pat, counts in table.items():
        groups.setdefault(counts, []).append(pat)
    classes = []
    for counts, members in groups.items():
        members.sort(key=lambda p: p.letters)
        classes.append(
            WilfClass(
                representative=members[0],
                members=tuple(members),
                counts=counts,
            )
        )
    classes.sort(key=lambda cls: cls.representative.letters)
    return WilfClassReport(
        pattern_length=pattern_length, horizon=horizon, classes=tuple(classes)
    )
