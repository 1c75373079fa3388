"""Wilf classification of the full pattern universe on 021-avoiders.

Patterns are grouped by their avoider count vectors up to a finite
horizon, so the report always says "equivalent up to N", never "proven
equivalent".  Each pattern's count vector comes from count_avoiders,
whose layer-by-layer count over a finitely labelled generating tree
makes one count per pattern cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import _check_length
from .patterns import (
    Pattern,
    PatternSet,
    all_patterns,
    catalan,
    count_avoiders,
    normalize_pattern,
)

#: Longest pattern length wilf_classify accepts.  The cost is one count
#: per pattern: length 6 (4,683 patterns) takes about 13 s at horizon 24
#: on a 2-core Xeon, and lengths 7 and 8 have 47,293 and 545,835 patterns.
MAX_PATTERN_LENGTH = 6


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
    pattern_length: int, horizon: int
) -> dict[Pattern, tuple[int, ...]]:
    """Count vector of {021, tau}-avoiders for every normalized pattern
    tau of the given length, one count per pattern.

    Both limits are checked before all_patterns runs, which at length 12
    would build 28,091,567,953 patterns.
    """
    _check_length(horizon)
    if pattern_length > MAX_PATTERN_LENGTH:
        raise ValueError(
            f"pattern length {pattern_length} is too large to classify: "
            f"the length must be at most {MAX_PATTERN_LENGTH}"
        )
    return {
        p: count_avoiders(PatternSet.of("021", p), horizon).counts
        for p in all_patterns(pattern_length)
    }


def wilf_classify(pattern_length: int, horizon: int) -> WilfClassReport:
    """Group all patterns of one length into classes with identical count
    vectors up to the horizon, ordered by lexicographic representative.
    """
    table = pattern_avoidance_table(pattern_length, horizon)
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
