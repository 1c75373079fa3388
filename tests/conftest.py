"""Shared test oracles.  Quadratic revalidation, brute-force subsequence
matching and filter-after-generate enumeration are deliberately
independent of the library's own machinery; dfs_counts is the library's
plain pruned walk, without the layer DP that count_avoiders uses for
021-sets.
"""

from __future__ import annotations

from itertools import combinations

import pytest


def naive_is_ascent_sequence(word) -> bool:
    """Quadratic re-check of the ascent condition from scratch."""
    if not word:
        return True
    if word[0] != 0:
        return False
    for i in range(1, len(word)):
        prefix = word[:i]
        asc = sum(1 for a, b in zip(prefix, prefix[1:]) if a < b)
        if word[i] < 0 or word[i] > asc + 1:
            return False
    return True


def naive_contains(word, pattern) -> bool:
    """Check order-isomorphic subsequence containment by trying every
    index subset."""
    n, m = len(word), len(pattern)
    if m > n:
        return False
    for idx in combinations(range(n), m):
        vals = [word[i] for i in idx]
        if _same_relations(vals, pattern):
            return True
    return False


def naive_occurrences(word, pattern) -> int:
    n, m = len(word), len(pattern)
    return sum(
        1
        for idx in combinations(range(n), m)
        if _same_relations([word[i] for i in idx], list(pattern))
    )


def _same_relations(a, b) -> bool:
    return all(
        (a[i] < a[j]) == (b[i] < b[j]) and (a[i] == a[j]) == (b[i] == b[j])
        for i in range(len(a))
        for j in range(i + 1, len(a))
    )


def brute_force_avoiders(n, pattern_words):
    """Filter the full set of ascent sequences: the oracle the pruned
    search is measured against."""
    from ascentseq.core import ascent_sequences

    pats = [tuple(int(c) for c in p) if isinstance(p, str) else tuple(p)
            for p in pattern_words]
    out = []
    for w in ascent_sequences(n):
        if not any(naive_contains(w, p) for p in pats):
            out.append(w)
    return out


def dfs_counts(patterns, n):
    """Avoider counts b_0..b_n from the pruned depth-first walk: the empty
    word, plus each node's count of extending letters at the next
    length."""
    from ascentseq.patterns import _coerce_patterns, _walk

    counts = [1] + [0] * n
    for depth, _, letters in _walk(n, _coerce_patterns(patterns)):
        counts[depth + 1] += len(letters)
    return tuple(counts)


FISHBURN = [1, 1, 2, 5, 15, 53, 217, 1014, 5335, 31240, 201608]

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012,
           742900, 2674440]


@pytest.fixture(scope="session")
def table1_rows():
    """The expansions printed for the nine nontrivial classes, through
    x^11."""
    return {
        ("0010", "0100", "0110", "0123"): (
            1, 1, 2, 5, 13, 34, 88, 224, 560, 1376, 3328, 7936),
        ("0011", "0112"): (
            1, 1, 2, 5, 13, 33, 81, 193, 449, 1025, 2305, 5121),
        ("0012", "0102"): (
            1, 1, 2, 5, 13, 32, 74, 163, 347, 722, 1480, 3005),
        ("0101", "0120", "0122"): (
            1, 1, 2, 5, 13, 34, 89, 233, 610, 1597, 4181, 10946),
        ("1000", "1100"): (
            1, 1, 2, 5, 14, 41, 122, 362, 1060, 3048, 8592, 23744),
        ("1001", "1011", "1101"): (
            1, 1, 2, 5, 14, 41, 123, 376, 1168, 3678, 11716, 37688),
        ("1010", "1120"): (
            1, 1, 2, 5, 14, 41, 121, 354, 1021, 2901, 8130, 22513),
        ("1020", "1022"): (
            1, 1, 2, 5, 14, 41, 120, 344, 961, 2620, 6996, 18369),
        ("1200", "1220", "1230"): (
            1, 1, 2, 5, 14, 41, 122, 364, 1082, 3195, 9362, 27219),
    }
