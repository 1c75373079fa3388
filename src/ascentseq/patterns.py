"""Pattern containment with {<,>,=} order-isomorphism semantics, and
pruned exhaustive enumeration of pattern-avoiding ascent sequences.

A pattern is a word using every letter of {0,...,l} for some l.  A word
contains a pattern when some index subsequence matches it under all
pairwise <, > and = comparisons; otherwise the word avoids it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import Word, _check_length, format_sequence, parse_sequence

PATTERN_021 = (0, 2, 1)


@dataclass(frozen=True)
class Pattern:
    """A normalized pattern: letters cover {0,...,l} exactly for some l."""

    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        if not self.letters:
            raise ValueError("patterns are non-empty")
        top = max(self.letters)
        if set(self.letters) != set(range(top + 1)):
            raise ValueError(
                f"pattern letters must cover 0..{top}: {list(self.letters)!r}"
            )

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __str__(self) -> str:
        return format_sequence(self.letters)


def normalize_pattern(word: Word | str) -> Pattern:
    """Relabel a word onto the contiguous alphabet {0..l}, preserving all
    pairwise {<,>,=} relations.  Idempotent on normalized input.
    """
    letters = _as_letters(word)
    if not letters:
        raise ValueError("cannot normalize an empty word")
    rank = {v: i for i, v in enumerate(sorted(set(letters)))}
    return Pattern(tuple(rank[v] for v in letters))


@dataclass(frozen=True)
class PatternSet:
    """An ordered, duplicate-free collection of normalized patterns."""

    patterns: tuple[Pattern, ...]

    def __post_init__(self) -> None:
        pats = tuple(self.patterns)
        if len({p.letters for p in pats}) != len(pats):
            raise ValueError("duplicate patterns after normalization")
        object.__setattr__(self, "patterns", pats)

    @classmethod
    def of(cls, *words: Word | str | Pattern) -> "PatternSet":
        pats = []
        seen = set()
        for w in words:
            p = w if isinstance(w, Pattern) else normalize_pattern(w)
            if p.letters not in seen:
                seen.add(p.letters)
                pats.append(p)
        return cls(tuple(pats))

    @classmethod
    def parse(cls, text: str) -> "PatternSet":
        parts = [part.strip() for part in text.split(",") if part.strip()]
        if not parts:
            raise ValueError(f"no patterns in {text!r}")
        return cls.of(*parts)

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self.patterns)

    def __len__(self) -> int:
        return len(self.patterns)

    def __contains__(self, item: Word | str | Pattern) -> bool:
        target = item.letters if isinstance(item, Pattern) else _as_letters(item)
        return any(p.letters == target for p in self.patterns)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.patterns)


def _as_letters(word: Word | str | Pattern) -> tuple[int, ...]:
    if isinstance(word, Pattern):
        return word.letters
    if isinstance(word, str):
        return parse_sequence(word)
    return tuple(word)


class _Matcher:
    """Incremental partial-match tracker for one pattern.

    A state with k matched positions is the tuple of word values bound to
    the distinct letters of pattern[:k], ordered by pattern letter; the
    value tuple is strictly increasing by construction, which makes states
    canonical and cheap to deduplicate.  Appending a word letter extends
    the states whose constraints it satisfies; completes() asks whether
    the letter would finish a full occurrence, using only states built
    from strictly earlier positions.
    """

    __slots__ = ("m", "steps", "levels", "last_seen", "last_values")

    def __init__(self, pattern: Pattern):
        letters = pattern.letters
        self.m = len(letters)
        # steps[k] drives the transition consuming pattern position k:
        # (True, idx)  -> pattern[k] was already bound; the new letter must
        #                 equal state[idx] and the state tuple is unchanged.
        # (False, ins) -> new distinct pattern letter; the new word letter
        #                 must sit strictly between state[ins-1], state[ins].
        steps: list[tuple[bool, int]] = []
        for k in range(self.m):
            prev = sorted(set(letters[:k]))
            t = letters[k]
            if t in prev:
                steps.append((True, prev.index(t)))
            else:
                steps.append((False, bisect.bisect_left(prev, t)))
        self.steps = steps
        self.levels: list[set[tuple[int, ...]]] = [set() for _ in range(self.m)]
        self.last_seen = steps[self.m - 1][0]
        # For a repeated final letter, index the top-level states by the
        # value the final letter must equal: completes() becomes O(1).
        self.last_values: dict[int, int] = {}

    def completes(self, a: int) -> bool:
        if self.m == 1:
            return True
        if self.last_seen:
            return a in self.last_values
        ins = self.steps[self.m - 1][1]
        for state in self.levels[self.m - 1]:
            if (ins == 0 or state[ins - 1] < a) and (
                ins == len(state) or a < state[ins]
            ):
                return True
        return False

    def push(self, a: int) -> list[tuple[int, tuple[int, ...]]]:
        """Register an appended letter; returns an undo token for pop()."""
        added: list[tuple[int, tuple[int, ...]]] = []
        levels = self.levels
        top = self.m - 1
        # High levels first so the new letter is never used twice.
        for k in range(self.m - 2, 0, -1):
            seen, pos = self.steps[k]
            target = levels[k + 1]
            if seen:
                for state in levels[k]:
                    if state[pos] == a and state not in target:
                        target.add(state)
                        added.append((k + 1, state))
            else:
                for state in levels[k]:
                    if (pos == 0 or state[pos - 1] < a) and (
                        pos == len(state) or a < state[pos]
                    ):
                        ns = state[:pos] + (a,) + state[pos:]
                        if ns not in target:
                            target.add(ns)
                            added.append((k + 1, ns))
        if self.m > 1:
            s1 = (a,)
            if s1 not in levels[1]:
                levels[1].add(s1)
                added.append((1, s1))
        if self.last_seen:
            pos = self.steps[top][1]
            for k, state in added:
                if k == top:
                    v = state[pos]
                    self.last_values[v] = self.last_values.get(v, 0) + 1
        return added

    def pop(self, token: list[tuple[int, tuple[int, ...]]]) -> None:
        if self.last_seen:
            pos = self.steps[self.m - 1][1]
            for k, state in token:
                if k == self.m - 1:
                    v = state[pos]
                    c = self.last_values[v] - 1
                    if c:
                        self.last_values[v] = c
                    else:
                        del self.last_values[v]
        for k, state in token:
            self.levels[k].discard(state)


def contains(word: Word, pattern: Pattern | Word | str) -> bool:
    """True iff some subsequence of word is order isomorphic to pattern."""
    pat = pattern if isinstance(pattern, Pattern) else normalize_pattern(pattern)
    matcher = _Matcher(pat)
    for a in word:
        if matcher.completes(a):
            return True
        matcher.push(a)
    return False


def occurrence_count(word: Word, pattern: Pattern | Word | str) -> int:
    """Number of index subsequences of word order isomorphic to pattern.

    Dynamic program over canonical partial-match states, carrying the
    number of index tuples realizing each state.
    """
    pat = pattern if isinstance(pattern, Pattern) else normalize_pattern(pattern)
    m = len(pat)
    steps = _Matcher(pat).steps
    states: list[dict[tuple[int, ...], int]] = [dict() for _ in range(m)]
    total = 0
    for a in word:
        for k in range(m - 1, 0, -1):
            seen, pos = steps[k]
            for state, count in states[k].items():
                if seen:
                    if state[pos] != a:
                        continue
                    ns = state
                else:
                    if not (
                        (pos == 0 or state[pos - 1] < a)
                        and (pos == len(state) or a < state[pos])
                    ):
                        continue
                    ns = state[:pos] + (a,) + state[pos:]
                if k == m - 1:
                    total += count
                else:
                    states[k + 1][ns] = states[k + 1].get(ns, 0) + count
        if m == 1:
            total += 1
        else:
            states[1][(a,)] = states[1].get((a,), 0) + 1
    return total


def _coerce_patterns(patterns) -> PatternSet:
    if isinstance(patterns, PatternSet):
        return patterns
    if isinstance(patterns, str):
        return PatternSet.parse(patterns)
    return PatternSet.of(*patterns)


def _candidates(native_021: bool, asc: int, lastpos: int) -> Iterable[int]:
    if not native_021 or lastpos <= 1:
        return range(asc + 2)
    if lastpos > asc + 1:
        return (0,)
    return (0, *range(lastpos, asc + 2))


def _walk(n: int, patterns: PatternSet) -> Iterator[tuple[int, list[int]]]:
    """Yield (depth, word) at every avoider prefix of length 0..n, in
    lexicographic preorder; only word[:depth] is meaningful, and the list
    is overwritten as the walk goes on.  A branch is cut as soon as
    extending would complete any pattern (containment is monotone under
    extension).

    When 021 is among the patterns its avoidance is enforced structurally:
    a 021-avoider is exactly an ascent sequence whose positive letters are
    nondecreasing.  That keeps 021 out of the per-letter matcher work.
    """
    rest = [p for p in patterns if p.letters != PATTERN_021]
    native_021 = len(rest) < len(patterns)
    matchers = [_Matcher(p) for p in rest]
    word = [0] * n

    def rec(depth: int, asc: int, lastpos: int) -> Iterator[tuple[int, list[int]]]:
        prev = word[depth - 1] if depth else -1
        for letter in _candidates(native_021, asc, lastpos):
            if any(m.completes(letter) for m in matchers):
                continue
            word[depth] = letter
            yield depth + 1, word
            # Nothing below a leaf reads the matchers, so leaves skip push.
            if depth + 1 < n:
                tokens = [m.push(letter) for m in matchers]
                yield from rec(
                    depth + 1,
                    asc + 1 if letter > prev else asc,
                    letter if letter else lastpos,
                )
                for m, tok in zip(matchers, tokens):
                    m.pop(tok)

    yield 0, word
    # The root has prev = asc = -1, so 0 is its only candidate.
    if n:
        yield from rec(0, -1, 0)


def _layers_021(n: int, patterns: PatternSet) -> Iterator[dict[tuple, list[int]]]:
    """For a set containing 021, yield layers 1..n of a finitely labelled
    generating tree: layer d maps each label to its slack vector, whose
    entry s counts the avoiders of length d at that label with slack s.

    The positive letters of a 021-avoider never decrease, so with the top
    letter L = max(last positive letter, 1) every next letter is 0 (Z), L
    (E) or one of the slack = asc + 1 - L letters above L (U).  A value
    bound in a partial match then acts only as its class: 0, MID inside
    (0, L), or TOP = L.  A label is whether the last letter is 0 plus
    every matcher's levels relabelled onto 0, 1 = MID and 2 = TOP; the
    matchers step through letters 0, 2 and 3 and, after U, 2 -> 1 and
    3 -> 2.  No later letter equals a MID or falls between two of them,
    so merged MIDs never change a transition.  Z keeps the slack, E adds
    1 to it after a 0, and U from slack s reaches every slack 1..s.
    """
    matchers = [_Matcher(p) for p in patterns if p.letters != PATTERN_021]
    slots = [(m, k) for m in matchers for k in range(1, m.m)]
    moves: dict[tuple, tuple] = {}

    def step(letter: int) -> tuple | None:
        if any(m.completes(letter) for m in matchers):
            return None
        tokens = [m.push(letter) for m in matchers]
        shift = letter == 3
        label = (letter == 0, *(
            frozenset(tuple(v - (v > 1) for v in s) for s in m.levels[k])
            if shift else frozenset(m.levels[k])
            for m, k in slots
        ))
        for m, tok in zip(matchers, tokens):
            m.pop(tok)
        return label

    def load(label: tuple) -> None:
        for (m, k), level in zip(slots, label[1:]):
            m.levels[k] = set(level)
        for m in matchers:
            if m.last_seen:
                pos = m.steps[-1][1]
                m.last_values = {}
                for s in m.levels[-1]:
                    m.last_values[s[pos]] = m.last_values.get(s[pos], 0) + 1

    def add(layer: dict, label: tuple | None, counts: list[int]) -> None:
        if label is not None:
            acc = layer.get(label)
            layer[label] = counts if acc is None else [
                a + b for a, b in zip(acc, counts)
            ]

    # Layer d holds slack vectors of length d: slack is at most d - 1.
    root = step(0)
    layer = {} if root is None else {root: [1]}
    for d in range(1, n + 1):
        if d > 1:
            nxt: dict[tuple, list[int]] = {}
            for label, vec in layer.items():
                if label not in moves:
                    load(label)
                    moves[label] = (step(0), step(2), step(3))
                z, e, u = moves[label]
                add(nxt, z, vec + [0])
                add(nxt, e, [0, *vec] if label[0] else vec + [0])
                suffix, run = [0] * d, 0
                for s in range(d - 2, 0, -1):
                    run += vec[s]
                    suffix[s] = run
                if run:
                    add(nxt, u, suffix)
            layer = nxt
        yield layer


def avoiders(
    n: int, patterns: PatternSet | Iterable[Word | str] | str
) -> Iterator[tuple[int, ...]]:
    """Yield the length-n ascent sequences avoiding every given pattern,
    in lexicographic order, one at a time as the walk reaches them.
    """
    _check_length(n)
    for depth, word in _walk(n, _coerce_patterns(patterns)):
        if depth == n:
            yield tuple(word)


@dataclass(frozen=True)
class CountVector:
    """Avoider counts b_0..b_N for one pattern set."""

    pattern_set: PatternSet
    horizon: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.horizon + 1:
            raise ValueError("counts must cover 0..horizon")
        if self.counts[0] != 1:
            raise ValueError("the empty sequence avoids everything")

    def to_json_dict(self) -> dict:
        return {
            "patterns": [str(p) for p in self.pattern_set],
            "horizon": self.horizon,
            "counts": list(self.counts),
        }

    def to_bfile(self) -> str:
        return "".join(f"{n} {c}\n" for n, c in enumerate(self.counts))


def count_avoiders(
    patterns: PatternSet | Iterable[Word | str] | str, horizon: int
) -> CountVector:
    """Count avoiders of every length up to the horizon: a layer-by-layer
    sum over a finitely labelled generating tree when 021 is in the set
    (_layers_021), else one pruned depth-first sweep in which every
    avoider is a node.
    """
    _check_length(horizon)
    pats = _coerce_patterns(patterns)
    if PATTERN_021 in pats:
        layers = _layers_021(horizon, pats)
        counts = (1, *(sum(map(sum, layer.values())) for layer in layers))
        return CountVector(pats, horizon, counts)
    counts = [0] * (horizon + 1)
    for depth, _ in _walk(horizon, pats):
        counts[depth] += 1
    return CountVector(pats, horizon, tuple(counts))


def all_patterns(length: int) -> list[Pattern]:
    """All normalized patterns of the given length, lexicographically."""
    if length < 1:
        raise ValueError("pattern length must be positive")
    out: list[Pattern] = []
    word: list[int] = []
    used = [False] * length

    def extend(top: int, missing: int) -> None:
        slots = length - len(word)
        if slots == 0:
            if missing == 0:
                out.append(Pattern(tuple(word)))
            return
        for letter in range(length):
            # A letter above top opens a gap of unseen values below it; a
            # previously unseen letter at or below top closes one.
            if letter > top:
                new_missing = missing + (letter - top - 1)
            elif not used[letter]:
                new_missing = missing - 1
            else:
                new_missing = missing
            if new_missing > slots - 1:
                continue
            was_used = used[letter]
            used[letter] = True
            word.append(letter)
            extend(max(top, letter), new_missing)
            word.pop()
            used[letter] = was_used

    extend(-1, 0)
    return out


def catalan(n: int) -> int:
    """The n-th Catalan number, which counts 021-avoiders of length n."""
    from math import comb

    return comb(2 * n, n) // (n + 1)
