"""Ascent sequences: validation, statistics and exhaustive generation.

An ascent sequence is a word a_1...a_n of non-negative integers with
a_1 = 0 and a_i <= asc(a_1...a_{i-1}) + 1 for every i > 1, where asc
counts strict rises w_i < w_{i+1}.  Everything downstream (avoidance
counting, bijections, distribution tables) builds on the primitives here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

#: The one length cap, enforced by _check_length; the CLI checks catalog
#: orders against it too.
MAX_LENGTH = 24

Word = Sequence[int]


def ascent_count(word: Word) -> int:
    """Number of indices i with word[i] < word[i+1]."""
    return sum(1 for a, b in zip(word, word[1:]) if a < b)


def max_letter(word: Word) -> int:
    """Largest letter, with the convention max() = 0 for the empty word."""
    return max(word, default=0)


def is_ascent_sequence(word: Word) -> bool:
    """True iff word is empty, or starts with 0 and respects the ascent
    bound at every position.  Total: any integer sequence is accepted as
    input, including ones with negative entries (which simply fail).
    """
    if not word:
        return True
    if word[0] != 0:
        return False
    asc = 0
    prev = 0
    for letter in word[1:]:
        if letter < 0 or letter > asc + 1:
            return False
        if prev < letter:
            asc += 1
        prev = letter
    return True


def pjum(word: Word) -> int:
    """asc(word) - max(word), the potential-jump statistic.

    Non-negative for every valid non-empty ascent sequence.  The empty
    sequence is rejected: the statistic is undefined there.
    """
    if not word:
        raise ValueError("pjum is undefined for the empty sequence")
    return ascent_count(word) - max(word)


def jump_count(word: Word) -> int:
    """Number of values strictly inside [min, max] missing from a
    nondecreasing word.  Rejects empty or decreasing input.
    """
    if not word:
        raise ValueError("jump count is undefined for the empty word")
    jumps = 0
    for a, b in zip(word, word[1:]):
        if b < a:
            raise ValueError(f"word is not nondecreasing: {list(word)!r}")
        if b > a + 1:
            jumps += b - a - 1
    return jumps


def is_staircase(word: Word) -> bool:
    """True iff every step repeats or increments the previous letter."""
    return all(b == a or b == a + 1 for a, b in zip(word, word[1:]))


@dataclass(frozen=True)
class AscentSequence:
    """A validated ascent sequence with cached statistics."""

    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        if not is_ascent_sequence(self.letters):
            raise ValueError(f"not an ascent sequence: {list(self.letters)!r}")

    @classmethod
    def parse(cls, text: str) -> "AscentSequence":
        return cls(parse_sequence(text))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    @cached_property
    def asc(self) -> int:
        return ascent_count(self.letters)

    @cached_property
    def max_letter(self) -> int:
        return max_letter(self.letters)

    @cached_property
    def pjum(self) -> int:
        return pjum(self.letters)

    def __str__(self) -> str:
        return format_sequence(self.letters)


def parse_sequence(text: str) -> tuple[int, ...]:
    """Parse either serialized form: digit string ("010012") or
    comma-separated integers ("0,1,10,2").
    """
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        return tuple(int(part) for part in text.split(","))
    if not text.isdigit():
        raise ValueError(f"not a sequence literal: {text!r}")
    return tuple(int(ch) for ch in text)


def format_sequence(word: Word) -> str:
    """Digit string when all letters are single digits, else comma form.

    The two forms collide only on one-letter words with a letter above 9,
    which are not valid ascent sequences (those start at 0).
    """
    if word and any(a > 9 for a in word):
        return ",".join(str(a) for a in word)
    return "".join(str(a) for a in word)


def canonical_sequence(word: Word) -> str:
    """The comma form, used wherever sequences land in JSON."""
    return ",".join(str(a) for a in word)


def _check_length(n: int, name: str = "length") -> None:
    """Reject a length, or a jump bound, outside 0..MAX_LENGTH."""
    if n < 0:
        raise ValueError(f"{name} must be non-negative")
    if n > MAX_LENGTH:
        raise ValueError(f"{name} {n} exceeds cap {MAX_LENGTH}")


def _grow(n: int, root, moves) -> Iterator[tuple]:
    """Yield every length-n word that moves allows, depth first, with the
    letters after each prefix in the order moves lists them.

    moves(state) returns the (letter, next_state) pairs open after a
    prefix; root is the state before the first letter.  The loop runs
    over an explicit stack of move iterators, one per placed letter, the
    same shape as patterns._walk.  No length cap is checked here: each
    public caller checks its own length, and staircase_tuples grows a
    word of r + 1 slots.
    """
    if not n:
        yield ()
        return
    word = [None] * n
    stack = [iter(moves(root))]
    while stack:
        depth = len(stack) - 1
        for letter, state in stack[-1]:
            word[depth] = letter
            if depth + 1 == n:
                yield tuple(word)
            else:
                stack.append(iter(moves(state)))
                break
        else:
            stack.pop()


def ascent_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every ascent sequence of length n, in lexicographic order.

    Lazy: nothing is materialized, so counting A_14 needs no storage.
    """
    _check_length(n)

    def moves(state):
        prev, asc = state
        return [(a, (a, asc + 1 if a > prev else asc)) for a in range(asc + 2)]

    # The root has prev = asc = -1, so 0 is the only first letter.
    yield from _grow(n, (-1, -1), moves)


def bounded_jump_words(n: int, max_jumps: int) -> Iterator[tuple[int, ...]]:
    """Yield the nondecreasing length-n words starting at 0 with at most
    max_jumps missing values, in lexicographic order.
    """
    _check_length(n)
    _check_length(max_jumps, "max_jumps")
    if n == 0:
        return

    def moves(state):
        if state is None:
            return [(0, (0, max_jumps))]
        last, budget = state
        return [
            (a, (a, budget - max(0, a - last - 1)))
            for a in range(last, last + budget + 2)
        ]

    yield from _grow(n, None, moves)


def staircase_words(n: int, start: int = 0) -> Iterator[tuple[int, ...]]:
    """Yield the 2^(n-1) staircase words of length n with first letter
    start, in lexicographic order.
    """
    _check_length(n)
    if n == 0:
        return

    def moves(last):
        if last is None:
            return [(start, start)]
        return [(last, last), (last + 1, last + 1)]

    yield from _grow(n, None, moves)
