from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, strategies as st

from ascentseq.core import (
    AscentSequence,
    ascent_count,
    ascent_sequences,
    bounded_jump_words,
    format_sequence,
    is_ascent_sequence,
    is_staircase,
    jump_count,
    max_letter,
    parse_sequence,
    pjum,
    staircase_words,
)
from conftest import FISHBURN, naive_is_ascent_sequence


def s(text):
    return tuple(int(c) for c in text)


class TestValidation:
    def test_known_valid(self):
        assert is_ascent_sequence(s("0101243503"))

    def test_known_invalid(self):
        # the final 5 exceeds asc(010012) + 1 = 4
        assert not is_ascent_sequence(s("0100125"))

    def test_base_cases(self):
        assert is_ascent_sequence(())
        assert is_ascent_sequence((0,))
        assert not is_ascent_sequence((1,))
        assert not is_ascent_sequence((0, -1))

    @given(st.lists(st.integers(-1, 6), max_size=12))
    def test_matches_quadratic_recheck(self, word):
        assert is_ascent_sequence(word) == naive_is_ascent_sequence(word)

    def test_letters_below_length(self):
        for n in range(1, 9):
            for w in ascent_sequences(n):
                assert max(w) < n


class TestStatistics:
    def test_ascent_count(self):
        assert ascent_count(s("010012")) == 3
        assert ascent_count(s("000")) == 0
        assert ascent_count(s("012")) == 2

    @given(st.lists(st.integers(0, 6), max_size=12), st.integers(0, 7))
    def test_appending_raises_asc_by_at_most_one(self, word, letter):
        before = ascent_count(word)
        after = ascent_count(word + [letter])
        assert before <= after <= before + 1

    def test_pjum(self):
        assert pjum((0,)) == 0
        assert pjum((0, 1)) == 0
        assert pjum(s("010102")) == 1

    def test_pjum_rejects_empty(self):
        with pytest.raises(ValueError):
            pjum(())

    def test_pjum_nonnegative_exhaustively(self):
        for n in range(1, 9):
            assert all(pjum(w) >= 0 for w in ascent_sequences(n))

    def test_max_letter_empty_convention(self):
        assert max_letter(()) == 0

    def test_jump_count(self):
        assert jump_count(s("0013")) == 1
        assert jump_count((0,)) == 0
        assert jump_count(s("0124")) == 1
        assert jump_count(s("0125")) == 2

    def test_jump_count_rejects_bad_input(self):
        with pytest.raises(ValueError):
            jump_count(())
        with pytest.raises(ValueError):
            jump_count((0, 2, 1))

    def test_is_staircase(self):
        assert is_staircase(s("2233345"))
        assert not is_staircase(s("0013"))
        assert is_staircase((7,))
        assert is_staircase(())


class TestEnumeration:
    def test_length_three(self):
        got = list(ascent_sequences(3))
        assert got == [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2),
        ]

    def test_length_zero(self):
        assert list(ascent_sequences(0)) == [()]

    def test_counts_match_known_values(self):
        for n in range(0, 7):
            assert sum(1 for _ in ascent_sequences(n)) == FISHBURN[n]

    def test_lexicographic_order(self):
        for n in (4, 6):
            got = list(ascent_sequences(n))
            assert got == sorted(got)

    def test_all_valid_and_distinct(self):
        got = list(ascent_sequences(7))
        assert len(set(got)) == len(got)
        assert all(is_ascent_sequence(w) for w in got)

    def test_length_cap(self):
        with pytest.raises(ValueError):
            next(ascent_sequences(25))
        with pytest.raises(ValueError):
            next(ascent_sequences(-1))

    def test_bounded_jump_words(self):
        assert list(bounded_jump_words(2, 1)) == [(0, 0), (0, 1), (0, 2)]
        for w in bounded_jump_words(7, 2):
            assert w[0] == 0
            assert jump_count(w) <= 2

    def test_staircase_words(self):
        got = list(staircase_words(3, 0))
        assert got == [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2)]
        assert all(is_staircase(w) for w in staircase_words(6, 2))


class TestEnumerationOrder:
    """Each enumerator, in order, against a filtered brute product."""

    @pytest.mark.parametrize("n", range(0, 7))
    def test_ascent_sequences(self, n):
        brute = [w for w in product(range(n), repeat=n) if naive_is_ascent_sequence(w)]
        assert list(ascent_sequences(n)) == brute

    @pytest.mark.parametrize("max_jumps", range(0, 4))
    @pytest.mark.parametrize("n", range(1, 8))
    def test_bounded_jump_words(self, n, max_jumps):
        # combinations_with_replacement lists the nondecreasing words in
        # lexicographic order.
        brute = [
            w for w in combinations_with_replacement(range(n + max_jumps), n)
            if w[0] == 0 and jump_count(w) <= max_jumps
        ]
        assert list(bounded_jump_words(n, max_jumps)) == brute

    @pytest.mark.parametrize("start", [0, 2])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_staircase_words(self, n, start):
        brute = [
            w for w in combinations_with_replacement(range(start, start + n), n)
            if w[0] == start and is_staircase(w)
        ]
        assert list(staircase_words(n, start)) == brute

    def test_length_zero_words(self):
        assert list(bounded_jump_words(0, 2)) == []
        assert list(staircase_words(0)) == []


class TestSerialization:
    def test_digit_form(self):
        assert parse_sequence("010012") == (0, 1, 0, 0, 1, 2)
        assert format_sequence((0, 1, 0, 0, 1, 2)) == "010012"

    def test_comma_form(self):
        assert parse_sequence("0,1,10,2") == (0, 1, 10, 2)
        assert format_sequence((0, 1, 10, 2)) == "0,1,10,2"

    def test_empty(self):
        assert parse_sequence("") == ()
        assert format_sequence(()) == ""

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_sequence("01a2")

    @given(st.lists(st.integers(0, 30), max_size=10))
    def test_roundtrip(self, letters):
        # a lone letter >= 10 is the one collision between the two forms;
        # it cannot occur for ascent sequences, which start at 0
        if len(letters) == 1 and letters[0] > 9:
            return
        word = tuple(letters)
        assert parse_sequence(format_sequence(word)) == word


class TestAscentSequenceType:
    def test_cached_stats(self):
        seq = AscentSequence.parse("010102")
        assert (seq.asc, seq.max_letter, seq.pjum) == (3, 2, 1)
        assert len(seq) == 6
        assert str(seq) == "010102"

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            AscentSequence((0, 2))
