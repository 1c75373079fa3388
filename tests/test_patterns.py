import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ascentseq.core import ascent_sequences
from ascentseq.patterns import (
    Pattern,
    PatternSet,
    _Matcher,
    _walk,
    all_patterns,
    avoiders,
    catalan,
    contains,
    count_avoiders,
    _layers_021,
    normalize_pattern,
    occurrence_count,
)
from conftest import (
    CATALAN,
    brute_force_avoiders,
    dfs_counts,
    naive_contains,
    naive_occurrences,
)

words = st.lists(st.integers(0, 5), max_size=11)
pattern_words = st.lists(st.integers(0, 3), min_size=1, max_size=4)


class TestNormalization:
    @pytest.mark.parametrize(
        "raw,expected",
        [("021", "021"), ("032", "021"), ("1230", "1230"), ("132", "021"),
         ("575", "010"), ("00", "00"), ("90", "10")],
    )
    def test_examples(self, raw, expected):
        assert str(normalize_pattern(raw)) == expected

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            normalize_pattern(())

    def test_pattern_type_rejects_gaps(self):
        with pytest.raises(ValueError):
            Pattern((0, 2))

    @given(pattern_words)
    def test_idempotent(self, raw):
        once = normalize_pattern(raw)
        assert normalize_pattern(once.letters) == once

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=6))
    def test_preserves_relations(self, raw):
        out = normalize_pattern(raw).letters
        for i in range(len(raw)):
            for j in range(len(raw)):
                assert (raw[i] < raw[j]) == (out[i] < out[j])
                assert (raw[i] == raw[j]) == (out[i] == out[j])


class TestContainment:
    def test_known_occurrences(self):
        w = (0, 1, 0, 1, 3, 1, 0, 2, 4, 1, 2)
        assert contains(w, "100")
        assert occurrence_count(w, "100") == 3
        assert not contains(w, "1230")

    def test_no_ascent(self):
        assert not contains((0, 0, 0), "01")

    def test_equal_letter_multiplicities(self):
        assert occurrence_count((0, 0, 0, 0), "0000") == 1
        assert occurrence_count((0, 0, 0, 0, 0), "0000") == 5

    def test_strict_equality_semantics(self):
        # pattern letters equal <=> word letters equal
        assert not contains((0, 1, 2), "011")
        assert contains((0, 1, 1), "011")

    @given(words, pattern_words)
    def test_against_naive(self, word, rawpat):
        pat = normalize_pattern(rawpat)
        assert contains(word, pat) == naive_contains(word, pat.letters)

    @given(words, pattern_words)
    def test_occurrences_against_naive(self, word, rawpat):
        pat = normalize_pattern(rawpat)
        assert occurrence_count(word, pat) == naive_occurrences(word, pat.letters)

    @given(words, pattern_words)
    def test_contains_iff_positive_count(self, word, rawpat):
        pat = normalize_pattern(rawpat)
        assert contains(word, pat) == (occurrence_count(word, pat) > 0)

    @given(words, pattern_words, st.integers(0, 6))
    def test_monotone_under_extension(self, word, rawpat, letter):
        pat = normalize_pattern(rawpat)
        if contains(word, pat):
            assert contains(word + [letter], pat)


class TestAvoiderEnumeration:
    def test_catalan_at_four(self):
        got = list(avoiders(4, "021"))
        assert len(got) == 14
        assert got == sorted(got)

    def test_excluding_0000_at_four(self):
        assert sum(1 for _ in avoiders(4, "021,0000")) == 13

    def test_0010_at_seven(self):
        assert sum(1 for _ in avoiders(7, "021,0010")) == 224

    def test_length_zero(self):
        assert list(avoiders(0, "021,0010")) == [()]

    @pytest.mark.parametrize(
        "patset",
        ["021", "021,0010", "021,1001", "021,0000", "0011", "0102,0100"],
    )
    def test_pruned_matches_filtered(self, patset):
        names = patset.split(",")
        for n in range(0, 8):
            assert list(avoiders(n, patset)) == brute_force_avoiders(n, names)

    def test_pruned_matches_filtered_deeper(self):
        pats = PatternSet.of("021", "0010")
        expected = [
            w for w in ascent_sequences(10)
            if not any(contains(w, p) for p in pats)
        ]
        assert list(avoiders(10, pats)) == expected

    def test_degenerate_patterns(self):
        # a single-letter pattern sits in every nonempty word
        assert list(avoiders(0, "0")) == [()]
        assert list(avoiders(3, "0")) == []
        # avoiding any ascent leaves only the all-zero sequence
        for n in range(1, 7):
            assert list(avoiders(n, "01")) == [(0,) * n]
        # all-distinct letters force the staircase 012...k
        for n in range(1, 7):
            assert list(avoiders(n, "00")) == [tuple(range(n))]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 4), min_size=1, max_size=5).filter(
                lambda w: normalize_pattern(w).letters != (0, 2, 1)
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_walk_without_021_matches_filter(self, raw):
        pats = PatternSet.of(*raw)
        counts = count_avoiders(pats, 7).counts
        names = [p.letters for p in pats]
        for n in range(8):
            expected = brute_force_avoiders(n, names)
            assert list(avoiders(n, pats)) == expected
            assert counts[n] == len(expected)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 4), min_size=1, max_size=5),
            max_size=2,
        )
    )
    def test_walk_with_021_matches_filter(self, raw):
        # 021 in the set takes _candidates' native branch, not a matcher.
        pats = PatternSet.of("021", *raw)
        counts = count_avoiders(pats, 7).counts
        assert counts == dfs_counts(pats, 7)
        names = [p.letters for p in pats]
        for n in range(8):
            expected = brute_force_avoiders(n, names)
            assert list(avoiders(n, pats)) == expected
            assert counts[n] == len(expected)

    def test_streams_one_word_at_a_time(self):
        # Collecting the 208,012 words first peaks at about 30 MB.
        tracemalloc.start()
        try:
            for _ in avoiders(12, "021"):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestWalk:
    """_walk visits each avoider shorter than n once, with the letters
    that extend it; the avoiders of length n are never nodes."""

    @staticmethod
    def nodes(n, patset):
        return [
            (depth, tuple(word[:depth]), list(letters))
            for depth, word, letters in _walk(n, PatternSet.parse(patset))
        ]

    @pytest.mark.parametrize(
        "patset",
        ["021", "021,1001", "1001", "0000", "0102,0100", "00", "0", "021,0"],
    )
    @pytest.mark.parametrize("n", [0, 1, 2, 6])
    def test_nodes_are_the_shorter_avoiders(self, patset, n):
        names = patset.split(",")
        nodes = self.nodes(n, patset)
        assert len(nodes) == sum(
            len(brute_force_avoiders(d, names)) for d in range(n)
        )
        for d in range(n):
            at_d = [(word, letters) for depth, word, letters in nodes
                    if depth == d]
            assert [w for w, _ in at_d] == brute_force_avoiders(d, names)
            assert [w + (c,) for w, letters in at_d for c in letters] == (
                brute_force_avoiders(d + 1, names)
            )

    def test_count_pushes_no_leaf(self, monkeypatch):
        # An avoider of length n is never a node, so only the nodes of
        # length 1..n-1 are pushed: b_1 + ... + b_(n-1) pushes.
        pushes = 0
        push = _Matcher.push

        def counting_push(self, a):
            nonlocal pushes
            pushes += 1
            return push(self, a)

        monkeypatch.setattr(_Matcher, "push", counting_push)
        counts = count_avoiders("1001", 9).counts
        assert pushes == sum(counts[1:9])


class TestCountVector:
    def test_1001_row(self):
        cv = count_avoiders("021,1001", 8)
        assert cv.counts == (1, 1, 2, 5, 14, 41, 123, 376, 1168)

    def test_1010_row(self):
        cv = count_avoiders("021,1010", 8)
        assert cv.counts == (1, 1, 2, 5, 14, 41, 121, 354, 1021)

    def test_catalan_baseline(self):
        cv = count_avoiders("021", 6)
        assert cv.counts == (1, 1, 2, 5, 14, 42, 132)

    def test_bounded_by_catalan(self):
        for pats in ("021,0010", "021,1200"):
            cv = count_avoiders(pats, 9)
            assert all(c <= catalan(n) for n, c in enumerate(cv.counts))

    def test_out_of_order_positives_impose_nothing(self):
        cv = count_avoiders("021,2013", 9)
        assert cv.counts == tuple(CATALAN[:10])

    @pytest.mark.parametrize(
        "patset",
        ["021", "021,0010", "021,1001", "021,0000", "0011", "0102,0100",
         "0", "01", "00", "021,01230"],
    )
    def test_counts_match_filtered(self, patset):
        counts = count_avoiders(patset, 7).counts
        names = patset.split(",")
        for n in range(0, 8):
            assert counts[n] == len(brute_force_avoiders(n, names))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 4), min_size=1, max_size=5),
            min_size=1,
            max_size=3,
        ),
        st.integers(0, 8),
    )
    def test_memoized_count_matches_search_and_filter(self, raw, n):
        pats = PatternSet.of("021", *raw)
        # Searched deeper than the filter can afford: a memo key that
        # merges too much miscounts on few of the sets drawn at n <= 8.
        counts = count_avoiders(pats, 10).counts
        assert counts == dfs_counts(pats, 10)
        names = [p.letters for p in pats]
        assert counts[: n + 1] == tuple(
            len(brute_force_avoiders(k, names)) for k in range(n + 1)
        )

    def test_blocked_root_counts_only_the_empty_word(self):
        assert count_avoiders("021,0", 6).counts == (1, 0, 0, 0, 0, 0, 0)

    def test_distinct_letters_leave_one_avoider(self):
        assert count_avoiders("021,00", 12).counts == (1,) * 13

    @pytest.mark.parametrize(
        "patset,b1", [("021", 1), ("021,1001", 1), ("021,0", 0)]
    )
    def test_horizons_zero_and_one(self, patset, b1):
        assert count_avoiders(patset, 0).counts == (1,)
        assert count_avoiders(patset, 1).counts == (1, b1)

    @pytest.mark.parametrize(
        "patset,bound",
        [("021", 2), ("021,1001", 13), ("021,0000", 63), ("021,0010,1200", 59)],
    )
    def test_labels_stay_finite(self, patset, bound):
        # A label key that stops collapsing grows with the length.
        labels = set()
        for layer in _layers_021(40, PatternSet.parse(patset)):
            labels |= layer.keys()
        assert len(labels) <= bound

    def test_serialization(self):
        cv = count_avoiders("021,0010", 4)
        data = cv.to_json_dict()
        assert data == {
            "patterns": ["021", "0010"],
            "horizon": 4,
            "counts": [1, 1, 2, 5, 13],
        }
        json.dumps(data)
        assert cv.to_bfile().splitlines()[4] == "4 13"

    def test_rejects_horizon_beyond_cap(self):
        with pytest.raises(ValueError):
            count_avoiders("021", 25)


class TestPatternUniverse:
    def test_small_universes(self):
        assert [str(p) for p in all_patterns(1)] == ["0"]
        assert [str(p) for p in all_patterns(2)] == ["00", "01", "10"]
        assert len(all_patterns(3)) == 13
        assert len(all_patterns(4)) == 75

    def test_universe_is_normalized_and_sorted(self):
        pats = all_patterns(4)
        assert len({p.letters for p in pats}) == 75
        assert [p.letters for p in pats] == sorted(p.letters for p in pats)
        for p in pats:
            assert normalize_pattern(p.letters) == p

    def test_brute_force_cross_check(self):
        # surjective words counted directly
        from itertools import product

        for m in (3, 4):
            expected = sum(
                1
                for w in product(range(m), repeat=m)
                if set(w) == set(range(max(w) + 1))
            )
            assert len(all_patterns(m)) == expected


class TestPatternSet:
    def test_parse_and_str(self):
        ps = PatternSet.parse("021,0010")
        assert str(ps) == "021,0010"
        assert "021" in ps and "0010" in ps and "1100" not in ps

    def test_deduplicates(self):
        ps = PatternSet.of("021", "032")
        assert len(ps) == 1

    def test_rejects_empty_text(self):
        with pytest.raises(ValueError):
            PatternSet.parse(" , ")
