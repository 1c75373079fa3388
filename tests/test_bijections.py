import dataclasses
import json
from itertools import combinations_with_replacement, product

import pytest

from ascentseq import bijections
from ascentseq.bijections import (
    BIJECTIONS,
    Bijection,
    MapCaseError,
    StaircaseTuple,
    apply_map,
    map_0010_to_0100,
    map_1200_to_1220,
    staircase_tuples,
    tuple_to_sequence,
    verify_bijection,
    verify_tuple_bijection,
)
from ascentseq.core import is_staircase, jump_count
from ascentseq.patterns import PatternSet, avoiders, count_avoiders
from ascentseq.recur import jump_distribution


def s(text):
    return tuple(int(c) for c in text)


class TestApplyMap:
    def test_1100_case_split(self):
        assert apply_map("1100-to-1000", s("011")) == s("010")

    def test_0100_section_swap(self):
        assert apply_map("0010-to-0100", s("01100")) == s("00110")

    def test_1001_unit_rewrite(self):
        assert apply_map("1001-to-1011", s("01011")) == s("01001")
        # the only rewritable unit is 1^2 0 1^1, which maps to itself
        assert apply_map("1001-to-1011", s("0110120")) == s("0110120")

    def test_1101_unit_rewrite(self):
        assert apply_map("1001-to-1101", s("01101")) == s("01001")

    def test_all_zero_fixed_everywhere(self):
        for name in BIJECTIONS:
            for k in range(4):
                word = (0,) * k
                assert apply_map(name, word) == word

    def test_rejects_outside_domain(self):
        with pytest.raises(ValueError):
            apply_map("1100-to-1000", s("011002"))  # contains 1100
        with pytest.raises(ValueError):
            apply_map("0010-to-0100", s("021"))  # contains 021
        with pytest.raises(ValueError):
            apply_map("0010-to-0100", s("10"))  # not an ascent sequence

    def test_unknown_map(self):
        with pytest.raises(KeyError):
            apply_map("0010-to-9999", (0,))

    @pytest.mark.parametrize("name", sorted(BIJECTIONS))
    def test_preserves_length(self, name):
        bij = BIJECTIONS[name]
        for n in range(8):
            for w in avoiders(n, bij.domain):
                assert len(bij.func(w)) == n


class TestVerifyBijection:
    @pytest.mark.parametrize("name", sorted(BIJECTIONS))
    def test_small_lengths(self, name):
        for n in range(8):
            report = verify_bijection(name, n)
            assert report.success, (name, n, report.failures[:3])

    def test_trivial_length_zero(self):
        report = verify_bijection("1200-to-1220", 0)
        assert report.success
        assert report.domain_size == report.codomain_size == 1

    def test_report_shape(self):
        data = verify_bijection("1100-to-1000", 5).to_json_dict()
        assert data["map"] == "1100-to-1000"
        assert data["domain_size"] == data["codomain_size"] == 41
        assert data["success"] is True
        assert data["failures"] == []

    def test_length_cap(self):
        with pytest.raises(ValueError, match="exceeds cap"):
            verify_bijection("1200-to-1220", 25)

    def test_lookup_inverse_composes_to_identity(self):
        # bijectivity certified by injectivity + cardinality lets the
        # exhaustive lookup serve as the inverse
        for n in range(10):
            forward = {}
            for w in avoiders(n, BIJECTIONS["1001-to-1011"].domain):
                forward[w] = apply_map("1001-to-1011", w)
            backward = {img: w for w, img in forward.items()}
            assert len(backward) == len(forward)
            for w, img in forward.items():
                assert backward[img] == w


class TestStaircaseTuples:
    def test_displacement_example(self):
        t = StaircaseTuple(((0,), (0,)))
        assert tuple_to_sequence(t) == (0, 2)
        assert jump_count((0, 2)) == 1

    def test_single_word_identity(self):
        t = StaircaseTuple(((0, 1, 1, 2),))
        assert tuple_to_sequence(t) == (0, 1, 1, 2)

    def test_empty_slots_create_jumps(self):
        t = StaircaseTuple(((0, 1), (), (0, 0)))
        # slot index 2 after max 1: shift = 2 - 0 + 1 + 1 = 4
        assert tuple_to_sequence(t) == (0, 1, 4, 4)
        assert jump_count((0, 1, 4, 4)) == 2

    def test_jumps_equal_largest_nonempty_index(self):
        for t in staircase_tuples(7, 3):
            img = tuple_to_sequence(t)
            expected = max((i for i in range(1, 4) if t.words[i]), default=0)
            assert jump_count(img) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            StaircaseTuple(((), (0,)))
        with pytest.raises(ValueError):
            StaircaseTuple(((1, 2),))
        with pytest.raises(ValueError):
            StaircaseTuple(((0, 2),))

    def test_tuple_counts_match_series(self):
        from ascentseq.series import h_r_series

        for r in range(4):
            hr = h_r_series(r, 8).int_coeffs()
            for n in range(1, 9):
                assert sum(1 for _ in staircase_tuples(n, r)) == hr[n]

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_tuple_order_against_brute_product(self, r):
        from ascentseq.series import h_r_series

        hr = h_r_series(r, 7).int_coeffs()
        # Staircase words from 0 by length, each list in lexicographic
        # order (staircase words are nondecreasing).
        words = [[()]] + [
            [
                w for w in combinations_with_replacement(range(q), q)
                if w[0] == 0 and is_staircase(w)
            ]
            for q in range(1, 8)
        ]
        for n in range(1, 8):
            brute = [
                ws
                for lengths in product(range(n + 1), repeat=r + 1)
                if sum(lengths) == n and lengths[0]
                for ws in product(*(words[q] for q in lengths))
            ]
            brute.sort(key=lambda ws: [(len(w), w) for w in ws])
            got = [t.words for t in staircase_tuples(n, r)]
            assert got == brute
            assert len(got) == hr[n]

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_bijective_onto_bounded_jump_words(self, r):
        for n in range(1, 9):
            report = verify_tuple_bijection(r, n)
            assert report.success, (r, n, report.failures[:3])


# Deliberately broken maps pin every failure branch of the harness.  Each
# breaks exactly one input, the staircase 0,1,...,n-1, and otherwise agrees
# with a real map.


def _staircase(w):
    return tuple(w) == tuple(range(len(w)))


def _collide(w):
    return (0,) * len(w) if _staircase(w) else map_1200_to_1220(w)


def _leave_codomain(w):
    return (0, 1) + (0,) * (len(w) - 2) if _staircase(w) else map_0010_to_0100(w)


def _wrong_length(w):
    return tuple(w) + (0,) if _staircase(w) else map_1200_to_1220(w)


def _not_ascent(w):
    return (0,) + (2,) * (len(w) - 1) if _staircase(w) else map_1200_to_1220(w)


def _no_case(w):
    if _staircase(w):
        raise MapCaseError("no-case", w, "planted gap")
    return map_1200_to_1220(w)


BROKEN = {
    "collide": ("1200", "1220", _collide),
    "leave-codomain": ("0010", "0100", _leave_codomain),
    "wrong-length": ("1200", "1220", _wrong_length),
    "not-ascent": ("1200", "1220", _not_ascent),
    "no-case": ("1200", "1220", _no_case),
}


def _report(map_id, n, sizes, injective, in_codomain, failures):
    domain_size, image_size, codomain_size = sizes
    return {
        "map": map_id,
        "n": n,
        "domain_size": domain_size,
        "image_size": image_size,
        "codomain_size": codomain_size,
        "injective": injective,
        "image_in_codomain": in_codomain,
        "success": False,
        "failures": failures,
    }


def _failure(word, image, problem):
    return {"input": word, "image": image, "problem": problem}


BROKEN_REPORTS = [
    _report("collide", 4, (14, 13, 14), False, True, [
        _failure("0,1,2,3", "0,0,0,0", "image collides with an earlier one")]),
    _report("collide", 5, (41, 40, 41), False, True, [
        _failure("0,1,2,3,4", "0,0,0,0,0", "image collides with an earlier one")]),
    _report("leave-codomain", 4, (13, 12, 13), True, False, [
        _failure("0,1,2,3", "0,1,0,0", "image contains 0100")]),
    _report("leave-codomain", 5, (34, 33, 34), True, False, [
        _failure("0,1,2,3,4", "0,1,0,0,0", "image contains 0100")]),
    _report("wrong-length", 4, (14, 13, 14), True, False, [
        _failure("0,1,2,3", "0,1,2,3,0", "image has wrong length")]),
    _report("wrong-length", 5, (41, 40, 41), True, False, [
        _failure("0,1,2,3,4", "0,1,2,3,4,0", "image has wrong length")]),
    _report("not-ascent", 4, (14, 13, 14), True, False, [
        _failure("0,1,2,3", "0,2,2,2", "image is not an ascent sequence")]),
    _report("not-ascent", 5, (41, 40, 41), True, False, [
        _failure("0,1,2,3,4", "0,2,2,2,2", "image is not an ascent sequence")]),
    _report("no-case", 4, (14, 13, 14), True, False, [
        {"input": "0,1,2,3",
         "problem": "no-case: no case applies to 0123 (planted gap)"}]),
    _report("no-case", 5, (41, 40, 41), True, False, [
        {"input": "0,1,2,3,4",
         "problem": "no-case: no case applies to 01234 (planted gap)"}]),
]


class TestHarnessFailures:
    @pytest.mark.parametrize(
        "expected", BROKEN_REPORTS, ids=[f"{r['map']}-{r['n']}" for r in BROKEN_REPORTS]
    )
    def test_broken_class_map(self, monkeypatch, expected):
        dom, cod, func = BROKEN[expected["map"]]
        monkeypatch.setitem(
            BIJECTIONS,
            expected["map"],
            Bijection(expected["map"], PatternSet.of("021", dom),
                      PatternSet.of("021", cod), func),
        )
        report = verify_bijection(expected["map"], expected["n"])
        # compare serialized forms so the key order is pinned too
        assert json.dumps(report.to_json_dict()) == json.dumps(expected)

    @pytest.mark.parametrize("n,sizes", [(4, (20, 17, 20)), (5, (48, 45, 48))])
    def test_broken_tuple_map(self, monkeypatch, n, sizes):
        real = tuple_to_sequence
        zeros = (0,) * (n - 2)

        def broken(t):
            img = real(t)
            if img == tuple(range(n)):
                return (0,) * n  # collides with the all-zero image
            if img == zeros + (0, 1):
                return zeros + (0, 2)  # one jump where the tuple says none
            if img == zeros + (1, 1):
                return zeros + (1, 0)  # not nondecreasing
            return img

        monkeypatch.setattr(bijections, "tuple_to_sequence", broken)
        expected = _report("tuple-jumps(r=1)", n, sizes, False, False, [
            _failure([list(zeros) + [0, 1], []], ",".join(map(str, zeros + (0, 2))),
                     "jump count differs from the largest nonempty index"),
            _failure([list(zeros) + [1, 1], []], ",".join(map(str, zeros + (1, 0))),
                     "image outside the jump-bounded set"),
            _failure([list(range(n)), []], ",".join("0" * n),
                     "image collides with an earlier one"),
        ])
        report = verify_tuple_bijection(1, n)
        assert json.dumps(report.to_json_dict()) == json.dumps(expected)


def count_shifted_by(delta):
    def count(patterns, horizon):
        cv = count_avoiders(patterns, horizon)
        *head, last = cv.counts
        return dataclasses.replace(cv, counts=(*head, last + delta))

    return count


def jumps_one_too_many(horizon, max_jumps):
    table = jump_distribution(horizon, max_jumps)
    *head, (first, *rest) = table.rows
    return dataclasses.replace(table, rows=(*head, (first + 1, *rest)))


class TestCodomainCrossChecks:
    """The walked or generated codomain must match an independent count."""

    def test_walk_disagreeing_with_the_count_raises(self, monkeypatch):
        monkeypatch.setattr(bijections, "count_avoiders", count_shifted_by(1))
        with pytest.raises(ArithmeticError, match="the count says 42"):
            verify_bijection("1100-to-1000", 5)

    def test_generator_disagreeing_with_the_jump_dp_raises(self, monkeypatch):
        monkeypatch.setattr(bijections, "jump_distribution", jumps_one_too_many)
        with pytest.raises(ArithmeticError, match="the jump DP counts"):
            verify_tuple_bijection(2, 6)

    def test_length_zero_skips_the_jump_dp(self, monkeypatch):
        monkeypatch.setattr(bijections, "jump_distribution", jumps_one_too_many)
        assert verify_tuple_bijection(2, 0).success

    def test_undiagnosable_miss_raises(self, monkeypatch):
        # Walk and count agree on a codomain missing one avoider: its
        # preimage's image is a miss that no diagnosis explains.
        dropped = (0, 0, 0, 0, 0)
        codomain = BIJECTIONS["1100-to-1000"].codomain
        real_avoiders = bijections.avoiders

        def walk_without(n, patterns):
            walk = real_avoiders(n, patterns)
            return (w for w in walk if patterns != codomain or w != dropped)

        monkeypatch.setattr(bijections, "avoiders", walk_without)
        monkeypatch.setattr(bijections, "count_avoiders", count_shifted_by(-1))
        with pytest.raises(ArithmeticError, match="00000 is outside the walked"):
            verify_bijection("1100-to-1000", 5)
