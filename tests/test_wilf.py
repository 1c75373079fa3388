import pytest

from ascentseq.patterns import all_patterns, catalan
from ascentseq.series import gf_catalog
from ascentseq import wilf
from ascentseq.wilf import pattern_avoidance_table, wilf_classify
from conftest import dfs_counts


class TestAvoidanceTable:
    def test_matches_per_pattern_search(self):
        table = pattern_avoidance_table(4, 8)
        for name in ("0010", "1001", "1200", "0000", "2013", "3210"):
            pat = next(p for p in table if str(p) == name)
            assert table[pat] == dfs_counts(f"021,{name}", 8)

    def test_covers_universe(self):
        table = pattern_avoidance_table(4, 6)
        assert len(table) == 75

    def test_length_three(self):
        table = pattern_avoidance_table(3, 7)
        assert len(table) == 13
        # 021 itself: the avoider set is all of B_n
        pat = next(p for p in table if str(p) == "021")
        assert table[pat] == tuple(catalan(n) for n in range(8))

    @pytest.mark.parametrize(
        "length, horizon, match",
        [(12, 1, "too large"), (9, 0, "too large"), (20, -1, "non-negative"),
         (4, 25, "exceeds cap"), (7, 5, "too large"), (8, 3, "too large")],
    )
    def test_limits_are_checked_before_any_pattern_is_built(
        self, monkeypatch, length, horizon, match
    ):
        def unreachable(length):
            raise AssertionError("all_patterns ran")

        monkeypatch.setattr(wilf, "all_patterns", unreachable)
        with pytest.raises(ValueError, match=match):
            pattern_avoidance_table(length, horizon)

    def test_longest_length_is_allowed_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(wilf, "all_patterns", lambda length: [])
        assert pattern_avoidance_table(6, 24) == {}


class TestClassification:
    def test_horizon_six_merges_1000_and_1200(self):
        report = wilf_classify(4, 6)
        members = {str(p) for p in report.class_of("1000").members}
        assert {"1000", "1100", "1200", "1220", "1230"} <= members

    def test_horizon_seven_separates_them(self):
        report = wilf_classify(4, 7)
        a = report.class_of("1000")
        b = report.class_of("1200")
        assert {str(p) for p in a.members} == {"1000", "1100"}
        assert {str(p) for p in b.members} == {"1200", "1220", "1230"}
        assert a.counts[7] == 362
        assert b.counts[7] == 364

    def test_1023_vs_1102_separate_by_six(self):
        report = wilf_classify(4, 6)
        a = report.class_of("1023").counts
        b = report.class_of("1102").counts
        assert a[:6] == b[:6]
        assert a[6] != b[6]

    def test_class_vectors_match_catalog(self):
        report = wilf_classify(4, 8)
        for cls in report.classes:
            for pat in cls.members:
                assert gf_catalog(str(pat), 8).int_coeffs() == cls.counts

    def test_classes_partition_universe(self):
        report = wilf_classify(4, 7)
        seen = [p.letters for cls in report.classes for p in cls.members]
        assert sorted(seen) == sorted(p.letters for p in all_patterns(4))
        assert len(seen) == len(set(seen))

    def test_report_ordering_is_deterministic(self):
        a = wilf_classify(4, 7)
        b = wilf_classify(4, 7)
        assert a.to_json_dict() == b.to_json_dict()
        reps = [cls.representative.letters for cls in a.classes]
        assert reps == sorted(reps)

    def test_unknown_pattern_lookup(self):
        report = wilf_classify(4, 6)
        with pytest.raises(KeyError):
            report.class_of("00000")


class TestRendering:
    def test_markdown_shape(self):
        text = wilf_classify(4, 6).to_markdown()
        lines = text.splitlines()
        assert lines[0].startswith("| class |")
        assert any("(Catalan)" in line for line in lines)

    def test_json_flags_horizon_limited_equivalence(self):
        data = wilf_classify(4, 6).to_json_dict()
        assert data["equivalence"] == "up to horizon only"
        assert data["horizon"] == 6
        assert sum(len(c["members"]) for c in data["classes"]) == 75
