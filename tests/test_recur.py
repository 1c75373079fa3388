import pytest
from hypothesis import given, settings, strategies as st

from ascentseq.patterns import PatternSet, _layers_021, count_avoiders
from ascentseq.recur import (
    b_table_0111,
    closed_form_count,
    f_series_1001,
    jump_distribution,
    jump_distribution_brute,
    pjum_distribution,
    pjum_distribution_brute,
)
from ascentseq.series import gf_catalog, h_r_series


class TestTriangle0111:
    def test_first_rows(self):
        t = b_table_0111(5)
        assert t.row(1) == (1,)
        assert t.row(2) == (2,)
        assert t.row(3) == (5,)
        assert t.row(4) == (12, 1)
        assert t.row(5) == (30, 5)

    def test_row_sums_match_series(self):
        t = b_table_0111(11)
        assert t.row_sums() == gf_catalog("0111", 11).int_coeffs()[1:]

    def test_matches_brute_force(self):
        assert b_table_0111(9).rows == pjum_distribution_brute("021,0111", 9).rows

    def test_rejects_zero_horizon(self):
        with pytest.raises(ValueError):
            b_table_0111(0)


class TestSeries1001:
    def test_length_one_coefficients(self):
        fs = f_series_1001(3, 8)
        assert fs[0][1] == 1
        assert all(f[1] == 0 for f in fs[1:])

    def test_valuation_grows_with_index(self):
        fs = f_series_1001(4, 10)
        for j, f in enumerate(fs):
            assert all(f[n] == 0 for n in range(min(2 * j + 1, 11)))

    def test_sum_recovers_class_series(self):
        order = 11
        fs = f_series_1001((order - 1) // 2, order)
        total = fs[0]
        for f in fs[1:]:
            total = total + f
        coeffs = tuple(int(c) for c in total.coeffs)
        expected = gf_catalog("1001", order).int_coeffs()
        assert coeffs[0] + 1 == expected[0]
        assert coeffs[1:] == expected[1:]

    def test_matches_brute_force_distribution(self):
        horizon = 9
        fs = f_series_1001((horizon - 1) // 2, horizon)
        brute = pjum_distribution_brute("021,1001", horizon)
        for n in range(1, horizon + 1):
            row = [int(f[n]) for f in fs]
            while len(row) > 1 and row[-1] == 0:
                row.pop()
            assert tuple(row) == brute.row(n)


class TestBruteDistributions:
    def test_small_rows(self):
        t = pjum_distribution_brute("021,0111", 3)
        assert t.row(3) == (5,)
        t = pjum_distribution_brute("021,1001", 1)
        assert t.row(1) == (1,)

    @pytest.mark.parametrize("n", [0, -1, 6])
    def test_row_outside_the_horizon_raises(self, n):
        t = pjum_distribution_brute("021,0111", 5)
        with pytest.raises(IndexError):
            t.row(n)

    def test_row_sums_equal_counts(self):
        t = pjum_distribution_brute("021,1200", 8)
        assert t.row_sums() == count_avoiders("021,1200", 8).counts[1:]

    def test_works_without_021(self):
        t = pjum_distribution_brute("0011", 7)
        assert t.row_sums() == count_avoiders("0011", 7).counts[1:]

    def test_serialization(self):
        t = pjum_distribution_brute("021,0111", 4)
        data = t.to_json_dict()
        assert data["statistic"] == "pjum"
        assert data["patterns"] == ["021", "0111"]
        assert data["rows"][3] == {"n": 4, "counts": [12, 1]}
        assert t.to_tsv().splitlines()[3] == "4\t12\t1"


class TestPjumByLayers:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 4), min_size=1, max_size=5),
            min_size=1,
            max_size=3,
        ),
        st.integers(0, 8),
    )
    def test_matches_brute_force(self, raw, horizon):
        pats = PatternSet.of("021", *raw)
        assert pjum_distribution(pats, horizon) == pjum_distribution_brute(
            pats, horizon
        )

    @pytest.mark.parametrize("patterns", ["021,0", "021,00", "021,0111", "0011"])
    @pytest.mark.parametrize("horizon", [0, 1, 7])
    def test_pinned_sets(self, patterns, horizon):
        # 021,0 has no nonempty avoider; 0011 has no 021 and falls through.
        assert pjum_distribution(patterns, horizon) == pjum_distribution_brute(
            patterns, horizon
        )

    def test_0111_triangle_at_the_cap(self):
        assert b_table_0111(24).rows == pjum_distribution("021,0111", 24).rows

    def test_1001_series_at_the_cap(self):
        order = 24
        fs = f_series_1001(5, order)
        table = pjum_distribution("021,1001", order)
        for n in range(1, order + 1):
            row = table.row(n) + (0,) * 6
            assert [int(f[n]) for f in fs] == list(row[:6])

    @staticmethod
    def pjum_columns(patset, horizon):
        # The layer DP has no length cap: an avoider at slack s has pjum
        # max(s - 1, 0), as in pjum_distribution.
        rows = []
        for d, layer in enumerate(_layers_021(horizon, PatternSet.parse(patset)), 1):
            row = [0] * d
            for vec in layer.values():
                for s, c in enumerate(vec):
                    row[max(s - 1, 0)] += c
            rows.append(row)
        return rows

    def test_recurrences_past_the_cap(self):
        order = 60
        table = b_table_0111(order)
        rows = self.pjum_columns("021,0111", order)
        for n in range(1, order + 1):
            row = table.row(n)
            assert list(row) + [0] * (n - len(row)) == rows[n - 1]
        fs = f_series_1001(5, order)
        rows = self.pjum_columns("021,1001", order)
        for n in range(1, order + 1):
            row = rows[n - 1] + [0] * 6
            assert [int(f[n]) for f in fs] == row[:6]


class TestJumpDistribution:
    @pytest.mark.parametrize("max_jumps", range(6))
    def test_dp_matches_brute_force(self, max_jumps):
        for horizon in range(11):
            assert jump_distribution(horizon, max_jumps) == jump_distribution_brute(
                horizon, max_jumps
            )

    def test_partial_sums_are_h_r(self):
        table = jump_distribution_brute(10, 4)
        for r in range(5):
            hr = h_r_series(r, 10).int_coeffs()
            for n in range(1, 11):
                assert sum(table.row(n)[: r + 1]) == hr[n]

    def test_rejects_negative_cap(self):
        with pytest.raises(ValueError):
            jump_distribution_brute(5, -1)

    def test_dp_rejects_negative_cap(self):
        with pytest.raises(ValueError):
            jump_distribution(5, -1)

    def test_horizon_zero_has_no_rows(self):
        table = jump_distribution_brute(0, 2)
        assert table.rows == ()
        assert table.to_json_dict()["rows"] == []


class TestClosedForms:
    def test_examples(self):
        assert closed_form_count("0011", 5) == 33
        assert closed_form_count("1202", 4) == 14
        assert closed_form_count("0011", 1) == 1

    @pytest.mark.parametrize("name", ["0011", "0112", "1202"])
    def test_against_brute_force(self, name):
        counts = count_avoiders(f"021,{name}", 10).counts
        for n in range(1, 11):
            assert closed_form_count(name, n) == counts[n]

    def test_rejects_unsupported(self):
        with pytest.raises(ValueError):
            closed_form_count("0010", 5)
        with pytest.raises(ValueError):
            closed_form_count("0011", 0)
