import dataclasses
import json

import jsonschema
import pytest

from ascentseq import bijections, cli
from ascentseq.bijections import BIJECTIONS, Bijection
from ascentseq.patterns import PatternSet, count_avoiders
from ascentseq.recur import jump_distribution


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_bfile_output(self, capsys):
        code, out, _ = run(
            capsys, "count", "--patterns", "021,0010", "--n", "11",
            "--format", "bfile",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0 1"
        assert lines[11] == "11 7936"

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "count", "--patterns", "021,1001", "--n", "6",
        )
        assert code == 0
        data = json.loads(out)
        assert data["counts"] == [1, 1, 2, 5, 14, 41, 123]

    def test_threads_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(
                capsys, "count", "--patterns", "021,0110", "--n", "8",
                "--threads", "3",
            )
        assert exc.value.code == 2

    def test_deterministic_bytes(self, capsys):
        args = ("count", "--patterns", "021,1200", "--n", "7")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_bad_pattern_is_usage_error(self, capsys):
        code, _, err = run(capsys, "count", "--patterns", "02x", "--n", "4")
        assert code == 2
        assert "error" in err

    def test_horizon_cap(self, capsys):
        code, out, err = run(capsys, "count", "--patterns", "021", "--n", "30")
        assert code == 2
        assert out == ""
        assert err == "error: length 30 exceeds cap 24\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--patterns", "021,1001", "--n", "25"),
        ("series", "--pattern", "1202", "--order", "25"),
        ("catalog", "--order", "25"),
    ],
    ids=["count --n", "series --order", "catalog --order"],
)
def test_one_cap_one_message(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: length 25 exceeds cap 24\n"


class TestSeries:
    def test_verified_expansion(self, capsys):
        code, out, _ = run(
            capsys, "series", "--pattern", "1202", "--order", "8",
            "--verify-n", "7", "--format", "tsv",
        )
        assert code == 0
        assert out.splitlines()[7] == "7\t365"

    def test_verification_failure_exits_one(self, capsys, monkeypatch):
        from ascentseq import series as series_mod

        good = series_mod.gf_catalog

        def tampered(pattern, order):
            s = good(pattern, order)
            coeffs = list(s.coeffs)
            coeffs[-1] += 1
            return series_mod.PowerSeries(coeffs)

        monkeypatch.setattr(cli, "gf_catalog", tampered)
        code, _, err = run(
            capsys, "series", "--pattern", "0011", "--order", "6",
            "--verify-n", "6",
        )
        assert code == 1
        assert "verification failed" in err

    def test_internal_check_failure_exits_one(self, capsys, monkeypatch):
        def broken(pattern, order):
            raise ArithmeticError("series is not integral")

        monkeypatch.setattr(cli, "gf_catalog", broken)
        code, out, err = run(capsys, "series", "--pattern", "0011", "--order", "6")
        assert code == 1
        assert out == ""
        assert err == "error: internal check failed: series is not integral\n"
        assert "Traceback" not in err

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "series", "--pattern", "0111", "--order", "5")
        assert code == 0
        data = json.loads(out)
        assert data["coefficients"] == ["1", "1", "2", "5", "13", "35"]


class TestBijection:
    def test_success_report(self, capsys):
        code, out, _ = run(capsys, "bijection", "--map", "1100-to-1000", "--n", "9")
        assert code == 0
        data = json.loads(out)
        assert data["domain_size"] == 3048
        assert data["success"] is True

    def test_tuple_map(self, capsys):
        code, out, _ = run(
            capsys, "bijection", "--map", "tuple-jumps", "--r", "2", "--n", "7",
        )
        assert code == 0
        assert json.loads(out)["success"] is True

    def test_tuple_needs_r(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "bijection", "--map", "tuple-jumps", "--n", "5")
        assert exc.value.code == 2

    def test_unknown_map(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "bijection", "--map", "0010-to-1234", "--n", "5")
        assert exc.value.code == 2

    def broken_run(self, capsys, monkeypatch, dom, cod, func):
        bij = Bijection("broken", PatternSet.of(*dom), PatternSet.of(*cod), func)
        monkeypatch.setitem(BIJECTIONS, "broken", bij)
        code, out, err = run(capsys, "bijection", "--map", "broken", "--n", "5")
        data = json.loads(out)
        jsonschema.validate(data, cli.load_schema("bijection"))
        return code, data, err.splitlines()

    def test_failure_exits_one(self, capsys, monkeypatch):
        # every image is the zero word: 40 collisions, sizes equal
        code, data, err = self.broken_run(
            capsys, monkeypatch, ("021", "1200"), ("021", "1220"),
            lambda w: (0,) * len(w),
        )
        assert code == 1
        assert data["injective"] is False and len(data["failures"]) == 40
        assert len(err) == 3
        assert all(line.startswith("counterexample: ") for line in err)

    def test_cardinality_mismatch_exits_one(self, capsys, monkeypatch):
        # identity from all 42 021-avoiders onto the 36 that also avoid 0000
        code, data, err = self.broken_run(
            capsys, monkeypatch, ("021",), ("021", "0000"), tuple,
        )
        assert code == 1
        assert len(data["failures"]) == 6
        assert all(line.startswith("counterexample: ") for line in err[:3])
        assert err[3:] == ["cardinality mismatch: domain 42 vs codomain 36"]


    def test_walk_count_mismatch_exits_one(self, capsys, monkeypatch):
        def one_too_many(patterns, horizon):
            cv = count_avoiders(patterns, horizon)
            *head, last = cv.counts
            return dataclasses.replace(cv, counts=(*head, last + 1))

        monkeypatch.setattr(bijections, "count_avoiders", one_too_many)
        code, out, err = run(capsys, "bijection", "--map", "1100-to-1000", "--n", "6")
        assert code == 1
        assert out == ""
        assert err.startswith("error: internal check failed: ")

    def test_tuple_jump_dp_mismatch_exits_one(self, capsys, monkeypatch):
        def one_too_many(horizon, max_jumps):
            t = jump_distribution(horizon, max_jumps)
            *head, (first, *rest) = t.rows
            return dataclasses.replace(t, rows=(*head, (first + 1, *rest)))

        monkeypatch.setattr(bijections, "jump_distribution", one_too_many)
        code, out, err = run(
            capsys, "bijection", "--map", "tuple-jumps", "--r", "2", "--n", "6",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: internal check failed: ")


class TestWilf:
    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "wilf", "--length", "4", "--horizon", "7",
        )
        assert code == 0
        data = json.loads(out)
        assert sum(len(c["members"]) for c in data["classes"]) == 75

    def test_markdown(self, capsys):
        code, out, _ = run(
            capsys, "wilf", "--length", "4", "--horizon", "6",
            "--format", "markdown",
        )
        assert code == 0
        assert out.startswith("| class |")

    def test_oversized_universe_is_usage_error(self, capsys):
        code, out, err = run(capsys, "wilf", "--length", "7", "--horizon", "12")
        assert code == 2
        assert out == ""
        assert err.startswith("error: pattern length 7 is too large")

    @pytest.mark.parametrize("length, horizon", [(12, 1), (20, 0), (20, -1)])
    def test_long_patterns_are_rejected_before_enumeration(
        self, capsys, length, horizon
    ):
        code, out, err = run(
            capsys, "wilf", "--length", str(length), "--horizon", str(horizon),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestDistribution:
    def test_pjum_tsv(self, capsys):
        code, out, _ = run(
            capsys, "distribution", "--statistic", "pjum", "--patterns",
            "021,0111", "--horizon", "5", "--format", "tsv",
        )
        assert code == 0
        assert out.splitlines()[4] == "5\t30\t5"

    def test_pjum_needs_patterns(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "distribution", "--statistic", "pjum", "--horizon", "5")
        assert exc.value.code == 2

    def test_jum_json(self, capsys):
        code, out, _ = run(
            capsys, "distribution", "--statistic", "jum", "--horizon", "6",
            "--max-jumps", "2",
        )
        assert code == 0
        data = json.loads(out)
        assert data["statistic"] == "jum"
        assert data["rows"][0] == {"n": 1, "counts": [1, 0, 0]}

    @pytest.mark.parametrize("statistic", ["pjum", "jum"])
    def test_horizon_zero_has_no_rows(self, capsys, statistic):
        code, out, _ = run(
            capsys, "distribution", "--statistic", statistic, "--patterns",
            "021", "--horizon", "0",
        )
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, cli.load_schema("distribution"))
        assert data["rows"] == []


class TestCatalog:
    def test_full_listing(self, capsys):
        code, out, _ = run(capsys, "catalog", "--order", "6")
        assert code == 0
        data = json.loads(out)
        assert len(data["entries"]) == 34  # 021 plus the 33 restrictive
        by_name = {e["pattern"]: e["counts"] for e in data["entries"]}
        assert by_name["1202"] == [1, 1, 2, 5, 14, 41, 122]

    def test_markdown_single(self, capsys):
        code, out, _ = run(
            capsys, "catalog", "--pattern", "0011", "--order", "5",
            "--format", "markdown",
        )
        assert code == 0
        assert "| 0011 |" in out


class TestOutput:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "row.bfile"
        code, out, _ = run(
            capsys, "count", "--patterns", "021,0011", "--n", "5",
            "--format", "bfile", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[5] == "5 33"
