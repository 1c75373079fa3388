"""Check that the benchmark's own failure accounting works.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  It runs a few certify and
catalog-crosscheck jobs through run.py four times: as recorded, with a
corrupted stored count, with a corrupted recorded output, and with one
job forced to exit non-zero.  Every corrupted run must count one failed
job per pass, lower pass_frac, charge the failed job its timeout in
wall_s, report correct: false and exit 1.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys

import run
from workloads import Job, bijection, catalog, count

JOBS = [count("021,0010", 11, "bfile"), count("1001", 11),
        bijection("tuple-jumps", 8, r=2), catalog(11, "markdown")]


def outcome(golden: dict, jobs: list[Job]) -> tuple[int, dict]:
    argv = ["--workload", "certify", "--seed", "1", "--seconds", "0", "--trace", "0"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(argv, golden=golden, workloads={"certify": jobs})
    return status, json.loads(out.getvalue().splitlines()[-1])


def main() -> int:
    golden = json.loads((run.HERE / "golden.json").read_text())

    bad_count = copy.deepcopy(golden)
    bad_count["counts"]["1001"][11] += 1
    bad_output = copy.deepcopy(golden)
    bad_output["stdout_sha256"][JOBS[2].id] = "0" * 64
    failing = Job("count", ("count", "--patterns", "021,0010", "--n", "99"),
                  JOBS[0].params)

    cases = [
        ("as recorded", golden, JOBS, 0),
        ("corrupted stored count", bad_count, JOBS, 1),
        ("corrupted recorded output", bad_output, JOBS, 1),
        ("job exits non-zero", golden, [failing, *JOBS[1:]], 1),
    ]
    ok = True
    for name, data, jobs, want_failed in cases:
        status, result = outcome(data, jobs)
        frac = result["metrics"]["pass_frac"]["value"]
        wall = result["metrics"]["wall_s"]["value"]
        passes = result["attempted"] // len(jobs)
        passed = (result["failed"] == want_failed * passes
                  and result["correct"] == (want_failed == 0)
                  and status == (1 if want_failed else 0)
                  and frac == 1 - want_failed / len(jobs)
                  and (wall >= run.JOB_TIMEOUT_S) == (want_failed > 0))
        ok &= passed
        print(f"SELFCHECK {'PASS' if passed else 'FAIL'}: {name}: failed="
              f"{result['failed']}/{result['attempted']} pass_frac={frac:.3f} wall_s={wall:.2f} "
              f"correct={result['correct']} exit={status}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
