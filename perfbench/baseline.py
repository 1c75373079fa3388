"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --runs 10 [--out perfbench/baseline.json]

Run from the root of a checkout.  For each workload it makes `--runs`
untraced runs (seeds 1..runs) and TRACED_RUNS traced runs, each one a
separate `run.py` process started with the standard arguments and
BENCHMARK.json's run_seconds, and
prints each metric's median, quartiles and spread (interquartile range
over median).  With --out it also writes those figures, the
environment, and the ROADMAP table rows the workloads cover, read from
the traced runs' spans.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, HERE
from spans import PER_LAYER
from workloads import WORKLOADS

TRACED_RUNS = 2

#: ROADMAP table rows the workloads re-measure: label -> (job, span name).
ROADMAP_ROWS = {
    'count_avoiders("021,1001", 14)': ("count --patterns 021,1001 --n 14",
                                       "patterns.count"),
    "wilf_classify(4, 13)": ("wilf --length 4 --horizon 13", "wilf.classify"),
}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode or not result["correct"]:
        sys.stderr.write(proc.stderr)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    work = Path.cwd() / ".bench_build" / "perfbench"
    out: dict = {"seconds": seconds, "workloads": {}}
    all_correct = True
    for workload in WORKLOADS:
        entry = out["workloads"][workload] = {}
        for trace, count, units in ((0, args.runs, END_TO_END), (1, TRACED_RUNS, PER_LAYER)):
            results = [run(workload, seed, seconds, trace)
                       for seed in range(1, count + 1)]
            all_correct &= all(r["correct"] for r in results)
            entry["end_to_end" if trace == 0 else "per_layer"] = metrics = {}
            for name, (unit, *_) in units.items():
                values = [r["metrics"][name]["value"] for r in results]
                if not values:
                    continue
                metrics[name] = {"unit": unit, **summary(values)}
                m = metrics[name]
                print(f"{workload:19s} {name:34s} {m['median']:12.6g} {unit:6s} "
                      f"q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']} "
                      f"spread={m['spread']:.4f}", flush=True)
            entry["failed" if trace == 0 else "failed_traced"] = sum(
                r["failed"] for r in results)
        rows = {}
        for seed in range(1, TRACED_RUNS + 1):
            path = work / f"{workload}.seed{seed}.spans.json"
            if not path.exists():
                continue
            for span in json.loads(path.read_text()):
                for label, (job, name) in ROADMAP_ROWS.items():
                    if span["job"] == job and span["name"] == name:
                        rows.setdefault(label, []).append(span["duration"])
        if rows:
            entry["roadmap_rows_s"] = {k: summary(v) for k, v in rows.items()}
    record = json.loads((work / f"{workload}.seed1.trace0.json").read_text())
    out["env"] = record["env"]
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
