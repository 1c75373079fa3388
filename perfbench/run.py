"""Benchmark of the `ascentseq` command line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  Each workload is a list of CLI jobs (see workloads.py), run one
child process at a time in an order shuffled by the seed.  With
--trace 0 the run makes a fixed number of passes over the job list,
as many as fit in --seconds at the benchmark's first commit and at least
two; the end-to-end metrics take each job's best clean time over the
passes (see end_to_end).  With --trace 1 the run makes one untraced
CLI pass, then replays the same jobs in-process under spans (see
spans.py) and reports the per-layer metrics.
Every job's output is checked (see checks.py).

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  Lines before it name every metric with its unit.  A full
record of the run, and the spans of a traced run, are written under
.bench_build/perfbench/.  The exit status is 0 when every check passed,
1 when one failed, and 2 when the checkout has no package to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

import checks
import spans
from workloads import PASS_S, PROBE, WORKLOADS

HERE = Path(__file__).resolve().parent

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "wall_s": ("s", "lower"),
    "slowest_job_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "pass_frac": ("frac", "higher"),
    "setup_s": ("s", "lower"),
}

#: Fresh-interpreter imports timed at the start of every pass, so that
#: setup_s samples the whole run rather than one moment of it.
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 5
#: Untraced runs make at least this many passes, so the best time has a
#: slower one to filter.
MIN_PASSES = 2
JOB_TIMEOUT_S = 60.0
#: No job starts after this much of a run; one that cannot finish in
#: what is left is killed and counted as failed.
RUN_BUDGET_S = 150.0


class Checkout:
    """The source tree under test and how to start its command line."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.work = root / ".bench_build" / "perfbench"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def run(self, args: list[str], timeout: float = JOB_TIMEOUT_S) -> dict:
        """Run `python <args>` to completion and return its exit code,
        output, wall time and resource usage."""
        timeout = min(timeout, self.deadline - time.monotonic())
        if timeout <= 0:
            return {"returncode": None, "timed_out": True, "wall_s": 0.0,
                    "cpu_s": 0.0, "rss_kb": 0, "stdout": b"", "stderr": b""}
        with tempfile.TemporaryFile(dir=self.work) as out, \
                tempfile.TemporaryFile(dir=self.work) as err:
            killed = threading.Event()
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    env=self.env, cwd=self.root)

            def kill() -> None:
                killed.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                # wait4 rather than Popen.wait: it returns the child's usage.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return {
                "returncode": proc.returncode,
                "timed_out": killed.is_set(),
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_kb": usage.ru_maxrss,
                "stdout": out.read(),
                "stderr": err.read(),
            }


def source_digest(src: Path) -> str:
    """A hash of the package sources, which identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path) -> dict:
    commit = None
    if (root / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                                 capture_output=True, text=True)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "source_digest": source_digest(root / "src"),
        "machine": platform.machine(),
    }


def setup_samples(co: Checkout) -> list[float]:
    """Wall times of fresh interpreters importing ascentseq.cli."""
    return [co.run(["-c", "import ascentseq.cli"])["wall_s"]
            for _ in range(SETUP_SAMPLES)]


def import_times(co: Checkout) -> dict[str, float]:
    """Cumulative import times from `python -X importtime`, medians over
    several fresh interpreters.  numpy reads 0 when it is not imported."""
    samples: dict[str, list[float]] = {"ascentseq": [], "numpy": []}
    for _ in range(IMPORT_SAMPLES):
        stderr = co.run(["-X", "importtime", "-c", "import ascentseq.cli"])["stderr"]
        found = {}
        for line in stderr.decode().splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in samples:
                found[fields[2].strip()] = int(fields[1]) / 1e6
        for name, values in samples.items():
            values.append(found.get(name, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


def run_pass(co: Checkout, refs, jobs, rng: random.Random) -> dict:
    """Time a few fresh imports, then run every job once, in a shuffled
    order, and check each output."""
    setup = setup_samples(co)
    order = list(jobs)
    rng.shuffle(order)
    runs = []
    start = time.perf_counter()
    for job in order:
        runs.append((job, co.run(["-m", "ascentseq.cli", *job.argv])))
    wall = time.perf_counter() - start
    records = []
    for job, r in runs:
        if r["timed_out"]:
            problems = ["timed out"]
        else:
            problems = checks.check_cli_output(refs, job, r["returncode"], r["stdout"])
        records.append({
            "job": job.id, "returncode": r["returncode"], "wall_s": r["wall_s"],
            "cpu_s": r["cpu_s"], "rss_kb": r["rss_kb"], "problems": problems,
            "stderr": r["stderr"].decode(errors="replace")[-500:] if problems else "",
        })
    return {"wall_s": wall, "setup_s": setup, "jobs": records}


def end_to_end(passes: list[dict]) -> dict[str, float]:
    """Each job's time is its best over the run's clean passes; setup_s
    is the median of the setup samples.  On a shared host, bursts that
    slow the CPU for seconds at a time hit some jobs and not others; the
    best of a few tries filters them, where a median of two to four does
    not (over ten runs, the spread of wall_s on certify was 0.062 against
    0.079 for the median pass).  A job with no clean pass (it failed,
    timed out or never started) is charged JOB_TIMEOUT_S, so a failure
    can never read as a speed-up."""
    jobs = [j for p in passes for j in p["jobs"]]
    failed = sum(1 for j in jobs if j["problems"])

    def best(key: str, job: str) -> float:
        return min((j[key] for j in jobs if j["job"] == job and not j["problems"]),
                   default=JOB_TIMEOUT_S)

    ids = dict.fromkeys(j["job"] for j in jobs)
    wall = [best("wall_s", job) for job in ids]
    return {
        "wall_s": sum(wall),
        "slowest_job_s": max(wall),
        "cpu_s": sum(best("cpu_s", job) for job in ids),
        "peak_rss_mb": max(j["rss_kb"] for j in jobs) / 1024,
        "pass_frac": 1 - failed / len(jobs),
        "setup_s": statistics.median(t for p in passes for t in p["setup_s"]),
    }


def traced_pass(lib, refs, workload: str, jobs, rng: random.Random):
    """Replay the workload's jobs, then the layer probe, in-process under
    spans.  Returns the finished spans and a problem list per job."""
    tracer = spans.Tracer()
    outcomes = []

    def attempt(name, step, *args):
        # A library error fails this step, not the whole run.
        try:
            outcomes.append((name, step(lib, tracer, *args)))
        except Exception as exc:
            outcomes.append((name, [f"raised {exc!r}"]))

    tracer.workload = workload
    order = list(jobs)
    rng.shuffle(order)
    for job in order:
        attempt(job.id, spans.replay, refs, job)
    tracer.workload = "probe"
    for job in PROBE:
        attempt(f"probe: {job.id}", spans.replay, refs, job)
    attempt("probe: layers", spans.probe_layers, rng, refs)
    return tracer.finish(), outcomes


def load_library(root: Path):
    """Import ascentseq from the checkout's src/, never from elsewhere."""
    src = root / "src"
    if not (src / "ascentseq" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import ascentseq

    if Path(ascentseq.__file__).resolve().parent != (src / "ascentseq").resolve():
        return None
    return ascentseq


def main(argv: list[str] | None = None, golden: dict | None = None,
         workloads: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    lib = load_library(root)
    if lib is None:
        sys.stderr.write(f"no ascentseq package under {root / 'src'}\n")
        return 2
    golden = golden or json.loads((HERE / "golden.json").read_text())
    jobs = (workloads or WORKLOADS)[args.workload]
    co = Checkout(root)
    refs = checks.References(root, golden, lib)
    rng = random.Random(args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(root)}

    co.run(["-c", "import ascentseq.cli"])  # fills the bytecode cache
    count = 1 if args.trace else max(MIN_PASSES, int(args.seconds // PASS_S[args.workload]))
    passes = [run_pass(co, refs, jobs, rng) for _ in range(count)]
    record["passes"] = passes
    e2e = end_to_end(passes)
    outcomes = [(j["job"], j["problems"]) for p in passes for j in p["jobs"]]
    metrics = e2e
    if args.trace:
        imports = import_times(co)
        span_list, traced = traced_pass(lib, refs, args.workload, jobs, rng)
        outcomes += traced
        metrics = spans.layer_metrics(span_list, args.workload, e2e["wall_s"], imports)
        (co.work / f"{args.workload}.seed{args.seed}.spans.json").write_text(
            json.dumps(span_list, indent=1))
    failures = [(job, problems) for job, problems in outcomes + [
        ("oracle", refs.oracle_problems())] if problems]
    failed = sum(1 for job, _ in failures if job != "oracle")
    correct = not failures

    units = {**{k: v[0] for k, v in END_TO_END.items()},
             **{k: v[0] for k, v in spans.PER_LAYER.items()}}
    record.update(metrics=metrics, failures=failures)
    (co.work / f"{args.workload}.seed{args.seed}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    env = record["env"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} commit={env['commit']} src={env['source_digest']}")
    shown = metrics if not args.trace else {**e2e, **metrics}
    for name, value in shown.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")
    for job, problems in failures:
        sys.stderr.write(f"FAILED {job}: {'; '.join(problems)}\n")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
