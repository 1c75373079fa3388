"""Record the reference outputs in golden.json from the current tree.

    python3 perfbench/record.py

Run from the root of a checkout whose outputs are known good.  It stores
the SHA-256 of every job's stdout and, for count jobs whose pattern set
has no catalog entry, the counts themselves; run.py re-confirms those
counts with a brute-force oracle on every run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
from run import HERE, Checkout, load_library
from workloads import WORKLOADS


def main() -> int:
    root = Path.cwd()
    if load_library(root) is None:
        sys.stderr.write(f"no ascentseq package under {root / 'src'}\n")
        return 2
    co = Checkout(root)
    co.deadline = float("inf")
    golden = {"stdout_sha256": {}, "counts": {}}
    for job in {j.id: j for jobs in WORKLOADS.values() for j in jobs}.values():
        r = co.run(["-m", "ascentseq.cli", *job.argv], timeout=600)
        if r["returncode"] != 0:
            sys.stderr.write(f"{job.id}: exit status {r['returncode']}\n")
            return 1
        golden["stdout_sha256"][job.id] = checks.sha256(r["stdout"])
        patterns = job.params.get("patterns")
        if job.kind == "count" and not checks.catalog_pattern(patterns):
            golden["counts"][patterns] = json.loads(r["stdout"])["counts"]
        print(f"{r['wall_s']:7.2f}s  {job.id}", flush=True)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
