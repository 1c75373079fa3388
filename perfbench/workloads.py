"""The benchmark's workloads: each is a list of `ascentseq` CLI jobs.

A job carries its command line (run as a child process in the
end-to-end run) and the same request as plain parameters (replayed
in-process against the library's public functions in the traced run).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The 33 length-4 patterns with a catalog entry, copied here so the job
#: lists do not depend on the code under test.
RESTRICTIVE = (
    "0000 0001 0010 0011 0012 0100 0101 0102 0110 0111 0112 0120 0122 "
    "0123 1000 1001 1002 1010 1011 1012 1020 1022 1023 1100 1101 1102 "
    "1110 1120 1200 1202 1203 1220 1230"
).split()

#: The eight class-to-class maps of the bijection harness.
MAPS = (
    "0010-to-0100", "0010-to-0110", "0010-to-0123", "1100-to-1000",
    "1001-to-1011", "1001-to-1101", "1020-to-1022", "1200-to-1220",
)


@dataclass(frozen=True)
class Job:
    kind: str
    argv: tuple[str, ...]
    params: dict = field(hash=False, compare=False)

    @property
    def id(self) -> str:
        return " ".join(self.argv)


def count(patterns: str, n: int, fmt: str | None = None) -> Job:
    argv = ["count", "--patterns", patterns, "--n", str(n)]
    if fmt:
        argv += ["--format", fmt]
    return Job("count", tuple(argv), {"patterns": patterns, "n": n, "format": fmt})


def series(pattern: str, order: int, verify_n: int) -> Job:
    argv = ("series", "--pattern", pattern, "--order", str(order),
            "--verify-n", str(verify_n))
    return Job("series", argv,
               {"pattern": pattern, "order": order, "verify_n": verify_n})


def wilf(length: int, horizon: int) -> Job:
    argv = ("wilf", "--length", str(length), "--horizon", str(horizon))
    return Job("wilf", argv, {"length": length, "horizon": horizon})


def bijection(name: str, n: int, r: int | None = None) -> Job:
    argv = ["bijection", "--map", name]
    if r is not None:
        argv += ["--r", str(r)]
    argv += ["--n", str(n)]
    return Job("bijection", tuple(argv), {"map": name, "n": n, "r": r})


def distribution(statistic: str, horizon: int, patterns: str | None = None) -> Job:
    argv = ["distribution"]
    if patterns:
        argv += ["--patterns", patterns]
    argv += ["--statistic", statistic, "--horizon", str(horizon)]
    return Job("distribution", tuple(argv),
               {"statistic": statistic, "horizon": horizon, "patterns": patterns})


def catalog(order: int, fmt: str | None = None) -> Job:
    argv = ["catalog", "--order", str(order)]
    if fmt:
        argv += ["--format", fmt]
    return Job("catalog", tuple(argv), {"order": order, "format": fmt})


# catalog-crosscheck: search against catalog for every restrictive pattern,
# plus the count-mode cliffs.  Most of its time is the counting DFS and the
# incremental matcher, so a count-side change shows here.
CATALOG_CROSSCHECK = (
    [series(p, 12, 12) for p in ("021", *RESTRICTIVE)]
    + [
        count("021,1001", 14),      # the counting cliff
        count("021,0000", 14),      # the bad case for a memoized count
        count("1001", 11),          # 021 not native: the matcher does all
        count("021,0010,1200", 14),  # several patterns at once
        count("021,01230", 13),     # a length-5 pattern
    ]
)

# wilf-sweep: the classifier cliff, one horizon past the default.  The
# batched sweep never uses the matcher.
WILF_SWEEP = [wilf(4, 13)]

# certify: many small and medium jobs where count mode is nearly absent;
# enumeration, per-image containment and process start-up dominate, so a
# count-side change should not move it and an import change shows most.
CERTIFY = (
    [bijection(m, 10) for m in MAPS]
    + [
        bijection("tuple-jumps", 12, r=2),
        bijection("tuple-jumps", 11, r=3),
        distribution("pjum", 12, "021,0111"),
        distribution("pjum", 12, "021,1001"),
        distribution("jum", 14),
        catalog(24),
        # The README's commands at the README's sizes, except wilf.
        count("021,0010", 11, "bfile"),
        series("1001", 12, 9),
        bijection("1100-to-1000", 9),
        bijection("tuple-jumps", 8, r=2),
        distribution("pjum", 8, "021,0111"),
        catalog(11, "markdown"),
    ]
)

# Small calls into every layer, replayed in-process by every traced run
# so each per-layer metric is measured whichever workload is traced.
PROBE = [
    count("021,1001", 11),
    catalog(24),
    distribution("pjum", 10, "021,0111"),
    distribution("jum", 11),
    bijection("1001-to-1011", 9),
    bijection("tuple-jumps", 10, r=2),
    wilf(4, 10),
]

WORKLOADS: dict[str, list[Job]] = {
    "catalog-crosscheck": CATALOG_CROSSCHECK,
    "wilf-sweep": WILF_SWEEP,
    "certify": CERTIFY,
}

#: Seconds one untraced pass over each job list took at the benchmark's
#: first commit (2 CPUs, Python 3.11).  A run makes `seconds // PASS_S`
#: passes, at least two, so the number of passes depends on --seconds
#: and never on the speed of the code under test.
PASS_S = {
    "catalog-crosscheck": 16.1,
    "wilf-sweep": 13.4,
    "certify": 5.7,
}
