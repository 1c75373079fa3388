"""The traced run: spans around the benchmark's calls into each layer.

Spans are recorded from the benchmark's own files, around calls into the
library's public functions; nothing inside the library is instrumented.
Each span keeps its name, start, end, parent and workload, plus the
counts of work done inside it, recorded at the same boundary.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from checks import catalan, check_result, jump_row, naive_contains, pattern_letters

#: Per-layer metrics: name -> (unit, better, the end-to-end metric and
#: workload it should move).
PER_LAYER = {
    "patterns.count_s": ("s", "lower", "wall_s on catalog-crosscheck"),
    "patterns.count_per_s": ("1/s", "higher", "wall_s on catalog-crosscheck"),
    "patterns.count_avoiders_total": (
        "count", "higher", "wall_s on catalog-crosscheck; exact, equals the seed's"),
    "patterns.enum_s": ("s", "lower", "wall_s on certify"),
    "patterns.enum_words": ("count", "higher", "wall_s on certify"),
    "patterns.enum_per_s": ("1/s", "higher", "wall_s on certify"),
    "patterns.contains_per_s": (
        "1/s", "higher", "wall_s on catalog-crosscheck and certify, not wilf-sweep"),
    "patterns.occurrence_count_per_s": (
        "1/s", "higher", "wall_s on catalog-crosscheck and certify, not wilf-sweep"),
    "series.expand_s": (
        "s", "lower", "wall_s on catalog-crosscheck, too small a share to see"),
    "series.coeffs_per_s": (
        "1/s", "higher", "wall_s on catalog-crosscheck, too small a share to see"),
    "recur.distribution_s": ("s", "lower", "wall_s on certify"),
    "bijections.verify_s": ("s", "lower", "wall_s and slowest_job_s on certify"),
    "bijections.words_per_s": ("1/s", "higher", "wall_s and slowest_job_s on certify"),
    "core.bounded_jump_words_per_s": ("1/s", "higher", "wall_s on certify"),
    "core.staircase_words_per_s": ("1/s", "higher", "wall_s on certify"),
    "wilf.classify_s": ("s", "lower", "wall_s and peak_rss_mb on wilf-sweep"),
    "wilf.words_per_s": ("1/s", "higher", "wall_s and peak_rss_mb on wilf-sweep"),
    "setup.ascentseq_import_s": (
        "s", "lower", "setup_s on every workload, wall_s on certify most"),
    "setup.numpy_import_s": (
        "s", "lower", "setup_s on every workload, wall_s on certify most"),
    "cli.overhead_s": ("s", "lower", "wall_s on certify"),
    "trace.traced_total_s": ("s", "lower", "the workload's jobs in-process, traced"),
    "trace.untraced_total_s": ("s", "lower", "the same jobs through the CLI, untraced"),
}

# Sizes of the in-process layer probe (see probe_layers).
MATCHER_WORDS = 40
MATCHER_WORD_LENGTH = 12
ENUM_PATTERNS = ("0010", "1100", "1001", "1020", "1200")
ENUM_LENGTH = 10
JUMP_WORDS = ((12, 2), (11, 3))
STAIRCASE_LENGTHS = range(1, 15)


class Tracer:
    """Collects spans in memory; nesting follows the `with` blocks."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.workload = ""

    @contextmanager
    def span(self, name: str, job: str | None = None):
        """Time the block; yields the span's counts dict for the caller
        to fill in.  Spans nested in a job's span share its job id."""
        parent = self._open[-1] if self._open else None
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "job": job if parent is None else self.spans[parent]["job"],
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def finish(self) -> list[dict]:
        """The spans with durations and self times (duration minus the
        time covered by child spans, which never overlap)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            s["duration"] = s["end"] - s["start"]
            if s["parent"] is not None:
                child_time[s["parent"]] += s["duration"]
        for s in self.spans:
            s["self"] = s["duration"] - child_time[s["id"]]
        return self.spans


# --- in-process replay of CLI jobs ------------------------------------


def _count(lib, tracer, patterns, n):
    with tracer.span("patterns.count") as c:
        cv = lib.count_avoiders(patterns, n)
        c["avoiders"] = sum(cv.counts)
    return list(cv.counts)


def _expand(lib, tracer, patterns, order):
    with tracer.span("series.expand") as c:
        out = [list(lib.gf_catalog(p, order).int_coeffs()) for p in patterns]
        c["coeffs"] = sum(map(len, out))
    return out


def replay(lib, tracer: Tracer, refs, job) -> list[str]:
    """Make the library calls the CLI would make for `job`, under spans,
    and check the results; returns the problems found."""
    p = job.params
    with tracer.span("job", job.id):
        if job.kind == "count":
            result = _count(lib, tracer, p["patterns"], p["n"])
        elif job.kind == "series":
            (result,) = _expand(lib, tracer, [p["pattern"]], p["order"])
            searched = _count(lib, tracer, lib.PatternSet.of("021", p["pattern"]),
                              p["verify_n"])
            upto = min(p["verify_n"], p["order"]) + 1
            if searched[:upto] != result[:upto]:
                return ["search disagrees with the catalog"]
        elif job.kind == "wilf":
            with tracer.span("wilf.classify") as c:
                report = lib.wilf_classify(p["length"], p["horizon"])
                c["words"] = sum(catalan(n) for n in range(p["horizon"] + 1))
            result = [(str(k.representative), [str(m) for m in k.members],
                       list(k.counts)) for k in report.classes]
        elif job.kind == "bijection":
            with tracer.span("bijections.verify") as c:
                if p["r"] is not None:
                    report = lib.verify_tuple_bijection(p["r"], p["n"])
                else:
                    report = lib.verify_bijection(p["map"], p["n"])
                c["words"] = report.domain_size + report.codomain_size
            result = report.to_json_dict()
        elif job.kind == "distribution":
            with tracer.span("recur.distribution"):
                if p["statistic"] == "pjum":
                    table = lib.pjum_distribution_brute(p["patterns"], p["horizon"])
                else:
                    table = lib.jump_distribution_brute(p["horizon"], 4)
            result = [list(r) for r in table.rows]
        else:
            names = ["021", *lib.RESTRICTIVE_PATTERNS]
            result = list(zip(names, _expand(lib, tracer, names, p["order"])))
    return check_result(refs, job, result)


# --- layers no CLI job calls directly ------------------------------------


def _random_ascent_sequence(rng: random.Random, n: int) -> tuple[int, ...]:
    word = [0]
    asc = 0
    while len(word) < n:
        letter = rng.randint(0, asc + 1)
        asc += letter > word[-1]
        word.append(letter)
    return tuple(word)


def probe_layers(lib, tracer: Tracer, rng: random.Random, refs) -> list[str]:
    """Time the enumeration, matcher and word-generator layers, which the
    CLI reaches only through other layers.  The matcher batch is drawn
    from the seed."""
    problems = []
    for tau in ENUM_PATTERNS:
        with tracer.span("patterns.enum") as c:
            c["words"] = sum(1 for _ in lib.avoiders(ENUM_LENGTH, f"021,{tau}"))
        if c["words"] != refs.series(tau, ENUM_LENGTH)[ENUM_LENGTH]:
            problems.append(f"avoiders({ENUM_LENGTH}, 021,{tau}) miscounted")

    words = [_random_ascent_sequence(rng, MATCHER_WORD_LENGTH)
             for _ in range(MATCHER_WORDS)]
    patterns = ["021"] + [str(q) for q in lib.all_patterns(4)]
    with tracer.span("patterns.contains") as c:
        found = [[lib.contains(w, q) for q in patterns] for w in words]
        c["calls"] = len(words) * len(patterns)
    with tracer.span("patterns.occurrence_count") as c:
        occurrences = [[lib.occurrence_count(w, q) for q in patterns] for w in words]
        c["calls"] = len(words) * len(patterns)
    for w, hits, occs in zip(words, found, occurrences):
        if hits != [k > 0 for k in occs]:
            problems.append(f"contains and occurrence_count disagree on {w}")
    # The first word against the naive subsequence oracle.
    naive = [naive_contains(words[0], pattern_letters(q)) for q in patterns]
    if found[0] != naive:
        problems.append(f"contains disagrees with the oracle on {words[0]}")

    for n, r in JUMP_WORDS:
        with tracer.span("core.bounded_jump_words") as c:
            c["words"] = sum(1 for _ in lib.bounded_jump_words(n, r))
        if c["words"] != sum(jump_row(n, r)):
            problems.append(f"bounded_jump_words({n}, {r}) miscounted")
    for n in STAIRCASE_LENGTHS:
        with tracer.span("core.staircase_words") as c:
            c["words"] = sum(1 for _ in lib.staircase_words(n))
        if c["words"] != 2 ** (n - 1):
            problems.append(f"staircase_words({n}) miscounted")
    return problems


# --- per-layer metrics ---------------------------------------------------


def layer_metrics(spans: list[dict], workload: str, untraced_s: float,
                  imports: dict[str, float]) -> dict[str, float]:
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    for s in spans:
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + s["self"]
        for key, value in s["counts"].items():
            name = f"{s['name']}.{key}"
            counts[name] = counts.get(name, 0) + value
    traced = sum(s["duration"] for s in spans
                 if s["name"] == "job" and s["workload"] == workload)

    def rate(layer: str, what: str) -> float:
        return counts[f"{layer}.{what}"] / self_s[layer]

    return {
        "patterns.count_s": self_s["patterns.count"],
        "patterns.count_per_s": rate("patterns.count", "avoiders"),
        "patterns.count_avoiders_total": counts["patterns.count.avoiders"],
        "patterns.enum_s": self_s["patterns.enum"],
        "patterns.enum_words": counts["patterns.enum.words"],
        "patterns.enum_per_s": rate("patterns.enum", "words"),
        "patterns.contains_per_s": rate("patterns.contains", "calls"),
        "patterns.occurrence_count_per_s": rate("patterns.occurrence_count", "calls"),
        "series.expand_s": self_s["series.expand"],
        "series.coeffs_per_s": rate("series.expand", "coeffs"),
        "recur.distribution_s": self_s["recur.distribution"],
        "bijections.verify_s": self_s["bijections.verify"],
        "bijections.words_per_s": rate("bijections.verify", "words"),
        "core.bounded_jump_words_per_s": rate("core.bounded_jump_words", "words"),
        "core.staircase_words_per_s": rate("core.staircase_words", "words"),
        "wilf.classify_s": self_s["wilf.classify"],
        "wilf.words_per_s": rate("wilf.classify", "words"),
        "setup.ascentseq_import_s": imports["ascentseq"],
        "setup.numpy_import_s": imports["numpy"],
        "cli.overhead_s": untraced_s - traced,
        "trace.traced_total_s": traced,
        "trace.untraced_total_s": untraced_s,
    }
