"""Output checks for benchmark jobs.

Every job is checked twice: its stdout must be byte-identical to the
output recorded in golden.json, and its numbers must agree with a
reference that does not run the code path under test:

* count jobs: the catalog series for {021, tau}; for sets without a
  catalog entry, counts stored in golden.json, which a brute-force
  oracle re-confirms at small lengths on every run;
* series jobs: exit status 0 of --verify-n (search against catalog),
  the local OEIS b-files, the Catalan numbers and the oracle;
* wilf jobs: 20 classes, each class's counts equal to the catalog series
  of its representative, and every member's oracle counts;
* bijection jobs: success with domain size equal to codomain size, and
  both sizes equal to catalog (or closed-form) counts;
* distribution jobs: pjum row sums against the catalog, jum rows
  against the closed form ((2-x)/(1-x))^(n-1).

A check returns a list of problems; an empty list means the job passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import combinations
from pathlib import Path

#: Largest length the brute-force oracle confirms on every run.
ORACLE_N = 8

#: OEIS entry -> (pattern, shift): coefficient n of the pattern's series
#: equals the b-file's a(n + shift).
ALIGNMENTS = {
    "A244885": ("1010", 0),
    "A005183": ("0011", -1),
    "A082582": ("0111", 1),
    "A007051": ("1202", -1),
}

WILF_CLASS_COUNT = 20


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- brute-force oracle -------------------------------------------------


def _ascent_words(n: int):
    """Every ascent sequence of length n, generated from the definition."""
    if n == 0:
        yield ()
        return

    def extend(word, asc):
        if len(word) == n:
            yield tuple(word)
            return
        for letter in range(asc + 2):
            yield from extend(word + [letter], asc + (letter > word[-1]))

    yield from extend([0], 0)


def _normalize(values) -> tuple[int, ...]:
    rank = {v: i for i, v in enumerate(sorted(set(values)))}
    return tuple(rank[v] for v in values)


def naive_contains(word, pattern: tuple[int, ...]) -> bool:
    m = len(pattern)
    return any(
        _normalize([word[i] for i in idx]) == pattern
        for idx in combinations(range(len(word)), m)
    )


def pattern_letters(text: str) -> tuple[int, ...]:
    return tuple(int(ch) for ch in text)


class Oracle:
    """Filter-after-generate counts, sharing no code with the library."""

    def __init__(self, n_max: int = ORACLE_N):
        self.n_max = n_max
        self._sets: dict[str, list[int]] = {}
        self._length4: dict[str, list[int]] | None = None

    def counts(self, patterns: str) -> list[int]:
        """Avoider counts of a comma-separated pattern set, n = 0..n_max."""
        if patterns not in self._sets:
            pats = [pattern_letters(p) for p in patterns.split(",")]
            self._sets[patterns] = [
                sum(1 for w in _ascent_words(n)
                    if not any(naive_contains(w, p) for p in pats))
                for n in range(self.n_max + 1)
            ]
        return self._sets[patterns]

    def length4(self, pattern: str) -> list[int]:
        """Counts of {021, pattern}-avoiders for a length-4 pattern,
        computed for all 75 patterns in one pass."""
        if self._length4 is None:
            # For each length, the set of length-4 patterns in each 021-avoider.
            by_length = [
                [{_normalize([w[i] for i in idx]) for idx in combinations(range(n), 4)}
                 for w in _ascent_words(n) if not naive_contains(w, (0, 2, 1))]
                for n in range(self.n_max + 1)
            ]
            found = set().union(*(subs for words in by_length for subs in words))
            self._length4 = {
                "".join(map(str, p)): [sum(1 for subs in words if p not in subs)
                                       for words in by_length]
                for p in found
            }
        return self._length4.get(
            pattern, [catalan(n) for n in range(self.n_max + 1)]
        )


# --- references -----------------------------------------------------------


def jump_row(n: int, max_jumps: int) -> list[int]:
    """Nondecreasing words from 0 of length n by exact jump count j <=
    max_jumps: the coefficients of ((2-x)/(1-x))^(n-1)."""
    row = [1] + [0] * max_jumps
    factor = [2] + [1] * max_jumps  # (2-x)/(1-x) = 2 + x + x^2 + ...
    for _ in range(n - 1):
        row = [sum(row[i] * factor[j - i] for i in range(j + 1))
               for j in range(max_jumps + 1)]
    return row


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def catalog_pattern(patterns: str) -> str | None:
    """tau when the set is {021, tau} with tau of length 4: a set whose
    counts the series catalog gives."""
    parts = patterns.split(",")
    if len(parts) == 2 and parts[0] == "021" and len(parts[1]) == 4:
        return parts[1]
    return None


class References:
    """Expected values for job outputs, from sources other than the code
    path the job exercises."""

    def __init__(self, root: Path, golden: dict, library):
        self.root = root
        self.golden = golden
        self.lib = library
        self.oracle = Oracle()
        self._series: dict[tuple[str, int], list[int]] = {}
        self._bfiles: dict[str, dict[int, int]] = {}
        self._stored_used: set[str] = set()

    def series(self, pattern: str, order: int) -> list[int]:
        key = (pattern, order)
        if key not in self._series:
            self._series[key] = list(self.lib.gf_catalog(pattern, order).int_coeffs())
        return self._series[key]

    def bfile(self, entry: str) -> dict[int, int]:
        if entry not in self._bfiles:
            path = self.root / "src" / "ascentseq" / "fixtures" / f"{entry}.txt"
            values = {}
            for line in path.read_text().splitlines():
                if line.strip() and not line.startswith("#"):
                    n, a = line.split()
                    values[int(n)] = int(a)
            self._bfiles[entry] = values
        return self._bfiles[entry]

    def set_counts(self, patterns: str, n: int) -> tuple[list[int], str]:
        """Expected counts of a pattern set and where they come from."""
        tau = catalog_pattern(patterns)
        if tau:
            return self.series(tau, n), f"catalog {tau}"
        stored = self.golden["counts"].get(patterns)
        if stored is None or len(stored) <= n:
            raise KeyError(f"no stored counts for {patterns} to n={n}")
        self._stored_used.add(patterns)
        return stored[: n + 1], "stored counts"

    def oracle_problems(self) -> list[str]:
        """Re-confirm with the oracle every stored count vector used."""
        problems = []
        for patterns in sorted(self._stored_used):
            stored = self.golden["counts"][patterns]
            want = self.oracle.counts(patterns)
            if stored[: len(want)] != want:
                problems.append(f"stored counts for {patterns} disagree with "
                                f"the oracle: {stored[:len(want)]} != {want}")
        return problems

    def pattern_series_problems(self, pattern: str, coeffs: list[int]) -> list[str]:
        """Check a catalog series against b-files, Catalan and the oracle."""
        problems = []
        if pattern == "021":
            want = [catalan(n) for n in range(len(coeffs))]
            if coeffs != want:
                problems.append("021 series is not the Catalan numbers")
        else:
            small = self.oracle.length4(pattern)
            if coeffs[: len(small)] != small[: len(coeffs)]:
                problems.append(f"series {pattern} disagrees with the oracle")
        for entry, (aligned, shift) in ALIGNMENTS.items():
            if aligned != pattern:
                continue
            fixture = self.bfile(entry)
            for n, c in enumerate(coeffs):
                if n + shift in fixture and fixture[n + shift] != c:
                    problems.append(f"series {pattern}[{n}] = {c} but "
                                    f"{entry}[{n + shift}] = {fixture[n + shift]}")
        return problems


# --- per-kind checks on parsed results --------------------------------


def check_counts(refs: References, params: dict, counts: list[int]) -> list[str]:
    want, source = refs.set_counts(params["patterns"], params["n"])
    if counts != want:
        return [f"counts {counts} != {source} {want}"]
    return []


def check_series(refs: References, params: dict, coeffs: list[int]) -> list[str]:
    if len(coeffs) != params["order"] + 1:
        return [f"{len(coeffs)} coefficients for order {params['order']}"]
    return refs.pattern_series_problems(params["pattern"], coeffs)


def check_wilf(refs: References, params: dict, classes: list[tuple]) -> list[str]:
    """classes: (representative, members, counts) triples."""
    problems = []
    if len(classes) != WILF_CLASS_COUNT:
        problems.append(f"{len(classes)} classes, expected {WILF_CLASS_COUNT}")
    for rep, members, counts in classes:
        if counts != refs.series(rep, params["horizon"]):
            problems.append(f"class of {rep} disagrees with its catalog series")
        for member in members:
            small = refs.oracle.length4(member)
            if counts[: len(small)] != small[: len(counts)]:
                problems.append(f"{member} in class of {rep} disagrees with the oracle")
    return problems


def check_bijection(refs: References, params: dict, report: dict) -> list[str]:
    problems = []
    if not report["success"]:
        problems.append("bijection reported failure")
    if report["domain_size"] != report["codomain_size"]:
        problems.append("domain size differs from codomain size")
    n = params["n"]
    if params["r"] is not None:
        want = sum(jump_row(n, params["r"]))
        sides = {"codomain": want}
    else:
        dom, cod = params["map"].split("-to-")
        sides = {"domain": refs.series(dom, n)[n], "codomain": refs.series(cod, n)[n]}
    for side, want in sides.items():
        if report[f"{side}_size"] != want:
            problems.append(f"{side} size {report[f'{side}_size']} != {want}")
    return problems


def check_distribution(refs: References, params: dict, rows: list[list[int]]) -> list[str]:
    h = params["horizon"]
    if len(rows) != h:
        return [f"{len(rows)} rows for horizon {h}"]
    if params["statistic"] == "jum":
        width = len(rows[0])
        want = [jump_row(n, width - 1) for n in range(1, h + 1)]
        return [] if rows == want else ["jum rows differ from the closed form"]
    tau = params["patterns"].split(",")[1]
    sums = [sum(r) for r in rows]
    want = refs.series(tau, h)[1:]
    return [] if sums == want else [f"pjum row sums {sums} != catalog {want}"]


def check_catalog(refs: References, params: dict, entries: list[tuple]) -> list[str]:
    problems = []
    if len(entries) != 34:
        problems.append(f"{len(entries)} catalog entries, expected 34")
    for pattern, coeffs in entries:
        problems += check_series(refs, {"pattern": pattern, "order": params["order"]},
                                 coeffs)
    return problems


# --- CLI stdout -------------------------------------------------------


def parse_stdout(job, text: str):
    """The job's result, as the check for its kind takes it."""
    fmt = job.params.get("format")
    if fmt == "bfile":
        return [int(line.split()[1]) for line in text.splitlines()]
    if fmt == "markdown":
        rows = [line.strip("|").split("|") for line in text.splitlines()[2:]]
        return [(p.strip(), [int(c) for c in cs.split(",")]) for p, cs in rows]
    data = json.loads(text)
    if job.kind == "count":
        return data["counts"]
    if job.kind == "series":
        return [int(c) for c in data["coefficients"]]
    if job.kind == "wilf":
        return [(c["representative"], c["members"], c["counts"])
                for c in data["classes"]]
    if job.kind == "bijection":
        return data
    if job.kind == "distribution":
        return [r["counts"] for r in data["rows"]]
    if job.kind == "catalog":
        return [(e["pattern"], e["counts"]) for e in data["entries"]]
    raise ValueError(f"unknown job kind {job.kind}")


CHECKS = {
    "count": check_counts,
    "series": check_series,
    "wilf": check_wilf,
    "bijection": check_bijection,
    "distribution": check_distribution,
    "catalog": check_catalog,
}


def check_result(refs: References, job, result) -> list[str]:
    try:
        return CHECKS[job.kind](refs, job.params, result)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return [f"check failed: {exc!r}"]


def check_cli_output(refs: References, job, returncode: int, stdout: bytes) -> list[str]:
    """All problems with one finished CLI job; empty when it passed."""
    if returncode != 0:
        return [f"exit status {returncode}"]
    problems = []
    want = refs.golden["stdout_sha256"].get(job.id)
    if sha256(stdout) != want:
        problems.append("stdout differs from the recorded output")
    try:
        result = parse_stdout(job, stdout.decode())
    except (ValueError, KeyError, IndexError) as exc:
        return problems + [f"unparsable output: {exc!r}"]
    return problems + check_result(refs, job, result)
