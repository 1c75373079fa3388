"""Acceptance suite: every criterion at its stated scale, one printed
pass/fail line each.  All comparisons are exact integer identities.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete (they are also shown by plain `pytest` on failure).
"""

import random
import time
from fractions import Fraction

from ascentseq.bijections import BIJECTIONS, verify_bijection, verify_tuple_bijection
from ascentseq.core import bounded_jump_words
from ascentseq.oeis import ALIGNMENTS, matching_terms
from ascentseq.patterns import PatternSet, _layers_021, catalan, count_avoiders
from ascentseq.recur import (
    b_table_0111,
    closed_form_count,
    f_series_1001,
    pjum_distribution_brute,
)
from ascentseq.series import (
    P,
    PowerSeries,
    RESTRICTIVE_PATTERNS,
    WILF_CLASSES,
    gf_catalog,
    h_r_series,
)
from ascentseq.wilf import wilf_classify
from conftest import dfs_counts


def _report(criterion, description, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"ACCEPTANCE {criterion} [{status}] {description}")
    assert not problems, problems[:5]


def test_criterion_1_master_oracle():
    problems = []
    start = time.time()
    for name in RESTRICTIVE_PATTERNS:
        brute = dfs_counts(f"021,{name}", 11)
        series = gf_catalog(name, 11).int_coeffs()
        if brute != series:
            problems.append(f"{name}: brute {brute} != series {series}")
    elapsed = time.time() - start
    row1 = gf_catalog("0010", 11).int_coeffs()
    if row1[10:] != (3328, 7936):
        problems.append(f"0010 tail {row1[10:]}")
    row6 = gf_catalog("1001", 11).int_coeffs()
    if row6[10:] != (11716, 37688):
        problems.append(f"1001 tail {row6[10:]}")
    if elapsed > 120:
        problems.append(f"sweep took {elapsed:.0f}s (budget ~120s)")
    _report(
        1,
        f"brute force equals catalog for all 33 patterns, n<=11 "
        f"({elapsed:.1f}s)",
        problems,
    )


def test_criterion_2_catalan_baseline():
    counts = dfs_counts("021", 14)
    problems = [
        f"n={n}: {counts[n]} != {catalan(n)}"
        for n in range(15)
        if counts[n] != catalan(n)
    ]
    if counts[14] != 2674440:
        problems.append(f"C_14 = {counts[14]}")
    _report(2, "021-avoider counts are the Catalan numbers up to n=14", problems)


def test_criterion_3_wilf_classification():
    problems = []
    report = wilf_classify(4, 12)
    expected = {frozenset(members) for members in WILF_CLASSES}
    got = {
        frozenset(str(p) for p in cls.members)
        for cls in report.classes
        if not cls.is_catalan
    }
    if got != expected:
        problems.append(f"class memberships differ: {got ^ expected}")
    singletons = {next(iter(m)) for m in expected if len(m) == 1}
    if singletons != {
        "0000", "0001", "0111", "1002", "1012", "1023", "1102", "1110",
        "1202", "1203",
    }:
        problems.append(f"singleton set wrong: {singletons}")
    catalan_classes = [cls for cls in report.classes if cls.is_catalan]
    if len(catalan_classes) != 1 or len(catalan_classes[0].members) != 42:
        problems.append(
            f"catalan classes: {[(len(c.members)) for c in catalan_classes]}"
        )
    if len(report.classes) != 20:
        problems.append(f"{len(report.classes)} classes at horizon 12")
    merged = wilf_classify(4, 6).class_of("1000")
    if "1200" not in {str(p) for p in merged.members}:
        problems.append("1000/1200 not merged at horizon 6")
    split = wilf_classify(4, 7)
    a, b = split.class_of("1000"), split.class_of("1200")
    if (a.counts[7], b.counts[7]) != (362, 364):
        problems.append(f"separation values {(a.counts[7], b.counts[7])}")
    if {str(p) for p in a.members} != {"1000", "1100"}:
        problems.append("1000 class at horizon 7 not {1000,1100}")
    _report(3, "horizon-12 classification reproduces all 20 classes", problems)


def test_criterion_4_bijection_suite():
    problems = []
    for name, bij in sorted(BIJECTIONS.items()):
        class_pattern = next(str(p) for p in bij.domain if len(p) == 4)
        sizes = gf_catalog(class_pattern, 10).int_coeffs()
        for n in range(11):
            rep = verify_bijection(name, n)
            if not rep.success:
                problems.append(
                    f"{name} n={n}: sizes {rep.domain_size}/{rep.codomain_size},"
                    f" counterexample {rep.failures[:1]}"
                )
                break
            if rep.domain_size != sizes[n]:
                problems.append(
                    f"{name} n={n}: domain {rep.domain_size} != table {sizes[n]}"
                )
                break
    _report(4, "all eight maps are bijections for every n<=10", problems)


def test_criterion_5_recurrence_cross_checks():
    problems = []
    horizon = 11
    triangle = b_table_0111(horizon)
    brute0111 = pjum_distribution_brute("021,0111", horizon)
    if triangle.rows != brute0111.rows:
        problems.append("0111 triangle != brute-force distribution")
    if triangle.row_sums() != gf_catalog("0111", horizon).int_coeffs()[1:]:
        problems.append("0111 row sums != catalog series")
    fs = f_series_1001((horizon - 1) // 2, horizon)
    brute1001 = pjum_distribution_brute("021,1001", horizon)
    for n in range(1, horizon + 1):
        row = [int(f[n]) for f in fs]
        while len(row) > 1 and row[-1] == 0:
            row.pop()
        if tuple(row) != brute1001.row(n):
            problems.append(f"1001 distribution differs at n={n}")
    total = fs[0]
    for f in fs[1:]:
        total = total + f
    series = gf_catalog("1001", horizon).int_coeffs()
    if tuple(int(c) for c in total.coeffs[1:]) != series[1:]:
        problems.append("1001 row sums != catalog series")
    _report(5, "both pjum recurrences match exhaustive distributions, n<=11",
            problems)


def test_criterion_6_h_r_validation():
    problems = []
    for r in range(5):
        hr = h_r_series(r, 12).int_coeffs()
        for n in range(1, 13):
            if hr[n] != sum(1 for _ in bounded_jump_words(n, r)):
                problems.append(f"h_{r} coefficient differs at n={n}")
    for r in range(4):
        for n in range(1, 11):
            rep = verify_tuple_bijection(r, n)
            if not rep.success:
                problems.append(f"tuple map r={r} n={n}: {rep.failures[:1]}")
    x = PowerSeries.from_polynomial(P(0, 1), 21)
    hs = [h_r_series(r, 20) for r in range(6)]
    for r in range(6):
        rhs = x + (x + x) * hs[r]
        for i in range(r):
            rhs = rhs + x * hs[i]
        if hs[r] != rhs:
            problems.append(f"recurrence fails for r={r}")
    _report(6, "h_r series, tuple bijection and recurrence all verify", problems)


def test_criterion_7_closed_forms():
    problems = []
    b0011 = count_avoiders("021,0011", 12).counts
    b1202 = count_avoiders("021,1202", 12).counts
    for n in range(1, 13):
        if closed_form_count("0011", n) != b0011[n]:
            problems.append(f"0011 closed form differs at n={n}")
        if closed_form_count("1202", n) != b1202[n]:
            problems.append(f"1202 closed form differs at n={n}")
    _report(7, "closed forms match brute force for 1<=n<=12", problems)


def test_criterion_8_oeis_fixtures():
    problems = []
    for entry in sorted(ALIGNMENTS):
        try:
            matched = matching_terms(entry, order=15)
        except AssertionError as exc:
            problems.append(str(exc))
            continue
        if matched < 12:
            problems.append(f"{entry}: only {matched} matching terms")
    _report(8, "catalog expansions match all four b-file fixtures", problems)


def test_criterion_9_series_algebra():
    problems = []
    rng = random.Random(2024)
    order = 32

    def rand_series():
        return PowerSeries(
            [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(order)
            ]
        )

    one = PowerSeries([1] + [0] * (order - 1))
    for case in range(100):
        a, b, c = rand_series(), rand_series(), rand_series()
        checks = [
            (a + b) + c == a + (b + c),
            a + b == b + a,
            (a * b) * c == a * (b * c),
            a * b == b * a,
            a * (b + c) == a * b + a * c,
            a * one == a,
        ]
        if b[0] != 0:
            checks.append((a / b) * b == a)
        sq = PowerSeries([Fraction(1)] + list(a.coeffs[1:]))
        checks.append(sq.sqrt() * sq.sqrt() == sq)
        if not all(checks):
            problems.append(f"case {case}: {checks}")
    _report(9, "ring axioms, div/mul and sqrt roundtrips exact at order 32",
            problems)


def test_criterion_10_memoized_count_reaches_24():
    problems = []
    for name in ("021", *RESTRICTIVE_PATTERNS):
        counts = count_avoiders(f"021,{name}", 24).counts
        series = gf_catalog(name, 24).int_coeffs()
        if counts != series:
            problems.append(f"{name}: count {counts} != series {series}")
    _report(
        10,
        "memoized counts equal the catalog for 021 and all 33 patterns, n<=24",
        problems,
    )


def test_criterion_11_layer_dp_reaches_100():
    # Past the public cap of 24, so the layer generator is summed directly.
    problems = []
    start = time.time()
    for name in ("021", *RESTRICTIVE_PATTERNS):
        layers = _layers_021(100, PatternSet.of("021", name))
        counts = (1, *(sum(map(sum, layer.values())) for layer in layers))
        series = gf_catalog(name, 100).int_coeffs()
        if counts != series:
            bad = next(n for n in range(101) if counts[n] != series[n])
            problems.append(f"{name}: first mismatch at n={bad}")
    elapsed = time.time() - start
    _report(
        11,
        f"layer DP equals the catalog for 021 and all 33 patterns, n<=100 "
        f"({elapsed:.1f}s)",
        problems,
    )
