"""The length cap at its two edges, in the library and on the command line.

Every public function that takes a length or a jump bound rejects 25
(one past MAX_LENGTH) and -1 with ValueError, and every CLI option that
sets a length, order or jump bound exits 2 with nothing on stdout and an
error on stderr.  A jump bound is checked before any row or word is
built, so a huge one fails at once.
"""

from collections.abc import Iterator

import pytest

from ascentseq import (
    MAX_LENGTH,
    ascent_sequences,
    avoiders,
    bounded_jump_words,
    count_avoiders,
    jump_distribution,
    jump_distribution_brute,
    pattern_avoidance_table,
    pjum_distribution,
    pjum_distribution_brute,
    staircase_tuples,
    staircase_words,
    verify_bijection,
    verify_tuple_bijection,
    wilf_classify,
)
from ascentseq import cli

OUT_OF_RANGE = (MAX_LENGTH + 1, -1)

LENGTH_TAKERS = {
    "ascent_sequences": lambda n: ascent_sequences(n),
    "bounded_jump_words": lambda n: bounded_jump_words(n, 2),
    "avoiders": lambda n: avoiders(n, "021,1001"),
    "count_avoiders": lambda n: count_avoiders("021,1001", n),
    "pjum_distribution": lambda n: pjum_distribution("021,0111", n),
    "pjum_distribution_brute": lambda n: pjum_distribution_brute("021,0111", n),
    "jump_distribution": lambda n: jump_distribution(n, 2),
    "jump_distribution_brute": lambda n: jump_distribution_brute(n, 2),
    "verify_bijection": lambda n: verify_bijection("1100-to-1000", n),
    "verify_tuple_bijection": lambda n: verify_tuple_bijection(2, n),
    "pattern_avoidance_table": lambda n: pattern_avoidance_table(4, n),
    "staircase_words": lambda n: staircase_words(n),
    "staircase_tuples": lambda n: staircase_tuples(n, 2),
    "wilf_classify": lambda n: wilf_classify(4, n),
    # The jump bound, at a small length.
    "bounded_jump_words max_jumps": lambda r: bounded_jump_words(3, r),
    "jump_distribution max_jumps": lambda r: jump_distribution(3, r),
    "jump_distribution_brute max_jumps": lambda r: jump_distribution_brute(3, r),
    "staircase_tuples r": lambda r: staircase_tuples(3, r),
    "verify_tuple_bijection r": lambda r: verify_tuple_bijection(r, 3),
}

# Each command line takes the out-of-range value in place of "{}".
COMMANDS = {
    "count --n": ("count", "--patterns", "021,1001", "--n", "{}"),
    "series --order": ("series", "--pattern", "1202", "--order", "{}"),
    "series --verify-n": (
        "series", "--pattern", "1202", "--order", "8", "--verify-n", "{}",
    ),
    "wilf --horizon": ("wilf", "--length", "4", "--horizon", "{}"),
    "bijection --n": ("bijection", "--map", "1100-to-1000", "--n", "{}"),
    "bijection tuple-jumps --n": (
        "bijection", "--map", "tuple-jumps", "--r", "2", "--n", "{}",
    ),
    "distribution pjum --horizon": (
        "distribution", "--statistic", "pjum", "--patterns", "021,0111",
        "--horizon", "{}",
    ),
    "distribution jum --horizon": (
        "distribution", "--statistic", "jum", "--horizon", "{}",
    ),
    "catalog --order": ("catalog", "--order", "{}"),
    "distribution jum --max-jumps": (
        "distribution", "--statistic", "jum", "--horizon", "3",
        "--max-jumps", "{}",
    ),
    "bijection tuple-jumps --r": (
        "bijection", "--map", "tuple-jumps", "--r", "{}", "--n", "3",
    ),
}


@pytest.mark.parametrize("n", OUT_OF_RANGE)
@pytest.mark.parametrize("name", sorted(LENGTH_TAKERS))
def test_library_rejects_out_of_range_length(name, n):
    with pytest.raises(ValueError):
        result = LENGTH_TAKERS[name](n)
        if isinstance(result, Iterator):
            next(result)


@pytest.mark.parametrize("n", OUT_OF_RANGE)
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_out_of_range_length_is_usage_error(capsys, name, n):
    argv = [arg.format(n) for arg in COMMANDS[name]]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error" in captured.err
