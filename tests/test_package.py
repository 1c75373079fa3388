"""Properties of the package as shipped: invariant checks that survive
`python -O`, no runtime dependency outside the standard library, a public
namespace loaded on first use, and a CLI that imports only the library
modules its subcommand runs.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ascentseq

PACKAGE_DIR = Path(ascentseq.__file__).resolve().parent
LIBRARY = ("core", "patterns", "series", "recur", "bijections", "wilf")

# The public names, by the submodule that defines them.
PUBLIC = {
    "core": {
        "MAX_LENGTH", "AscentSequence", "ascent_count", "ascent_sequences",
        "bounded_jump_words", "format_sequence", "is_ascent_sequence",
        "is_staircase", "jump_count", "max_letter", "parse_sequence", "pjum",
        "staircase_words",
    },
    "patterns": {
        "CountVector", "Pattern", "PatternSet", "all_patterns", "avoiders",
        "catalan", "contains", "count_avoiders", "normalize_pattern",
        "occurrence_count",
    },
    "series": {
        "DEFAULT_ORDER", "RESTRICTIVE_PATTERNS", "WILF_CLASSES", "P",
        "Polynomial", "PowerSeries", "catalan_series", "expand_ratio",
        "gf_catalog", "h_r_series",
    },
    "recur": {
        "DistributionTable", "b_table_0111", "closed_form_count",
        "f_series_1001", "jump_distribution", "jump_distribution_brute",
        "pjum_distribution", "pjum_distribution_brute",
    },
    "bijections": {
        "BIJECTIONS", "BijectionReport", "MapCaseError", "StaircaseTuple",
        "apply_map", "staircase_tuples", "tuple_to_sequence",
        "verify_bijection", "verify_tuple_bijection",
    },
    "wilf": {
        "WilfClass", "WilfClassReport", "pattern_avoidance_table",
        "wilf_classify",
    },
}


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so invariant checks must raise.
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_library_imports_only_the_standard_library():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"ascentseq"}
            ]
    assert found == []


def _loaded_after(statements: str) -> set[str]:
    """The library modules in sys.modules after a fresh interpreter runs
    the given statements."""
    probe = (
        f"{statements}\n"
        "import json, sys\n"
        f"print(json.dumps([m for m in {LIBRARY!r} if 'ascentseq.' + m in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_cli_import_loads_no_library_module():
    assert _loaded_after("import ascentseq.cli") == set()


# Each command line, and the library modules it must not load.
SUBCOMMANDS = [
    (["count", "--patterns", "021,1001", "--n", "6"],
     {"series", "recur", "bijections", "wilf"}),
    (["count", "--patterns", "1001", "--n", "6"],
     {"series", "recur", "bijections", "wilf"}),
    (["distribution", "--statistic", "jum", "--horizon", "6"], {"series", "wilf"}),
    (["distribution", "--patterns", "021,1001", "--horizon", "6"],
     {"series", "wilf"}),
    (["bijection", "--map", "1001-to-1011", "--n", "5"], {"series", "wilf"}),
]


@pytest.mark.parametrize(
    "argv, unused", SUBCOMMANDS, ids=[" ".join(argv) for argv, _ in SUBCOMMANDS]
)
def test_subcommand_loads_only_what_it_runs(argv, unused):
    run = (
        "import os\n"
        "from ascentseq import cli\n"
        f"code = cli.main({argv!r} + ['--out', os.devnull])\n"
        "assert code == 0, code\n"
    )
    assert not _loaded_after(run) & unused


def test_public_names_are_pinned():
    assert len(ascentseq.__all__) == len(set(ascentseq.__all__))
    assert set(ascentseq.__all__) == set().union(*PUBLIC.values())


@pytest.mark.parametrize("module", LIBRARY)
def test_public_names_are_the_submodules_own(module):
    mod = importlib.import_module(f"ascentseq.{module}")
    assert getattr(ascentseq, module) is mod
    for name in PUBLIC[module]:
        assert getattr(ascentseq, name) is getattr(mod, name), name


def test_dir_lists_every_public_name_and_submodule():
    assert set(ascentseq.__all__) | set(LIBRARY) <= set(dir(ascentseq))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ascentseq.no_such_name
    assert not hasattr(ascentseq, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ascentseq import *", namespace)
    assert set(ascentseq.__all__) <= namespace.keys()
    for name in ascentseq.__all__:
        assert namespace[name] is getattr(ascentseq, name)
