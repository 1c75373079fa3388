"""Properties of the package as shipped: invariant checks that survive
`python -O`, and a CLI import path that stays free of numpy.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import ascentseq

PACKAGE_DIR = Path(ascentseq.__file__).resolve().parent


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


def test_cli_import_does_not_load_numpy():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    result = subprocess.run(
        [sys.executable, "-c",
         "import ascentseq.cli, sys; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout == "False\n"
