"""Properties of the package as shipped: invariant checks that survive
`python -O`, and no runtime dependency outside the standard library.
"""

import ast
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
