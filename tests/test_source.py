"""Guards over the package source itself."""

import ast
import pathlib

import symilp


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so invariants must raise instead.
    found = []
    for path in sorted(pathlib.Path(symilp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
