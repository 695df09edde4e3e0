"""Checks on the library source itself."""

import ast
from pathlib import Path

import gammaforms

SRC = Path(gammaforms.__file__).resolve().parent


def test_no_assert_statements():
    # invariant checks must raise InvariantError: asserts vanish under -O
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
