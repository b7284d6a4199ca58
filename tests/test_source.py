"""Checks on the library source itself."""

import ast
from pathlib import Path

import cominuscule

SRC = Path(cominuscule.__file__).parent


def test_no_assert_statements_in_library():
    # python -O strips assert statements, so a correctness check written as
    # one silently disappears; library checks must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
