"""Invariants in the package raise errors instead of using `assert`, so they
still hold under `python -O`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "multiseg"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"{path.name}: assert at line(s) {found}"
