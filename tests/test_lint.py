"""Source checks: the library raises explicit errors instead of asserting,
because ``python -O`` strips assert statements."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "srkit"


def test_library_has_no_assert():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
