"""Rules that hold for the library source as a whole."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "parkres"


def test_library_has_no_assert():
    # ``python -O`` strips assert statements, so a check written as one
    # would silently stop running; library checks raise instead.
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in library code: {found}"
