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


def _self_calling_closures(tree):
    """Names and lines of functions nested in a function that refer to
    their own name: each call makes a closure cycle only a full garbage
    collection frees."""
    found = []
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(
                isinstance(node, ast.Name) and node.id == inner.name
                for stmt in inner.body
                for node in ast.walk(stmt)
            ):
                found.append(f"{inner.name}:{inner.lineno}")
    return found


def test_no_self_calling_closures():
    found = [
        f"{path.name}:{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _self_calling_closures(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, f"nested functions that refer to themselves: {found}"


def test_self_calling_closure_is_detected():
    source = "def outer(n):\n    def go(i):\n        return go(i - 1) if i else 0\n    return go(n)\n"
    assert _self_calling_closures(ast.parse(source)) == ["go:2"]
    flat = "def go(i):\n    return go(i - 1) if i else 0\n"
    assert _self_calling_closures(ast.parse(flat)) == []
