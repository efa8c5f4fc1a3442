"""Rules that hold for the library source as a whole."""

import ast
import inspect
from pathlib import Path

from parkres import brute

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


def _generator_streams(namespace):
    """Names of the ``enum_*`` functions in ``namespace`` that are
    generator functions: every list they emit passes through a Python
    frame of their own."""
    return sorted(
        name
        for name, fn in namespace.items()
        if name.startswith("enum_") and inspect.isgeneratorfunction(fn)
    )


def test_streams_are_not_generator_functions():
    streams = [name for name in vars(brute) if name.startswith("enum_")]
    assert streams
    assert _generator_streams(vars(brute)) == []


def test_generator_stream_is_detected():
    def enum_wrapped(n, allowed):
        yield from brute.enum_restricted(n, allowed)

    def enum_plain(n, allowed):
        return brute.enum_restricted(n, allowed)

    def helper(n, allowed):
        yield from brute.enum_restricted(n, allowed)

    namespace = {"enum_wrapped": enum_wrapped, "enum_plain": enum_plain, "helper": helper}
    assert _generator_streams(namespace) == ["enum_wrapped"]


def test_oracles_import_nothing_from_formulas():
    # brute is the independent check of formulas: it keeps its own
    # argument checks rather than borrow those of the route it checks
    path = SRC / "brute.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert imported and not any(name.split(".")[-1] == "formulas" for name in imported)


# The argument checks every formula may share; no other private helper may
# serve both forms of a count, or the check of one by the other is not
# independent.
SHARED_CHECKS = {"_ints", "_check_ns"}
COUNT_PAIRS = [
    ("restricted_subtractive", "restricted_alternating"),
    ("prime_subtractive", "prime_alternating"),
]


def _private_names_used(tree):
    """For each module-level function, the private module-level names its
    body refers to."""
    top = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    } | {
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    private = {name for name in top if name.startswith("_")}
    return {
        node.name: {
            sub.id
            for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and sub.id in private
        }
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _shared_helpers(tree, pairs):
    used = _private_names_used(tree)
    shared = {(a, b): sorted((used[a] & used[b]) - SHARED_CHECKS) for a, b in pairs}
    return {pair: names for pair, names in shared.items() if names}


def test_count_forms_share_no_private_helper():
    path = SRC / "formulas.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _private_names_used(tree)
    for pair in COUNT_PAIRS:
        assert all(name in used for name in pair)
    assert _shared_helpers(tree, COUNT_PAIRS) == {}


def test_shared_count_helper_is_detected():
    source = (
        "_MEMO = {}\n"
        "def _ints(*v):\n    return v\n"
        "def _power_pair(a, e, b, f):\n    return a**e * b**f\n"
        "def sub(n):\n    _ints(n)\n    return _power_pair(n, 1, n, 1) + len(_MEMO)\n"
        "def alt(n):\n    _ints(n)\n    return _power_pair(n, 2, n, 0) + len(_MEMO)\n"
        "def other(n):\n    _ints(n)\n    return n\n"
    )
    tree = ast.parse(source)
    assert _shared_helpers(tree, [("sub", "alt")]) == {("sub", "alt"): ["_MEMO", "_power_pair"]}
    assert _shared_helpers(tree, [("sub", "other")]) == {}
