"""Rules that hold for the library source as a whole."""

import ast
import inspect
import re
from pathlib import Path

from parkres import brute, formulas, verify

SRC = Path(__file__).resolve().parent.parent / "src" / "parkres"


def test_library_has_no_assert():
    # ``python -O`` strips assert statements, so a check written as one
    # would silently stop running; library checks raise instead.
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{line}"
        for path in sources
        for line in _assertions(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, f"assertions in library code: {found}"


def _assertions(tree):
    """Lines of the assert statements and of the raises of
    ``AssertionError``: a failed check in library code names a
    ``ParkresError`` the CLI can report, not a bare assertion."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Raise)
        and any(isinstance(sub, ast.Name) and sub.id == "AssertionError" for sub in ast.walk(node))
    ]


def test_assertion_is_detected():
    source = (
        "def f(x):\n    assert x\n"
        "def g(x):\n    if x:\n        raise AssertionError('bad')\n"
        "def h(x):\n    if x:\n        raise AssertionError\n"
        "def k(x):\n    if x:\n        raise ValueError('bad')\n"
    )
    assert _assertions(ast.parse(source)) == [2, 5, 8]


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


def _imported(tree):
    """The modules and names that the import statements of ``tree`` name,
    at any depth."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    return imported


def test_oracles_import_nothing_from_formulas():
    # brute and circular are the independent checks of formulas: they keep
    # their own argument checks and helpers rather than borrow those of
    # the route they check
    for name in ("brute.py", "circular.py"):
        path = SRC / name
        imported = _imported(ast.parse(path.read_text(), filename=str(path)))
        assert imported and not any(part.split(".")[-1] == "formulas" for part in imported), name


def _imports_argparse(tree):
    return any(name.split(".")[0] == "argparse" for name in _imported(tree))


def test_library_does_not_import_argparse():
    # each CLI call is a fresh process, and argparse (with the gettext and
    # locale it loads) costs more to import than most requests take to run
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        path.name
        for path in sources
        if _imports_argparse(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, f"argparse imported by {found}"


def test_argparse_import_is_detected():
    for source in (
        "import argparse\n",
        "import argparse as ap\n",
        "def f():\n    from argparse import ArgumentParser\n",
    ):
        assert _imports_argparse(ast.parse(source)), source
    assert not _imports_argparse(ast.parse("import math\nfrom . import cli\n"))


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
    body refers to, those imported from other modules included."""
    top = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    } | {
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


# count_min_defect is checked against count_restricted by ``verify
# formulas``: it parks the sorted lists itself and must reach neither the
# occupancy bounds nor the counting walk of the parking counters.
PARKING_ROUTE = {"_occupancy_need", "_count_walk"}


def _reached(tree, name):
    """The private module-level names ``name`` refers to, followed through
    every private function they name."""
    used = _private_names_used(tree)
    seen = set()
    todo = [name]
    while todo:
        for sub in used.get(todo.pop(), ()):
            if sub not in seen:
                seen.add(sub)
                todo.append(sub)
    return seen


def test_min_defect_does_not_reach_the_parking_route():
    path = SRC / "brute.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    reached = _reached(tree, "count_min_defect")
    assert "_min_defect_walk" in reached
    assert "_count_walk" in _reached(tree, "count_restricted")
    assert "_occupancy_need" in _reached(tree, "count_restricted")
    assert reached & PARKING_ROUTE == set()


def test_reached_parking_route_is_detected():
    source = (
        "def _occupancy_need(n):\n    return (n,)\n"
        "def _count_walk(need):\n    return need[0]\n"
        "def _rows(n):\n    return [n]\n"
        "def _walk(n):\n    return _count_walk(_occupancy_need(n))\n"
        "def _direct(n):\n    return _rows(n)\n"
        "def count_min_defect(n):\n    return _direct(n) + _walk(n)\n"
        "def count_plain(n):\n    return _direct(n)\n"
    )
    tree = ast.parse(source)
    assert _reached(tree, "count_min_defect") & PARKING_ROUTE == PARKING_ROUTE
    assert _reached(tree, "count_plain") == {"_direct", "_rows"}


# circular.verify_relation checks modular_census class by class: its
# expected side may reach no private name the census reaches, other than
# the argument checks, so that neither can share a walk or a rotation test
# with the route it checks.
RELATION_SHARED = {"_ints", "_check_gsk"}


def _relation_shares(tree):
    """The private names, other than the argument checks, that both
    ``verify_relation`` and ``modular_census`` reach; the census is public,
    so what the relation reaches through it is not followed."""
    shared = _reached(tree, "verify_relation") & _reached(tree, "modular_census")
    return sorted(shared - RELATION_SHARED)


def test_relation_shares_no_walk_with_the_census():
    path = SRC / "circular.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    census = _reached(tree, "modular_census")
    relation = _reached(tree, "verify_relation")
    assert {"_necklace_walk", "_largest_period", "_binomial_rows"} <= census
    assert {"_compositions", "_least_period"} <= relation
    assert _relation_shares(tree) == []


def test_relation_sharing_with_the_census_is_detected():
    source = (
        "from .core import _ints\n"
        "from .brute import _binomial_rows\n"
        "def _check_gsk(g):\n    return _ints(g)\n"
        "def _largest_period(c):\n    return len(c)\n"
        "def _walk(m):\n    return _binomial_rows(m)\n"
        "def _census(g):\n    return _walk(g) + [_largest_period(g)]\n"
        "def modular_census(g):\n    _check_gsk(g)\n    return _census(g)\n"
        "def _least_period(pairs):\n    return _largest_period(pairs)\n"
        "def verify_relation(g):\n"
        "    _check_gsk(g)\n    return modular_census(g), _least_period(g), _binomial_rows(g)\n"
    )
    assert _relation_shares(ast.parse(source)) == ["_binomial_rows", "_largest_period"]
    # what the relation reaches only through the census is the census's own
    source = source.replace(", _least_period(g), _binomial_rows(g)", "")
    assert _relation_shares(ast.parse(source)) == []


# The count forms: the CLI and the verify suites reach them only through
# ``formulas.routes``, so a form added there is counted by ``count`` and
# ``table`` and checked by ``verify`` with no code of their own.
COUNT_FORMS = {
    "restricted_subtractive", "restricted_alternating", "prime_subtractive",
    "prime_alternating", "pf_total", "ppf_total", "mod_count", "mod_count_k1",
}
# The brute-force counts that ``formulas.routes`` names as the oracles.
COUNT_ORACLES = {"count_restricted", "count_prime_restricted"}


def _named(tree, names=COUNT_FORMS):
    """The ``names`` that ``tree`` names: as a name, an attribute or an
    import."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            named.update(alias.name for alias in node.names)
    return sorted(named & names)


def _form_names():
    """The names of the forms that ``formulas.routes`` gives, over requests
    of every kind it counts."""
    requests = [{"kind": "segment", "s": s} for s in range(1, 5)] + [
        {"kind": "modular", "g": 2, "s": 3, "k": k} for k in (1, 2)
    ]
    return {
        method
        for kind in ("pf", "ppf")
        for restriction in requests
        for method in formulas.routes(kind, restriction, 4)[0]
    }


# The names that the CLI reads from the module that owns them, so that a
# new suite, family or form needs no line of ``cli.py``: each verify
# suite, each table family, and each form by its method and function name.
OWNED_NAMES = set(verify.suite_names()) | set(formulas.TABLES) | _form_names() | COUNT_FORMS
# Words of the CLI's own that a suite or a family shares: the modular
# restriction of ``count --format json`` and the ones field of ``enum``.
CLI_WORDS = {"modular", "ones"}


def _literals(tree, names):
    """The ``names`` that a string literal of ``tree`` spells out whole."""
    return sorted(
        {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        & names
    )


def test_cli_and_verify_reach_the_forms_through_the_resolver():
    assert {"all", "formulas", "ones", "total", "power", "recursion"} <= OWNED_NAMES
    for name in ("cli.py", "verify.py"):
        path = SRC / name
        tree = ast.parse(path.read_text(), filename=str(path))
        assert _named(tree) == [], name
        attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "routes" in attributes, name
        if name == "cli.py":
            assert _literals(tree, OWNED_NAMES - CLI_WORDS) == [], name


def test_form_named_outside_the_resolver_is_detected():
    source = (
        "from .formulas import pf_total\n"
        "from . import formulas\n"
        "def count(n, s):\n    return formulas.restricted_subtractive(n, s)\n"
        "def table(n):\n    return ppf_total(n)\n"
        "def modular(g, s):\n    return formulas.mod_count_k1(g, s)\n"
        "def resolved(n, s):\n    return formulas.routes('pf', {'s': s}, n)\n"
    )
    assert _named(ast.parse(source)) == [
        "mod_count_k1", "pf_total", "ppf_total", "restricted_subtractive",
    ]
    assert _named(ast.parse("'pf_total'\n# restricted_subtractive\n")) == []
    # a literal that spells out a suite, a family or a form is a second
    # owner of its name; one that only mentions it is not
    source = (
        '"""Counts by total, as abel checks."""\n'
        "SUITES = ('abel', 'all')\n"
        "def table(family):\n    return family == 'pf-restricted' or f'{family} ones'\n"
        "def count(method):\n    return method in ('auto', 'brute', 'power', 'pf_total')\n"
    )
    assert _literals(ast.parse(source), OWNED_NAMES) == [
        "abel", "all", "pf-restricted", "pf_total", "power",
    ]


def test_cli_and_verify_take_the_oracle_from_the_resolver():
    for name in ("cli.py", "verify.py"):
        path = SRC / name
        assert _named(ast.parse(path.read_text(), filename=str(path)), COUNT_ORACLES) == [], name


def test_oracle_named_outside_the_resolver_is_detected():
    source = (
        "from . import brute, formulas\n"
        "def count(kind, n, allowed):\n"
        "    if kind == 'pf':\n        return brute.count_restricted(n, allowed)\n"
        "    return brute.count_prime_restricted(n, allowed)\n"
        "def resolved(kind, n, s):\n    return formulas.routes(kind, {'s': s}, n)[1]\n"
    )
    found = _named(ast.parse(source), COUNT_ORACLES)
    assert found == ["count_prime_restricted", "count_restricted"]
    assert _named(ast.parse("'count_restricted'\n"), COUNT_ORACLES) == []


def _names_brute(node) -> bool:
    """Whether ``node`` names the module ``brute``: as a name, an
    attribute, an import or a module path string such as ``".brute"``."""
    if isinstance(node, ast.Name):
        return node.id == "brute"
    if isinstance(node, ast.Attribute):
        return node.attr == "brute"
    if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "brute":
        return True
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return any(alias.name.split(".")[-1] == "brute" for alias in node.names)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return re.fullmatch(r"[\w.]*\.brute|brute", node.value) is not None
    return False


def _brute_owners(tree):
    """The module-level functions of ``tree`` that name ``brute``;
    ``<module>`` for a statement outside any function."""
    return sorted(
        {
            top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else "<module>"
            for top in tree.body
            if any(_names_brute(node) for node in ast.walk(top))
        }
    )


def test_only_routes_names_brute_in_formulas():
    # no form may reach the oracle that checks it, and loading formulas
    # (as every ``table`` does) must not load brute
    path = SRC / "formulas.py"
    assert _brute_owners(ast.parse(path.read_text(), filename=str(path))) == ["routes"]


def test_brute_named_outside_routes_is_detected():
    source = (
        '"""Checked against :mod:`parkres.brute` by brute force."""\n'
        "from . import brute\n"
        "from importlib import import_module\n"
        "def form(n):\n    return brute.count_restricted(n, range(1, n + 1))\n"
        "def loader():\n    return import_module('.brute', __package__)\n"
        "def routes(kind):\n    from .brute import count_restricted\n    return count_restricted\n"
        "def plain(n):\n    'Not a brute-force count of parkres.brute.'\n    return n\n"
    )
    assert _brute_owners(ast.parse(source)) == ["<module>", "form", "loader", "routes"]
