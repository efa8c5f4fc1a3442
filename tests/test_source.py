"""Rules that hold for the library source as a whole."""

import ast
import inspect
import re
from itertools import combinations, product
from pathlib import Path

from parkres import brute, formulas, verify

SRC = Path(__file__).resolve().parent.parent / "src" / "parkres"
# Each library module by name, parsed once.
TREES = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SRC.glob("*.py")}


def test_library_has_no_assert():
    # ``python -O`` strips assert statements, so a check written as one
    # would silently stop running; library checks raise instead.
    assert TREES
    found = [f"{name}.py:{line}" for name, tree in TREES.items() for line in _assertions(tree)]
    assert not found, f"assertions in library code: {found}"


def _argument_checks(trees):
    """Where each ``_ints`` and ``_check_*`` function of ``trees`` is
    defined, as ``module.name``."""
    return sorted(
        f"{name}.{node.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and (node.name == "_ints" or node.name.startswith("_check_"))
    )


def test_argument_checks_live_in_exceptions():
    # each argument rule is written once, beside the DomainError it raises
    checks = _argument_checks(TREES)
    assert "exceptions._ints" in checks
    assert [name for name in checks if not name.startswith("exceptions.")] == []


def test_argument_check_copy_is_detected():
    trees = {
        "exceptions": ast.parse("def _ints(*v):\n    return v\n"),
        "formulas": ast.parse("def _check_ns(n, s):\n    return n, s\ndef _check(x):\n    return x\n"),
        "brute": ast.parse("def f(n):\n    def _ints(*v):\n        return v\n    return _ints(n)\n"),
    }
    assert _argument_checks(trees) == ["brute._ints", "exceptions._ints", "formulas._check_ns"]


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _borrowed_privates(trees):
    """``module: owner.name`` for each private name that a module of
    ``trees`` takes from another library module, at any depth, by a
    relative import or as an attribute of a module so imported; the
    argument checks of ``exceptions`` are shared by design."""
    found = []
    for name, tree in trees.items():
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
        modules = {alias.asname or alias.name for node in imports if not node.module for alias in node.names}
        found += [
            f"{name}: {node.module}.{alias.name}"
            for node in imports
            if node.module not in (None, "exceptions")
            for alias in node.names
            if _private(alias.name)
        ]
        found += [
            f"{name}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules - {"exceptions"} and _private(node.attr)
        ]
    return sorted(found)


def test_no_module_borrows_a_private_helper():
    # a private helper lives in the one module that calls it
    assert _borrowed_privates(TREES) == []


def test_borrowed_private_helper_is_detected():
    trees = {
        "circular": ast.parse(
            "from .brute import _x, count_restricted\n"
            "from .exceptions import _ints\n"
            "from . import __version__, brute, exceptions\n"
            "def f(n):\n    from .core import _odd\n"
            "    return brute._rows(n), exceptions._ints(n), brute.count_restricted(n)\n"
        ),
    }
    assert _borrowed_privates(trees) == ["circular: brute._rows", "circular: brute._x", "circular: core._odd"]


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
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    return [
        f"{inner.name}:{inner.lineno}"
        for outer in ast.walk(tree) if isinstance(outer, functions)
        for inner in ast.walk(outer) if inner is not outer and isinstance(inner, functions)
        if any(
            isinstance(node, ast.Name) and node.id == inner.name
            for stmt in inner.body
            for node in ast.walk(stmt)
        )
    ]


def test_no_self_calling_closures():
    found = [f"{name}.py:{f}" for name, tree in TREES.items() for f in _self_calling_closures(tree)]
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
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = {node.module or "" for node in imports if isinstance(node, ast.ImportFrom)}
    return modules | {alias.name for node in imports for alias in node.names}


def test_oracles_import_nothing_from_formulas():
    # brute and circular are the independent checks of formulas: they keep
    # their own helpers rather than borrow those of the route they check,
    # and share with it only the argument checks of ``exceptions``
    for name in ("brute", "circular"):
        imported = _imported(TREES[name])
        assert imported and not any(part.split(".")[-1] == "formulas" for part in imported), name


def _restriction_readers(trees):
    """``module.function`` for each module-level function (``<module>``
    outside any) of ``trees`` that subscripts a name ending in
    ``restriction``, or reads an attribute of it such as ``get``."""
    found = set()
    for name, tree in trees.items():
        for top in tree.body:
            for node in ast.walk(top):
                read = node.value if isinstance(node, (ast.Subscript, ast.Attribute)) else None
                if isinstance(read, ast.Name) and read.id.endswith("restriction"):
                    found.add(f"{name}.{getattr(top, 'name', '<module>')}")
    return sorted(found)


def test_restriction_objects_are_read_once():
    # a count request's forms and its oracle read its restriction object
    # by the one reader, so they cannot count different requests
    assert _restriction_readers(TREES) == ["exceptions._check_request"]


def test_second_restriction_reader_is_detected():
    source = (
        "def _check_request(restriction, n):\n    return restriction.get('kind'), restriction['s']\n"
        "def spots(restriction, n):\n    return range(1, restriction['s'] + 1)\n"
        "def kind_of(count_restriction):\n    return count_restriction.get('kind')\n"
        "def passes(restriction):\n    return print(restriction), _check_restriction(3, [1])[1]\n"
        "LAST = default_restriction['s']\n"
    )
    found = _restriction_readers({"m": ast.parse(source)})
    assert found == ["m.<module>", "m._check_request", "m.kind_of", "m.spots"]


def _imports_argparse(tree):
    return any(name.split(".")[0] == "argparse" for name in _imported(tree))


def test_library_does_not_import_argparse():
    # each CLI call is a fresh process, and argparse (with the gettext and
    # locale it loads) costs more to import than most requests take to run
    assert TREES
    found = [name for name, tree in TREES.items() if _imports_argparse(tree)]
    assert not found, f"argparse imported by {found}"


def test_argparse_import_is_detected():
    for source in (
        "import argparse\n",
        "import argparse as ap\n",
        "def f():\n    from argparse import ArgumentParser\n",
    ):
        assert _imports_argparse(ast.parse(source)), source
    assert not _imports_argparse(ast.parse("import math\nfrom . import cli\n"))


# The kind and the routes of requests of every kind ``formulas.routes``
# counts: each kind on the segments [1..5] with 5 cars, and pf and ppf
# modular at g = 2, s = 3.
ROUTES = [
    (kind, formulas.routes(kind, {"kind": "segment", "s": s}, 5))
    for kind in ("pf", "ppf", "defect", "orbits", "ones")
    for s in range(1, 6)
] + [
    (kind, formulas.routes(kind, {"kind": "modular", "g": 2, "s": 3, "k": k}, 6 - k))
    for kind in ("pf", "ppf")
    for k in (1, 2)
]


def _oracle_count(kind):
    """The ``brute`` function that the oracle of ``kind`` calls, the
    brute-force count of its entry in the family table, as a set of one
    name."""
    return {f"brute.{name}" for name in formulas.FAMILIES[kind].count.__code__.co_names}


def _form_names(form):
    """The ``formulas`` functions that a form of the family table calls,
    by name; a route's form is the table's form bound to the request
    (``form.func``)."""
    return set(form.__code__.co_names)


# The route-independence audit: no two routes compared by a check may
# reach the same package function or private module-level state, but the
# argument checks: the functions of ``exceptions``.
ALLOWED = {
    f"exceptions.{node.name}"
    for node in TREES["exceptions"].body
    if isinstance(node, ast.FunctionDef)
}
# The compared routes that ``formulas.routes`` does not name, each with
# the ``verify`` check that compares them.
COMPARED = {
    ("brute.fiber_size_bruteforce", "formulas.fiber_size_formula"): "check_fibers",
    # the fibers of the outcome map partition the [s]-restricted lists
    ("brute.count_restricted", "brute.fiber_size_bruteforce"): "check_fibers",
    ("circular.modular_census", "circular.verify_relation"): "check_modular",
    # the relation predicts each class from brute-force counts of its blocks
    ("brute.count_restricted", "circular.modular_census"): "check_modular",
}


def _defines(node):
    """The function or private state a module-level statement defines."""
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        stored = [sub for sub in ast.walk(node) if isinstance(sub, ast.Name)]
        return [sub.id for sub in stored if isinstance(sub.ctx, ast.Store) and sub.id[0] == "_"]
    return [node.name] if isinstance(node, ast.FunctionDef) else []


def _index(trees):
    """``{"module.function": what it names}`` for each module-level
    function of ``trees``: the package functions and private module-level
    state that it, its nested functions and its lambdas name, through the
    relative imports too.  Classes are not followed."""
    own = {
        mod: {name: f"{mod}.{name}" for top in tree.body for name in _defines(top)}
        for mod, tree in trees.items()
    }
    defined = {name for names in own.values() for name in names.values()}
    index = {}
    for mod, tree in trees.items():
        for top in filter(lambda node: isinstance(node, ast.FunctionDef), tree.body):
            bound = {  # ``from . import x`` binds x, ``from .x import y`` binds x.y
                alias.asname or alias.name: ".".join(filter(None, (node.module, alias.name)))
                for node in [*tree.body, *ast.walk(top)]
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names
            } | own[mod]
            named = {bound.get(sub.id) for sub in ast.walk(top) if isinstance(sub, ast.Name)}
            named |= {
                f"{bound.get(sub.value.id)}.{sub.attr}"
                for sub in ast.walk(top)
                if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
            }
            index[f"{mod}.{top.name}"] = named & defined
    return index


def _closure(index, entry, stop):
    """What ``entry`` reaches in ``index``, not through ``stop``."""
    seen, todo = set(), [entry]
    while todo:
        for name in index.get(todo.pop(), set()) - seen - {stop}:
            seen.add(name)
            todo.append(name)
    return seen


def _shares(index, pairs, allowed=ALLOWED):
    """``{(a, b): what both reach}`` less ``allowed``, neither side
    followed through the other."""
    both = {(a, b): _closure(index, a, b) & _closure(index, b, a) for a, b in pairs}
    return {pair: sorted(names - allowed) for pair, names in both.items()}


def _compared_pairs(index):
    """``{(a, b): check}``: every two routes of one request in ``ROUTES``,
    each form by the function its lambda calls and the oracle by the
    ``brute`` count of its kind; then ``COMPARED``."""
    pairs = {}
    for kind, routes in ROUTES:
        forms = [route for method, route in routes.items() if method != "brute"]
        named = [{f"formulas.{name}" for name in _form_names(form.func)} for form in forms]
        named.append(_oracle_count(kind))
        sides = [side & index.keys() for side in named]
        assert all(sides), forms
        for one, other in combinations(sides, 2):
            pairs.update(dict.fromkeys(map(tuple, map(sorted, product(one, other))), "routes"))
    return {**pairs, **COMPARED}


def _package_index():
    return _index({name: tree for name, tree in TREES.items() if name != "__init__"})


def test_compared_routes_share_no_code():
    index = _package_index()
    pairs = _compared_pairs(index)
    shares, every = _shares(index, pairs), _shares(index, pairs, allowed=set())
    audit = "\n".join(  # each pair, what it shares, and what of that is not allowed
        f"{pair} ({check}): {every[pair]}, not allowed {shares[pair]}"
        for pair, check in pairs.items()
    )
    # every counting entry point is compared, as is every function routes resolves to
    entries = {name for name in index if name.startswith("brute.count_")} | {
        "brute.ones_distribution", "brute.fiber_size_bruteforce", "circular.modular_census",
    }
    assert len(pairs) >= 27 and entries <= {name for pair in pairs for name in pair}, audit
    assert all(_closure(index, a, b) and _closure(index, b, a) for a, b in pairs), audit
    assert all(hasattr(verify, check) for check in COMPARED.values())
    for name in ALLOWED:
        assert any(name in named for named in index.values()), name
    assert not any(shares.values()), audit


# Pairs of the audit that the library's rules were first written for.
SUMS = [
    ("formulas.restricted_alternating", "formulas.restricted_subtractive"),
    ("formulas.prime_alternating", "formulas.prime_subtractive"),
]
WALKS = ("brute.count_min_defect", "brute.count_restricted")
CENSUS = ("circular.modular_census", "circular.verify_relation")
ONES = ("formulas.ones_poly_alternating", "formulas.ones_poly_subtractive")


def test_count_forms_share_no_private_helper():
    index = _package_index()
    assert set(SUMS) <= _compared_pairs(index).keys()
    assert _shares(index, SUMS) == dict.fromkeys(SUMS, [])


def test_min_defect_does_not_reach_the_parking_route():
    index = _package_index()
    assert {"brute._count_parking", "brute._count_walk"} <= _closure(index, *WALKS[::-1])
    assert not {"brute._count_parking", "brute._count_walk"} & _closure(index, *WALKS)
    assert _shares(index, [WALKS]) == {WALKS: []}


def test_relation_shares_no_walk_with_the_census():
    assert _shares(_package_index(), [CENSUS]) == {CENSUS: []}


def test_ones_forms_share_only_the_allowed_helpers():
    # each form builds its terms' coefficients in a loop of its own: what
    # the two share is the argument check alone
    index = _package_index()
    assert ONES in _compared_pairs(index)
    checks = ["exceptions._check_ns", "exceptions._ints"]
    assert _shares(index, [ONES], allowed=set()) == {ONES: checks}
    assert set(checks) <= ALLOWED


# Twin sources for the audit, each a small package of its own.
FORMS = ("formulas.sub", "formulas.alt")
CORE = "def _odd_part(n):\n    return n >> 1\n"
EXCEPTIONS = (
    "def _ints(*v):\n    return v\n"
    "def _check_ns(n, s):\n    return _ints(n, s)\n"
    "def _check_gsk(g):\n    return _ints(g)\n"
)
RELATION = (
    "from .exceptions import _check_gsk\n"
    "from .brute import _binomial_rows\n"
    "def _largest_period(c):\n    return len(c)\n"
    "def _walk(m):\n    return _binomial_rows(m)\n"
    "def _census(g):\n    return _walk(g) + [_largest_period(g)]\n"
    "def modular_census(g):\n    _check_gsk(g)\n    return _census(g)\n"
    "def _least_period(pairs):\n    return _largest_period(pairs)\n"
    "def verify_relation(g):\n"
    "    _check_gsk(g)\n    return modular_census(g), _least_period(g), _binomial_rows(g)\n"
)


def _assert_shares(cases):
    """Each case: the sources, and what each pair of them shares."""
    for sources, shared in cases:
        index = _index({name: ast.parse(source) for name, source in sources.items()})
        assert _shares(index, shared) == shared, sources


def test_shared_count_helper_is_detected():
    memo = (
        "from .exceptions import _ints\n"
        "_MEMO = {}\n"
        "def _power_pair(a, e, b, f):\n    return a**e * b**f\n"
        "def sub(n):\n    _ints(n)\n    return _power_pair(n, 1, n, 1) + len(_MEMO)\n"
        "def alt(n):\n    _ints(n)\n    return _power_pair(n, 2, n, 0) + len(_MEMO)\n"
        "def other(n):\n    _ints(n)\n    return n\n"
    )
    sources = {"formulas": memo, "exceptions": EXCEPTIONS}
    _assert_shares([
        (sources, {FORMS: ["formulas._MEMO", "formulas._power_pair"]}),
        (sources, {("formulas.sub", "formulas.other"): []}),
    ])


def test_reached_parking_route_is_detected():
    parking = (
        "def _start(n):\n    return (n,)\n"
        "def _bounds(state):\n    return state\n"
        "def _count_walk(need):\n    return need[0]\n"
        "def _rows(n):\n    return [n]\n"
        "def _walk(n):\n    return _count_walk(_bounds(_start(n)))\n"
        "def _direct(n):\n    return _rows(n)\n"
        "def count_min_defect(n):\n    return _direct(n) + _walk(n)\n"
        "def count_plain(n):\n    return _direct(n)\n"
        "def count_restricted(n):\n    return _count_walk(_bounds(_start(n)))\n"
    )
    _assert_shares([
        ({"brute": parking}, {WALKS: ["brute._bounds", "brute._count_walk", "brute._start"]}),
        ({"brute": parking}, {("brute.count_plain", "brute.count_restricted"): []}),
    ])


def test_relation_sharing_with_the_census_is_detected():
    rest = {"brute": "def _binomial_rows(m):\n    return [m]\n", "exceptions": EXCEPTIONS}
    # what the relation reaches only through the census is the census's own
    through_census = RELATION.replace(", _least_period(g), _binomial_rows(g)", "")
    _assert_shares([
        ({"circular": RELATION, **rest}, {CENSUS: ["brute._binomial_rows", "circular._largest_period"]}),
        ({"circular": through_census, **rest}, {CENSUS: []}),
    ])


def test_route_sharing_is_detected():
    two_deep = (
        "def _power_product(a, e):\n    return a**e\n"
        "def _hop(a, e):\n    return _power_product(a, e)\n"
        "def _binomial_series(n, term):\n    return sum(map(term, range(n)))\n"
        "def sub(n):\n    return _power_product(n, n)\n"
        "def alt(n):\n    return _binomial_series(n, lambda i: _hop(i, n))\n"
    )
    # the ones pair building its terms' coefficients through shared helpers:
    # only the argument check is allowed
    builders = (
        "from .exceptions import _check_ns\n"
        "def _binomial_coeffs(n, c):\n    return [c] * n\n"
        "def _ones_factor(i):\n    return _binomial_coeffs(i - 1, i)\n"
        "def sub(n, s):\n    return _check_ns(_ones_factor(n), _binomial_coeffs(n, s))\n"
        "def alt(n, s):\n    return _check_ns(n, _ones_factor(s))\n"
    )
    # the ones pair adding its terms through one helper, not each in its own loop
    accumulated = (
        "def _add_scaled(total, scale, factor):\n"
        "    for j, f in enumerate(factor):\n        total[j] += scale * f\n    return total\n"
        "def sub(n, s):\n    return _add_scaled([1] * n, -1, [s])\n"
        "def alt(n, s):\n    return _add_scaled([0] * n, 1, [n])\n"
    )
    across = {  # brute and formulas both reach a private helper of core
        "core": CORE,
        "exceptions": EXCEPTIONS,
        "brute": "from .core import _odd_part\ndef count(n):\n    return _odd_part(n)\n",
        "formulas": "from . import core, exceptions\n"
        "def sub(n):\n    return exceptions._ints(core._odd_part(n))\n",
    }
    _assert_shares([
        ({"formulas": two_deep}, {FORMS: ["formulas._power_product"]}),
        (across, {("formulas.sub", "brute.count"): ["core._odd_part"]}),
        ({"formulas": builders, "exceptions": EXCEPTIONS},
         {FORMS: ["formulas._binomial_coeffs", "formulas._ones_factor"]}),
        ({"formulas": accumulated}, {FORMS: ["formulas._add_scaled"]}),
    ])


# The count forms: the CLI and the verify suites reach them only through
# ``formulas.routes``, so a form added there is counted by ``count`` and
# ``table`` and checked by ``verify`` with no code of their own.  Each is
# named by the function its lambda calls.
COUNT_FORMS = {
    name
    for _, routes in ROUTES
    for method, form in routes.items()
    if method != "brute"
    for name in _form_names(form.func)
}
# The brute-force counts that ``formulas.routes`` names as the oracles.
COUNT_ORACLES = {name.split(".")[1] for kind, _ in ROUTES for name in _oracle_count(kind)}


def _named(tree, names=COUNT_FORMS):
    """The ``names`` that ``tree`` names: as a name, an attribute or an
    import."""
    fields = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    named = {getattr(node, fields[type(node)]) for node in ast.walk(tree) if type(node) in fields}
    return sorted(named & names)


# The names that the CLI reads from the module that owns them, so that a
# new suite, family or form needs no line of ``cli.py``: each verify
# suite, each table family, and each form by its method and function name.
OWNED_NAMES = (
    set(verify.suite_names()) | set(formulas.TABLES) | COUNT_FORMS
    | {method for _, routes in ROUTES for method in routes if method != "brute"}
)
# Words of the CLI's own that a suite or a family shares: the modular
# restriction of ``count --format json`` and the ones field of ``enum``.
CLI_WORDS = {"modular", "ones"}


def _literals(tree, names):
    """The ``names`` that a string literal of ``tree`` spells out whole."""
    values = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    return sorted(values & names)


def test_cli_and_verify_reach_the_forms_through_the_resolver():
    assert {"all", "formulas", "ones", "total", "power", "recursion", "triangle"} <= OWNED_NAMES
    assert {"catalan_triangle", "ones_poly_subtractive", "ones_poly_total"} < COUNT_FORMS
    for name in ("cli", "verify"):
        tree = TREES[name]
        assert _named(tree) == [], name
        attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "routes" in attributes, name
        if name == "cli":
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


# Each kind's label, as its verify check prints it, and the functions that
# the kinds' forms on a segment call: the family table of ``formulas`` is
# their one owner, so a second list of kinds cannot come back beside it.
LABELS = {family.label for family in formulas.FAMILIES.values()}
SEGMENT_FORMS = {
    name
    for family in formulas.FAMILIES.values()
    for _, form, _ in family.forms["segment"]
    for name in _form_names(form)
}
# Words of a module's own that a label shares: the ones field of ``enum``'s
# records, and the prime recoloring involution of ``verify``.
OWN_WORDS = {"cli": {"ones"}, "verify": {"prime"}}


def _second_owners(trees):
    """``module: name`` for each label that a string literal of a module
    other than ``formulas`` spells out whole (but for the module's own
    words), and ``module: name()`` for each segment form it calls."""
    found = []
    for module, tree in trees.items():
        if module == "formulas":
            continue
        found += [f"{module}: {label}" for label in _literals(tree, LABELS - OWN_WORDS.get(module, set()))]
        called = {
            getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        }
        found += [f"{module}: {name}()" for name in sorted(called & SEGMENT_FORMS)]
    return sorted(found)


def test_only_the_family_table_spells_out_labels_and_calls_segment_forms():
    assert LABELS == {"restricted", "prime", "min-defect", "orbit", "ones"}
    assert {"pf_total", "ppf_total", "catalan_triangle", "ones_poly_alternating"} < SEGMENT_FORMS
    assert _second_owners(TREES) == []


def test_second_owner_of_a_family_is_detected():
    sources = {
        "formulas": "LABELS = ('restricted', 'orbit')\ndef t(n):\n    return catalan_triangle(n, 0)\n",
        "verify": (
            "from . import formulas\n"
            "_LABELS = {'pf': 'restricted', 'ppf': 'prime', 'defect': 'min-defect'}\n"
            "def involution(prime):\n    return 'prime' if prime else 'plain'\n"
            "def table(n):\n    return [formulas.catalan_triangle(n, k) for k in range(n)]\n"
        ),
        "cli": (
            "from .formulas import pf_total\n"
            "FIELDS = ('prefs', 'ones')\n"
            "def count(n):\n    return pf_total(n), f'{n} ones', 'orbit'\n"
        ),
    }
    assert _second_owners({name: ast.parse(source) for name, source in sources.items()}) == [
        "cli: orbit", "cli: pf_total()", "verify: catalan_triangle()", "verify: min-defect", "verify: restricted",
    ]


def test_cli_and_verify_take_the_oracle_from_the_resolver():
    assert {"count_min_defect", "count_nondecreasing_restricted", "ones_distribution"} < COUNT_ORACLES
    for name in ("cli", "verify"):
        assert _named(TREES[name], COUNT_ORACLES) == [], name


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
    return sorted({
        top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else "<module>"
        for top in tree.body
        if any(_names_brute(node) for node in ast.walk(top))
    })


def test_only_routes_names_brute_in_formulas():
    # no form may reach the oracle that checks it, and loading formulas
    # (as every ``table`` does) must not load brute
    assert _brute_owners(TREES["formulas"]) == ["routes"]


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


def _try_owners(tree):
    """The module-level functions of ``tree`` that hold a ``try``
    statement, at any depth; ``<module>`` for one outside any function."""
    tries = tuple(getattr(ast, name) for name in ("Try", "TryStar") if hasattr(ast, name))
    return sorted({
        top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else "<module>"
        for top in tree.body
        if any(isinstance(node, tries) for node in ast.walk(top))
    })


def test_verify_handles_faults_in_the_fold_alone():
    # a route that raises fails its own check in ``_check``; a second
    # handler would turn a fault into a case or hide it from the fold
    assert _try_owners(TREES["verify"]) == ["_check"]


def test_fault_handler_outside_the_fold_is_detected():
    source = (
        "def _check(name, outcomes):\n    try:\n        return list(outcomes)\n"
        "    except Exception:\n        return []\n"
        "def _cases(n):\n    for i in range(n):\n        try:\n            yield 1 / i\n"
        "        except ZeroDivisionError:\n            yield 'raised'\n"
        "try:\n    from math import comb\nexcept ImportError:\n    comb = None\n"
        "def plain(n):\n    return n\n"
    )
    assert _try_owners(ast.parse(source)) == ["<module>", "_cases", "_check"]


def _calls_routes(node) -> bool:
    """Whether ``node`` calls a function named ``routes``."""
    func = getattr(node, "func", None)
    return isinstance(node, ast.Call) and (getattr(func, "id", None) or getattr(func, "attr", None)) == "routes"


def _route_list_owners(trees):
    """``module.function`` (``module.<module>`` outside any function) for
    each dict display that holds a ``"brute"`` key, or merges the result
    of a ``routes(...)`` call with ``**``, in a module but ``formulas``
    and ``__init__`` (whose namespace table is keyed by module)."""
    found = set()
    for module, tree in trees.items():
        if module in ("formulas", "__init__"):
            continue
        for top in tree.body:
            for node in filter(lambda node: isinstance(node, ast.Dict), ast.walk(top)):
                if any(
                    (isinstance(key, ast.Constant) and key.value == "brute")
                    or (key is None and _calls_routes(value))
                    for key, value in zip(node.keys, node.values)
                ):
                    found.add(f"{module}.{getattr(top, 'name', '<module>')}")
    return sorted(found)


def test_only_routes_lists_the_routes_of_a_request():
    # count, table and verify read the one list that ``formulas.routes``
    # gives, the oracle last; a list built beside it could drop a route
    assert _route_list_owners(TREES) == []


def test_second_route_list_is_detected():
    sources = {
        "formulas": "def routes(kind):\n    return {'total': 1, 'brute': 2}\n",
        "verify": (
            "from . import formulas\n"
            "def _routes(kind, n, s):\n"
            "    forms, oracle = formulas.routes(kind, {'kind': 'segment', 's': s}, n)\n"
            "    return {**forms, 'brute': oracle}\n"
            "def merged(kind, n):\n    return {**formulas.routes(kind, {}, n), 'extra': None}\n"
            "def plain(kind, n):\n"
            "    return {'method': 'brute'}, formulas.routes(kind, {}, n)['brute']()\n"
        ),
        "cli": "ORACLES = {'brute': None}\n",
        "__init__": "_MODULES = {'brute': ('count_restricted',)}\n",
    }
    assert _route_list_owners({name: ast.parse(source) for name, source in sources.items()}) == [
        "cli.<module>", "verify._routes", "verify.merged",
    ]


def _guard_raisers(tree):
    """The module-level functions of ``tree`` that raise
    ``NonIntegerIntermediate`` themselves, at any depth, by name or as an
    attribute such as ``exceptions.NonIntegerIntermediate``; ``<module>``
    for a raise outside any function."""
    return sorted({
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Raise)
        and any(
            (getattr(sub, "id", None) or getattr(sub, "attr", None)) == "NonIntegerIntermediate"
            for sub in ast.walk(node)
        )
    })


def test_formulas_leaves_inexact_division_to_the_guard():
    # each count form divides through ``exceptions._exact``: a hand-kept
    # divmod and raise beside it is a second copy of the rule
    assert "_exact" in _imported(TREES["formulas"])
    assert _guard_raisers(TREES["formulas"]) == []


def test_hand_kept_guard_is_detected():
    source = (
        "from . import exceptions\n"
        "from .exceptions import NonIntegerIntermediate, _exact\n"
        "def form(t, q):\n    total, remainder = divmod(t, q)\n"
        "    if remainder:\n        raise NonIntegerIntermediate('not integral')\n    return total\n"
        "def table(m):\n    def fill(value):\n        if value < 0:\n"
        "            raise exceptions.NonIntegerIntermediate('negative')\n    return fill(m)\n"
        "def guarded(t, q):\n    return _exact(t, q, 'the sum')\n"
        "def other(n):\n    raise ValueError('not a NonIntegerIntermediate')\n"
        "if False:\n    raise NonIntegerIntermediate\n"
    )
    assert _guard_raisers(ast.parse(source)) == ["<module>", "form", "table"]
