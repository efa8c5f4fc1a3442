"""Cross-verification suites.

Every closed form in :mod:`parkres.formulas` and every bijection in
:mod:`parkres.bijections` is checked here against the brute-force oracles
of :mod:`parkres.brute`, exhaustively up to the requested bounds.  The CLI
``verify`` subcommand and the acceptance tests both run these.

Each check is one :func:`_check` fold over its outcomes: an iterable that
yields one item per compared case, falsy when the case agrees and a
mismatch description otherwise.  The fold counts and times the cases,
keeps the last mismatch, and fails a check that compared no cases, so no
check can pass vacuously.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, factorial, prod
from time import perf_counter
from typing import Iterable, Iterator, NamedTuple

from . import bijections, brute, circular, core, formulas
from .bijections import FIXED_POINT, ColoredPF
from .exceptions import DomainError, ParkresError


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str = ""
    cases: int = 0  # the cases compared
    elapsed_s: float = 0.0  # the time taken to compute and compare them


def _check(name: str, outcomes: Iterable) -> Check:
    """Fold one item per compared case (falsy: the case agrees; otherwise
    a mismatch description) into a check that keeps the last mismatch.
    ``outcomes`` computes each case as the fold draws it, so the check's
    time is the time of its cases."""
    start = perf_counter()
    cases = 0
    detail = ""
    for outcome in outcomes:
        cases += 1
        if outcome:
            detail = str(outcome)
    if cases == 0:
        detail = "compared no cases"
    return Check(name, not detail, detail, cases, perf_counter() - start)


def _differ(label: str, got, want) -> str:
    """An empty string when ``got == want``, else a mismatch description."""
    return "" if got == want else f"{label}: {got} != {want}"


def _grid(n_max: int, strict: bool = False) -> Iterator[tuple]:
    """Every (n, s) with 1 <= s <= n <= n_max, or s < n when ``strict``."""
    for n in range(1, n_max + 1):
        for s in range(1, n if strict else n + 1):
            yield n, s


def _on_grid(name: str, n_max: int, got, want) -> Check:
    """Compare ``got(n, s)`` with ``want(n, s)`` at every (n, s) of the grid."""
    return _check(name, (_differ(f"n={n}, s={s}", got(n, s), want(n, s)) for n, s in _grid(n_max)))


def _count(kind: str, n: int, s: int) -> int:
    """The brute-force count of [s]-restricted ``kind`` lists on n cars, by
    the oracle that :func:`formulas.routes` names for that request."""
    return formulas.routes(kind, {"kind": "segment", "s": s}, n)[1](n, range(1, s + 1))


def _agree(case: str, forms: dict) -> Iterator:
    """One case per form after the first, against the first."""
    (first, form), *rest = forms.items()
    want = form()
    for method, other in rest:
        yield _differ(f"{case}: {method} vs {first}", other(), want)


# The closed forms are compared with each other up to this n, beyond the
# reach of brute force.
FORMULA_N_MAX = 12


def check_closed_forms(kind: str, n_max: int = 6) -> list:
    """Every closed form of the [s]-restricted ``kind`` count (pf or ppf)
    that :func:`formulas.routes` gives, against the first, and the first
    against the brute-force oracle it names."""
    label = "restricted" if kind == "pf" else "prime"

    def forms(n, s):
        return formulas.routes(kind, {"kind": "segment", "s": s}, n)[0]

    return [
        _check(
            f"{label} forms agree (n <= {FORMULA_N_MAX})",
            (d for n, s in _grid(FORMULA_N_MAX) for d in _agree(f"n={n}, s={s}", forms(n, s))),
        ),
        _on_grid(
            f"{label} forms match brute force (n <= {n_max})",
            n_max,
            lambda n, s: next(iter(forms(n, s).values()))(),
            lambda n, s: _count(kind, n, s),
        ),
    ]


def _defect_floor(n_max: int) -> Iterator:
    for n, s in _grid(n_max):
        for prefs in product(range(1, s + 1), repeat=n):
            d = core.defect(prefs, s)
            if d < n - s:
                yield f"{prefs} on {s} spots has defect {d} < {n - s}"
            elif (d == n - s) != core.catalan_check(prefs):
                yield f"{prefs} on {s} spots: floor/restriction mismatch"
            else:
                yield ""


def check_defect(n_max: int = 6) -> list:
    """Minimum-defect functions are exactly the [s]-restricted parking
    functions, and no function beats the floor n - s."""
    return [
        _on_grid(
            f"min-defect count == restricted count (n <= {n_max})",
            n_max,
            brute.count_min_defect,
            lambda n, s: _count("pf", n, s),
        ),
        _check(
            "defect floor n - s attained exactly on restricted lists",
            _defect_floor(min(n_max, 5)),
        ),
    ]


def check_orbits(n_max: int = 8) -> list:
    """Orbit counts against the Catalan triangle."""
    orbits = brute.count_nondecreasing_restricted
    return [
        _on_grid(
            f"orbit counts == Catalan triangle (n <= {n_max})",
            n_max,
            lambda n, s: formulas.catalan_triangle(n, s - 1),
            orbits,
        ),
        _check(
            "triangle diagonal gives Catalan numbers",
            (
                _differ(f"n={n}", formulas.catalan_number(n), want)
                for n, want in enumerate([1, 2, 5, 14, 42, 132], start=1)
            ),
        ),
        _check(
            "orbit recurrence holds",
            (
                _differ(f"n={n}, s={s}", orbits(n, s), orbits(n - 1, s) + orbits(n, s - 1))
                for n, s in _grid(n_max, strict=True)
                if s > 1
            ),
        ),
    ]


def _ones_forms(n_max: int) -> Iterator:
    for n, s in _grid(n_max):
        a = formulas.ones_poly_subtractive(n, s)
        yield _differ(f"n={n}, s={s}", a, formulas.ones_poly_alternating(n, s))
        yield _differ(f"n={n}, s={s}: constant term", a[0], 0)
        if s == n:  # x*(x+n)**(n-1), by the binomial theorem
            want = (0,) + tuple(comb(n - 1, j) * n ** (n - 1 - j) for j in range(n))
            yield _differ(f"n={n}: unrestricted enumerator", a, want)


# The two ones-enumerator polynomials are compared up to this n.
POLY_N_MAX = 8


def check_abel(n_max: int = 10) -> list:
    """Abel's identity on a rational grid, plus the ones-enumerator pair."""
    from fractions import Fraction  # only here, to keep it out of every CLI start

    grid = [Fraction(v) for v in range(-3, 4)] + [Fraction(1, 2), Fraction(-1, 2)]

    def abel(n, x, y, want=None):
        res = formulas.abel_check(n, x, y)
        return _differ(f"n={n}, x={x}, y={y}", res.lhs, res.rhs) or (
            want is not None and _differ(f"n={n}, x={x}, y={y}: value", res.lhs, want)
        )

    return [
        _check(
            f"Abel identity on rational grid (n <= {n_max})",
            (abel(n, x, y) for n in range(1, n_max + 1) for x in grid for y in grid),
        ),
        _check(
            "restricted-count specializations evaluate to s**n",
            (abel(n, x, s - n - x, s**n) for n, s in _grid(n_max) for x in (1, -1)),
        ),
        _check(f"ones enumerator forms agree (n <= {POLY_N_MAX})", _ones_forms(POLY_N_MAX)),
    ]


def _ones(n_max: int) -> Iterator:
    for n, s in _grid(n_max):
        coeffs = formulas.ones_poly_subtractive(n, s)
        yield _differ(f"n={n}, s={s}: brute vs formula", brute.ones_distribution(n, s), coeffs[1:])
        yield _differ(f"n={n}, s={s}: value at 1", sum(coeffs), _count("pf", n, s))


def check_ones(n_max: int = 6) -> list:
    """Ones enumerator against the brute-force distribution."""
    return [_check(f"ones distribution matches enumerator (n <= {n_max})", _ones(n_max))]


def _fibers(n_max: int) -> Iterator:
    for n, s in _grid(n_max):
        total = 0
        for sigma in permutations(range(1, n + 1)):
            want = brute.fiber_size_bruteforce(sigma, s)
            total += want
            yield _differ(f"sigma={sigma}, s={s}", formulas.fiber_size_formula(sigma, s), want)
        yield _differ(f"n={n}, s={s}: fiber sum", total, _count("pf", n, s))


def check_fibers(n_max: int = 5) -> list:
    """Fiber sizes of the outcome map, formula vs. enumeration."""
    return [_check(f"outcome fibers match formula (n <= {n_max})", _fibers(n_max))]


def _subsets_with_one(n: int) -> Iterator[tuple]:
    rest = list(range(2, n + 1))
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            yield (1,) + extra


def _shift_bijection(n_max: int) -> Iterator:
    for n in range(1, n_max + 1):
        for S in _subsets_with_one(n):
            target = set(brute.enum_restricted(n, bijections.shift_restriction(S, n)))
            image = set()
            for pi in brute.enum_prime_restricted(n, S):
                try:
                    psi = bijections.prime_to_restricted(pi, S)
                    image.add(psi)
                    back = bijections.restricted_to_prime(psi, S)
                except ParkresError as err:
                    yield f"round trip raises at {pi}, S={S}: {err}"
                    continue
                yield back != pi and f"round trip fails at {pi}, S={S}"
            yield image != target and f"n={n}, S={S}: image is not the shifted family"


def _u_parking(n_max: int) -> Iterator:
    # is_u_parking reads only the sorted list, so the u-parking lists over
    # [|S|] are every ordering of each sorted list it accepts: the image is
    # those lists iff, for each sorted list, it holds as many distinct
    # lists that sort to it as the list has orderings (none if refused).
    for n in range(1, n_max + 1):
        for size in range(1, n + 1):
            for S in combinations(range(1, n + 1), size):
                u = bijections.u_vector(S, n)
                image = {bijections.to_u_parking(pi, S) for pi in brute.enum_restricted(n, S)}
                target = Counter(
                    {
                        w: factorial(n) // prod(map(factorial, Counter(w).values()))
                        for w in combinations_with_replacement(range(1, size + 1), n)
                        if bijections.is_u_parking(w, u)
                    }
                )
                sortings = Counter(tuple(sorted(psi)) for psi in image)
                yield sortings != target and f"n={n}, S={S}: u-parking image mismatch"


def check_bijections(n_max: int = 5) -> list:
    """Shift bijection round trips and the u-parking correspondence."""
    return [
        _check(f"prime/restricted shift bijection (n <= {n_max})", _shift_bijection(n_max)),
        _check(f"u-parking correspondence (n <= {n_max})", _u_parking(n_max)),
    ]


def iter_colorings(n: int, s: int, prime: bool = False) -> Iterator[ColoredPF]:
    """All valid two-colored (prime) parking functions on n cars."""
    full = tuple(range(1, n + 1))
    for i in range(s, n + 1):
        if prime:
            indigo_lists = list(brute.enum_prime_restricted(i, range(1, i + 1)))
            forbidden = range(s + 1, i + 1)
        else:
            indigo_lists = list(brute.enum_restricted(i, range(1, i + 1)))
            forbidden = range(s + 1, i + 2)
        for positions in combinations(full, i):
            red_positions = [c for c in full if c not in positions]
            for indigo in indigo_lists:
                if i == n:
                    prefs = list(indigo)
                    yield ColoredPF.from_indigo_cars(prefs, positions, s, prime)
                    continue
                for reds in product(forbidden, repeat=n - i):
                    prefs = [0] * n
                    for car, p in zip(positions, indigo):
                        prefs[car - 1] = p
                    for car, p in zip(red_positions, reds):
                        prefs[car - 1] = p
                    yield ColoredPF.from_indigo_cars(prefs, positions, s, prime)


def _involution(n_max: int, prime: bool) -> Iterator:
    enum = brute.enum_prime_restricted if prime else brute.enum_restricted
    for n, s in _grid(n_max):
        signed = 0
        fixed = set()
        for colored in iter_colorings(n, s, prime):
            signed += colored.sign
            out = bijections.involution(colored)
            if out is FIXED_POINT:
                fixed.add(colored.prefs)
                restricted = colored.red_count == 0 and max(colored.prefs) <= s
                yield not restricted and f"bad fixed point {colored}"
            elif (out.red_count - colored.red_count) % 2 == 0:
                yield f"parity not flipped at {colored}"
            else:
                yield bijections.involution(out) != colored and f"not an involution at {colored}"
        yield _differ(f"n={n}, s={s}: signed sum", signed, _count("ppf" if prime else "pf", n, s))
        lists = set(enum(n, range(1, s + 1)))
        yield fixed != lists and f"n={n}, s={s}: fixed points != restricted lists"


def check_involution(n_max: int = 5) -> list:
    """The recoloring involution: parity-flipping, self-inverse, fixed
    exactly on the all-indigo restricted lists, with the right signed sum."""
    return [
        _check(f"{label} recoloring involution (n <= {n_max})", _involution(n_max, prime))
        for label, prime in (("plain", False), ("prime", True))
    ]


MODULAR_PAIRS = tuple(
    sorted({(g, s) for g in range(1, 5) for s in range(1, 5)} | {(2, 5), (5, 2), (1, 5), (1, 6)})
)


def _modular(g: int, s: int, k: int, budget: int) -> Iterator:
    # each form, then the oracle on the row starts up to m, against the
    # first form; then the relation class by class
    m = g * s - k
    case = f"g={g}, s={s}, k={k}"
    forms, oracle = formulas.routes("pf", {"kind": "modular", "g": g, "s": s, "k": k}, m)
    yield from _agree(case, {**forms, "brute": lambda: oracle(m, range(1, m + 1, g))})
    report = circular.verify_relation(g, s, k, budget=budget)
    yield not report.ok and f"relation rows off: {[r for r in report.rows if not r.ok][:3]}"


def _modular_job(args) -> Check:
    g, s, k, _ = args
    return _check(f"modular relation g={g}, s={s}, k={k} ({s}^{g * s - k} lists)", _modular(*args))


def _modular_jobs(budget: int) -> list:
    """The (g, s, k, budget) jobs of :func:`check_modular`: every k within
    budget.  Raises :class:`DomainError` when none fits."""
    jobs = sorted(
        (g, s, k, budget)
        for g, s in MODULAR_PAIRS
        for k in range(1, g * s)
        if s ** (g * s - k) <= budget
    )
    if not jobs:
        least = min(s ** (g * s - k) for g, s in MODULAR_PAIRS for k in range(1, g * s))
        raise DomainError(f"no (g, s, k) fits budget {budget}; the smallest needs {least}")
    return jobs


def check_modular(budget: int = 10**7, threads: int = 1) -> list:
    """Per-class verification of the circular relation plus the recursion
    and the one-missing-spot closed form, for every k within budget."""
    jobs = _modular_jobs(budget)
    if threads > 1:
        # imported here, as its imports would slow the start of every CLI call
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(_modular_job, jobs))
    return [_modular_job(job) for job in jobs]


# Each suite: the smallest n_max at which every one of its checks compares
# a case (the orbit recurrence needs 1 < s < n), or None for ``modular``,
# which takes no n_max; and its run, with the suite's default bounds.
_SUITES = {
    "formulas": (1, lambda n_max=6, budget=None: (
        check_closed_forms("pf", n_max)
        + check_closed_forms("ppf", n_max)
        + check_defect(n_max)
        + check_ones(n_max)
    )),
    "bijections": (1, lambda n_max=5, budget=None: check_bijections(min(n_max, 5))),
    "involution": (1, lambda n_max=5, budget=None: check_involution(min(n_max, 5))),
    "abel": (1, lambda n_max=10, budget=None: check_abel(n_max)),
    "orbits": (3, lambda n_max=8, budget=None: check_orbits(n_max)),
    "fibers": (1, lambda n_max=5, budget=None: check_fibers(min(n_max, 5))),
    "modular": (None, lambda n_max=None, budget=10**7: check_modular(budget)),
}
# The runs by name, which :func:`run_suite` calls and a tracer may wrap.
SUITES = {name: run for name, (_, run) in _SUITES.items()}


def suite_names() -> list:
    """The names :func:`run_suite` takes: each suite, then ``all``."""
    return sorted(SUITES) + ["all"]


def run_suite(name: str, n_max=None, budget=None) -> list:
    """Run one named suite (or ``all``) and return its checks.

    An unknown name, an ``n_max`` given to ``modular`` (which checks every
    (g, s, k) within the budget) or too small for every check of a suite
    to compare a case, or a budget that no modular job fits, raises
    :class:`DomainError` before any check runs.
    """
    if name not in suite_names():
        raise DomainError(f"unknown verify suite {name!r} (known: {', '.join(suite_names())})")
    keys = list(SUITES) if name == "all" else [name]
    if n_max is not None and keys == ["modular"]:
        raise DomainError("--n-max cannot be used with verify modular, which reads --budget")
    if n_max is not None:
        least = max(_SUITES[key][0] or n_max for key in keys)
        if n_max < least:
            raise DomainError(f"verify {name} needs --n-max >= {least}, got {n_max}")
    if "modular" in keys and budget is not None:
        _modular_jobs(budget)
    kwargs = {"n_max": n_max, "budget": budget}
    kwargs = {key: value for key, value in kwargs.items() if value is not None}
    return [check for key in keys for check in SUITES[key](**kwargs)]
