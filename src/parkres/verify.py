"""Cross-verification suites.

Every closed form in :mod:`parkres.formulas` and every bijection in
:mod:`parkres.bijections` is checked here against the brute-force oracles
of :mod:`parkres.brute`, exhaustively up to the requested bounds.  The CLI
``verify`` subcommand and the acceptance tests both run these.

Each check is one :func:`_check` fold over its outcomes: an iterable that
yields one item per compared case, falsy when the case agrees and a
mismatch description otherwise.  The fold counts and times the cases,
keeps the last mismatch, and fails a check that compared no cases, so no
check can pass vacuously.  An exception raised while the fold draws a
case fails that check alone, naming it, and the suite goes on.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial, prod
from time import perf_counter
from typing import Iterable, Iterator, NamedTuple

from . import bijections, brute, circular, core, formulas
from .bijections import FIXED_POINT, ColoredPF
from .exceptions import DomainError, _check_budget, _check_flag, _check_n, _ints


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
    time is the time of its cases, and a route that raises fails the
    check with the cases compared before it."""
    start = perf_counter()
    cases = 0
    detail = ""
    try:
        for outcome in outcomes:
            cases += 1
            if outcome:
                detail = str(outcome)
    except Exception as err:
        detail = f"raised {type(err).__name__}: {err}"
    if cases == 0 and not detail:
        detail = "compared no cases"
    return Check(name, not detail, detail, cases, perf_counter() - start)


def _differ(label: str, got, want) -> str:
    """An empty string when ``got == want``, else a mismatch description."""
    return "" if got == want else f"{label}: {got} != {want}"


def _grid(n_max: int) -> Iterator[tuple]:
    """Every (n, s) with 1 <= s <= n <= n_max."""
    for n in range(1, n_max + 1):
        for s in range(1, n + 1):
            yield n, s


def _routes(kind: str, n: int, s: int) -> dict:
    """The :func:`formulas.routes` of the [s]-restricted ``kind`` count on n cars."""
    return formulas.routes(kind, {"kind": "segment", "s": s}, n)


def _agree(case: str, routes: dict) -> Iterator:
    """One case per route after the first, against the first."""
    (first, form), *rest = routes.items()
    want = form()
    for method, other in rest:
        yield _differ(f"{case}: {method} vs {first}", other(), want)


def check_closed_forms(kind: str, n_max: int) -> list:
    """Every route of the [s]-restricted ``kind`` count that
    :func:`formulas.routes` gives, each closed form and the brute-force
    oracle, against the first form; an unknown kind, or an ``n_max`` not an
    integer >= 1, raises :class:`DomainError`."""
    if not isinstance(kind, str) or kind not in formulas.FAMILIES:
        raise DomainError(f"kind must be one of {', '.join(formulas.FAMILIES)}, got {kind!r}")
    n_max = _check_n(n_max, "--n-max")
    return [
        _check(
            f"{formulas.FAMILIES[kind].label} routes agree (n <= {n_max})",
            (d for n, s in _grid(n_max) for d in _agree(f"n={n}, s={s}", _routes(kind, n, s))),
        )
    ]


def _defect_floor(n_max: int) -> Iterator:
    for n, s in _grid(min(n_max, 5)):
        for prefs in product(range(1, s + 1), repeat=n):
            d = core.defect(prefs, s)
            if d < n - s:
                yield f"{prefs} on {s} spots has defect {d} < {n - s}"
            elif (d == n - s) != core.catalan_check(prefs):
                yield f"{prefs} on {s} spots: floor/restriction mismatch"
            else:
                yield ""


def _catalan_diagonal(n_max: int) -> Iterator:
    for n, want in enumerate([1, 2, 5, 14, 42, 132], start=1):
        yield _differ(f"n={n}", formulas.catalan_number(n), want)


# The checks of a kind beyond its routes, by kind: each one's outcomes at
# ``n_max``, by its name.
_OWN_CHECKS = {
    "defect": {"defect floor n - s attained exactly on restricted lists": _defect_floor},
    "orbits": {"triangle diagonal gives Catalan numbers": _catalan_diagonal},
}


def check_families(suite: str, n_max: int) -> list:
    """The checks of each kind of :data:`formulas.FAMILIES` that ``suite``
    runs, in the table's order: its routes (:func:`check_closed_forms`),
    then its own checks, if it has any.  A suite that no kind names, or an
    ``n_max`` not an integer >= 1, raises :class:`DomainError`."""
    n_max = _check_n(n_max, "--n-max")
    checks = []
    for kind, family in formulas.FAMILIES.items():
        if family.suite == suite:
            checks += check_closed_forms(kind, n_max)
            own = _OWN_CHECKS.get(kind, {})
            checks += [_check(name, outcomes(n_max)) for name, outcomes in own.items()]
    if not checks:  # then none ran
        raise DomainError(f"no count kind is checked by suite {suite!r}")
    return checks


def check_abel(n_max: int) -> list:
    """Abel's identity on a rational grid and at the restricted-count
    specializations y = s - n - x, where its left side is s**n."""
    from fractions import Fraction  # only here, to keep it out of every CLI start

    n_max = _check_n(n_max, "--n-max")
    grid = [Fraction(v) for v in range(-3, 4)] + [Fraction(1, 2), Fraction(-1, 2)]

    def abel(n, x, y):
        res = formulas.abel_check(n, x, y)
        return _differ(f"n={n}, x={x}, y={y}", res.lhs, res.rhs)

    return [
        _check(
            f"Abel identity on rational grid (n <= {n_max})",
            (abel(n, x, y) for n in range(1, n_max + 1) for x in grid for y in grid),
        ),
        _check(
            "restricted-count specializations evaluate to s**n",
            (abel(n, x, s - n - x) for n, s in _grid(n_max) for x in (1, -1)),
        ),
    ]


def _fibers(n_max: int) -> Iterator:
    for n, s in _grid(n_max):
        total = 0
        for sigma in permutations(range(1, n + 1)):
            want = brute.fiber_size_bruteforce(sigma, s)
            total += want
            yield _differ(f"sigma={sigma}, s={s}", formulas.fiber_size_formula(sigma, s), want)
        yield _differ(f"n={n}, s={s}: fiber sum", total, _routes("pf", n, s)["brute"]())


def check_fibers(n_max: int) -> list:
    """Fiber sizes of the outcome map, formula vs. enumeration."""
    n_max = _check_n(n_max, "--n-max")
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
                psi = bijections.prime_to_restricted(pi, S)
                image.add(psi)
                # the inverse refuses a list outside the shifted family
                back = psi in target and bijections.restricted_to_prime(psi, S)
                yield back != pi and f"n={n}, S={S}: round trip fails at {pi}"
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


def check_bijections(n_max: int) -> list:
    """Shift bijection round trips and the u-parking correspondence."""
    n_max = _check_n(n_max, "--n-max")
    return [
        _check(f"prime/restricted shift bijection (n <= {n_max})", _shift_bijection(n_max)),
        _check(f"u-parking correspondence (n <= {n_max})", _u_parking(n_max)),
    ]


def iter_colorings(n: int, s: int, prime: bool = False) -> Iterator[ColoredPF]:
    """All valid two-colored (prime) parking functions on n cars.  The
    sizes and ``prime`` are read when the function is called, before the
    first ``next()``."""
    n, s = _ints(n, s)
    _check_flag(prime, "prime")
    full = tuple(range(1, n + 1))
    enum = brute.enum_prime_restricted if prime else brute.enum_restricted

    def colorings():
        for i in range(s, n + 1):
            indigo_lists = list(enum(i, range(1, i + 1)))
            forbidden = range(s + 1, i + 2 - prime)  # above s, up to i + 1 (i when prime)
            for positions in combinations(full, i):
                red_positions = [c for c in full if c not in positions]
                for indigo in indigo_lists:
                    for reds in product(forbidden, repeat=n - i):
                        prefs = [0] * n
                        for car, p in zip(positions, indigo):
                            prefs[car - 1] = p
                        for car, p in zip(red_positions, reds):
                            prefs[car - 1] = p
                        yield ColoredPF.from_indigo_cars(prefs, positions, s, prime)

    return colorings()


def _involution(n_max: int, prime: bool) -> Iterator:
    enum = brute.enum_prime_restricted if prime else brute.enum_restricted
    kind = "ppf" if prime else "pf"
    for n, s in _grid(n_max):
        signed = 0
        fixed = set()
        # each image once; one outside the colorings maps back to nothing
        image = {colored: bijections.involution(colored) for colored in iter_colorings(n, s, prime)}
        for colored, out in image.items():
            signed += colored.sign
            if out is FIXED_POINT:
                fixed.add(colored.prefs)
                restricted = colored.red_count == 0 and max(colored.prefs) <= s
                yield not restricted and f"bad fixed point {colored}"
            elif (out.red_count - colored.red_count) % 2 == 0:
                yield f"parity not flipped at {colored}"
            else:
                yield image.get(out) != colored and f"not an involution at {colored}"
        yield _differ(f"n={n}, s={s}: signed sum", signed, _routes(kind, n, s)["brute"]())
        lists = set(enum(n, range(1, s + 1)))
        yield fixed != lists and f"n={n}, s={s}: fixed points != restricted lists"


def check_involution(n_max: int) -> list:
    """The recoloring involution: parity-flipping, self-inverse, fixed
    exactly on the all-indigo restricted lists, with the right signed sum."""
    n_max = _check_n(n_max, "--n-max")
    return [
        _check(f"{label} recoloring involution (n <= {n_max})", _involution(n_max, prime))
        for label, prime in (("plain", False), ("prime", True))
    ]


MODULAR_PAIRS = tuple(
    sorted({(g, s) for g in range(1, 5) for s in range(1, 5)} | {(2, 5), (5, 2), (1, 5), (1, 6)})
)


def _modular(g: int, s: int, k: int) -> Iterator:
    # each form, then the oracle, against the first form; then the
    # relation class by class
    case = f"g={g}, s={s}, k={k}"
    restriction = {"kind": "modular", "g": g, "s": s, "k": k}
    yield from _agree(case, formulas.routes("pf", restriction, g * s - k))
    report = circular.verify_relation(g, s, k)
    yield not report.ok and f"relation rows off: {[r for r in report.rows if not r.ok][:3]}"


def _modular_job(job) -> Check:
    g, s, k = job
    return _check(f"modular relation g={g}, s={s}, k={k} ({s}^{g * s - k} lists)", _modular(g, s, k))


def _modular_jobs(budget: int) -> list:
    """The (g, s, k) jobs of :func:`check_modular`: every k within budget,
    none past :func:`circular.verify_relation`'s default orbit bound (816
    at most, at (4, 4, 1)).  Raises :class:`DomainError` when none fits or
    the budget is not a number >= 0."""
    _check_budget(budget)
    jobs = sorted(
        (g, s, k)
        for g, s in MODULAR_PAIRS
        for k in range(1, g * s)
        if s ** (g * s - k) <= budget
    )
    if not jobs:
        least = min(s ** (g * s - k) for g, s in MODULAR_PAIRS for k in range(1, g * s))
        raise DomainError(f"no (g, s, k) fits budget {budget}; the smallest needs {least}")
    return jobs


def check_modular(budget: int, threads: int = 1) -> list:
    """Per-class verification of the circular relation plus the recursion
    and the one-missing-spot closed form, for every k within budget, in
    ``threads`` worker processes when more than 1."""
    jobs = _modular_jobs(budget)
    threads = _check_n(threads, "threads")
    if threads > 1:
        # imported here, as its imports would slow the start of every CLI call
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(_modular_job, jobs))
    return [_modular_job(job) for job in jobs]


# Each suite's run, with the suite's default bounds, by name: :func:`run_suite`
# calls these and a tracer may wrap them.  The bijections, involution and
# fibers suites stop at n = 5, as their cases grow too fast past it.
SUITES = {
    "formulas": lambda n_max=12, budget=None: check_families("formulas", n_max),
    "bijections": lambda n_max=5, budget=None: check_bijections(min(_check_n(n_max, "--n-max"), 5)),
    "involution": lambda n_max=5, budget=None: check_involution(min(_check_n(n_max, "--n-max"), 5)),
    "abel": lambda n_max=10, budget=None: check_abel(n_max),
    "orbits": lambda n_max=8, budget=None: check_families("orbits", n_max),
    "fibers": lambda n_max=5, budget=None: check_fibers(min(_check_n(n_max, "--n-max"), 5)),
    "modular": lambda n_max=None, budget=10**7: check_modular(budget),
}


def suite_names() -> list:
    """The names :func:`run_suite` takes: each suite, then ``all``."""
    return sorted(SUITES) + ["all"]


def run_suite(name: str, n_max=None, budget=None) -> list:
    """Run one named suite (or ``all``) and return its checks.

    An unknown name, an ``n_max`` given to ``modular`` (which checks every
    (g, s, k) within the budget) or that the suites' entries refuse, or a
    budget that no requested suite reads, not a number >= 0 or that no
    modular job fits, raises :class:`DomainError` before any check runs.
    """
    if name not in suite_names():
        raise DomainError(f"unknown verify suite {name!r} (known: {', '.join(suite_names())})")
    keys = list(SUITES) if name == "all" else [name]
    if n_max is not None and keys == ["modular"]:
        raise DomainError("--n-max cannot be used with verify modular, which reads --budget")
    if budget is not None and "modular" not in keys:
        raise DomainError(f"--budget cannot be used with verify {name}, which reads --n-max")
    if budget is not None:  # then modular is in keys
        _modular_jobs(budget)
    kwargs = {"n_max": n_max, "budget": budget}
    kwargs = {key: value for key, value in kwargs.items() if value is not None}
    return [check for key in keys for check in SUITES[key](**kwargs)]
