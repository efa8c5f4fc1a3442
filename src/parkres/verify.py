"""Cross-verification suites.

Every closed form in :mod:`parkres.formulas` and every bijection in
:mod:`parkres.bijections` is checked here against the brute-force oracles
of :mod:`parkres.brute`, exhaustively up to the requested bounds.  The CLI
``verify`` subcommand and the acceptance tests both run these.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterator

from . import bijections, brute, circular, core, formulas
from .bijections import FIXED_POINT, ColoredPF
from .polynomial import X


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def _check(name: str, ok: bool, detail: str = "", cases: int | None = None) -> Check:
    """A check result; ``cases`` (when given) counts the instances the
    check compared, and a check that compared none fails."""
    if cases == 0:
        return Check(name, False, "compared no cases")
    return Check(name, bool(ok), "" if ok else detail)


def check_totals(n_max: int = 6) -> list:
    """Brute-force totals against (n+1)**(n-1) and (n-1)**(n-1)."""
    checks = []
    for n in range(1, n_max + 1):
        got = brute.count_restricted(n, range(1, n + 1))
        want = formulas.pf_total(n)
        checks.append(
            _check(f"#PF_{n} == {want}", got == want, f"brute gives {got}")
        )
    for n in range(1, n_max + 1):
        got = brute.count_prime_restricted(n, range(1, n + 1))
        want = formulas.ppf_total(n)
        checks.append(
            _check(f"#PPF_{n} == {want}", got == want, f"brute gives {got}")
        )
    return checks


def check_restricted_formulas(n_max: int = 6, formula_n_max: int = 12) -> list:
    """Both closed forms for the [s]-restricted count, against each other
    and against enumeration."""
    checks = []
    ok = True
    bad = ""
    cases = 0
    for n in range(1, formula_n_max + 1):
        for s in range(1, n + 1):
            cases += 1
            a = formulas.restricted_subtractive(n, s)
            b = formulas.restricted_alternating(n, s)
            if a != b:
                ok = False
                bad = f"n={n}, s={s}: {a} != {b}"
    checks.append(
        _check(f"restricted forms agree (n <= {formula_n_max})", ok, bad, cases)
    )
    ok = True
    bad = ""
    cases = 0
    for n in range(1, n_max + 1):
        for s in range(1, n + 1):
            cases += 1
            want = brute.count_restricted(n, range(1, s + 1))
            got = formulas.restricted_subtractive(n, s)
            if got != want:
                ok = False
                bad = f"n={n}, s={s}: formula {got}, brute {want}"
    checks.append(
        _check(f"restricted forms match brute force (n <= {n_max})", ok, bad, cases)
    )
    return checks


def check_prime_formulas(n_max: int = 6, formula_n_max: int = 12) -> list:
    """Both closed forms for the [s]-restricted prime count."""
    checks = []
    ok = True
    bad = ""
    cases = 0
    for n in range(2, formula_n_max + 1):
        for s in range(1, n):
            cases += 1
            a = formulas.prime_subtractive(n, s)
            b = formulas.prime_alternating(n, s)
            if a != b:
                ok = False
                bad = f"n={n}, s={s}: {a} != {b}"
    checks.append(_check(f"prime forms agree (n <= {formula_n_max})", ok, bad, cases))
    ok = True
    bad = ""
    cases = 0
    for n in range(2, n_max + 1):
        for s in range(1, n):
            cases += 1
            want = brute.count_prime_restricted(n, range(1, s + 1))
            got = formulas.prime_subtractive(n, s)
            if got != want:
                ok = False
                bad = f"n={n}, s={s}: formula {got}, brute {want}"
    checks.append(_check(f"prime forms match brute force (n <= {n_max})", ok, bad, cases))
    return checks


def check_defect(n_max: int = 6) -> list:
    """Minimum-defect functions are exactly the [s]-restricted parking
    functions, and no function beats the floor n - s."""
    checks = []
    ok = True
    bad = ""
    cases = 0
    for n in range(1, n_max + 1):
        for s in range(1, n + 1):
            cases += 1
            a = brute.count_min_defect(n, s)
            b = brute.count_restricted(n, range(1, s + 1))
            if a != b:
                ok = False
                bad = f"n={n}, s={s}: min-defect {a}, restricted {b}"
    checks.append(
        _check(f"min-defect count == restricted count (n <= {n_max})", ok, bad, cases)
    )
    ok = True
    bad = ""
    cases = 0
    for n in range(1, min(n_max, 5) + 1):
        for s in range(1, n + 1):
            for prefs in product(range(1, s + 1), repeat=n):
                cases += 1
                d = core.defect(prefs, s)
                if d < n - s:
                    ok = False
                    bad = f"{prefs} on {s} spots has defect {d} < {n - s}"
                elif (d == n - s) != core.catalan_check(prefs):
                    ok = False
                    bad = f"{prefs} on {s} spots: floor/restriction mismatch"
    checks.append(
        _check("defect floor n - s attained exactly on restricted lists", ok, bad, cases)
    )
    return checks


def check_orbits(n_max: int = 8) -> list:
    """Orbit counts against the Catalan triangle."""
    checks = []
    ok = True
    bad = ""
    cases = 0
    for n in range(1, n_max + 1):
        for s in range(1, n + 1):
            cases += 1
            want = brute.count_nondecreasing_restricted(n, s)
            got = formulas.catalan_triangle(n, s - 1)
            if got != want:
                ok = False
                bad = f"n={n}, s={s}: triangle {got}, brute {want}"
    checks.append(
        _check(f"orbit counts == Catalan triangle (n <= {n_max})", ok, bad, cases)
    )
    diag = [formulas.catalan_number(n) for n in range(1, 7)]
    checks.append(
        _check(
            "triangle diagonal gives Catalan numbers",
            diag == [1, 2, 5, 14, 42, 132],
            f"diagonal {diag}",
        )
    )
    ok = True
    bad = ""
    cases = 0
    for n in range(2, n_max + 1):
        for s in range(2, n):
            cases += 1
            lhs = brute.count_nondecreasing_restricted(n, s)
            rhs = brute.count_nondecreasing_restricted(
                n - 1, s
            ) + brute.count_nondecreasing_restricted(n, s - 1)
            if lhs != rhs:
                ok = False
                bad = f"n={n}, s={s}: {lhs} != {rhs}"
    checks.append(_check("orbit recurrence holds", ok, bad, cases))
    return checks


def check_abel(n_max: int = 10, poly_n_max: int = 8) -> list:
    """Abel's identity on a rational grid, plus the ones-enumerator pair."""
    checks = []
    grid = [Fraction(v) for v in range(-3, 4)] + [Fraction(1, 2), Fraction(-1, 2)]
    ok = True
    bad = ""
    cases = 0
    for n in range(1, n_max + 1):
        for x in grid:
            for y in grid:
                cases += 1
                res = formulas.abel_check(n, x, y)
                if not res.equal:
                    ok = False
                    bad = f"n={n}, x={x}, y={y}: {res.lhs} != {res.rhs}"
    checks.append(_check(f"Abel identity on rational grid (n <= {n_max})", ok, bad, cases))
    ok = True
    bad = ""
    cases = 0
    for n in range(1, n_max + 1):
        for s in range(1, n + 1):
            cases += 1
            plus = formulas.abel_check(n, 1, s - n - 1)
            minus = formulas.abel_check(n, -1, s - n + 1)
            if not (plus.equal and plus.lhs == s**n):
                ok = False
                bad = f"x=1 specialization fails at n={n}, s={s}"
            if not (minus.equal and minus.lhs == s**n):
                ok = False
                bad = f"x=-1 specialization fails at n={n}, s={s}"
    checks.append(
        _check("restricted-count specializations evaluate to s**n", ok, bad, cases)
    )
    ok = True
    bad = ""
    cases = 0
    for n in range(1, poly_n_max + 1):
        for s in range(1, n + 1):
            cases += 1
            a = formulas.ones_poly_subtractive(n, s)
            b = formulas.ones_poly_alternating(n, s)
            if a != b:
                ok = False
                bad = f"n={n}, s={s}: {a} != {b}"
            if a.coefficient(0) != 0:
                ok = False
                bad = f"n={n}, s={s}: nonzero constant term"
        full = formulas.ones_poly_subtractive(n, n)
        if full != X * (X + n) ** (n - 1):
            ok = False
            bad = f"n={n}: unrestricted enumerator is {full}"
    checks.append(
        _check(f"ones enumerator forms agree (n <= {poly_n_max})", ok, bad, cases)
    )
    return checks


def check_ones(n_max: int = 6) -> list:
    """Ones enumerator against the brute-force distribution."""
    checks = []
    ok = True
    bad = ""
    cases = 0
    for n in range(1, n_max + 1):
        for s in range(1, n + 1):
            cases += 1
            dist = brute.ones_distribution(n, s)
            poly = formulas.ones_poly_subtractive(n, s)
            want = tuple(poly.coefficient(i) for i in range(1, n + 1))
            if dist != want:
                ok = False
                bad = f"n={n}, s={s}: brute {dist}, formula {want}"
            if poly(1) != brute.count_restricted(n, range(1, s + 1)):
                ok = False
                bad = f"n={n}, s={s}: evaluation at 1 misses the count"
    checks.append(
        _check(f"ones distribution matches enumerator (n <= {n_max})", ok, bad, cases)
    )
    return checks


def check_fibers(n_max: int = 5) -> list:
    """Fiber sizes of the outcome map, formula vs. enumeration."""
    checks = []
    ok = True
    bad = ""
    cases = 0
    from itertools import permutations

    for n in range(1, n_max + 1):
        for s in range(1, n + 1):
            total = 0
            for sigma in permutations(range(1, n + 1)):
                cases += 1
                want = brute.fiber_size_bruteforce(sigma, s)
                got = formulas.fiber_size_formula(sigma, s)
                if got != want:
                    ok = False
                    bad = f"sigma={sigma}, s={s}: formula {got}, brute {want}"
                total += want
            if total != brute.count_restricted(n, range(1, s + 1)):
                ok = False
                bad = f"n={n}, s={s}: fibers sum to {total}"
    checks.append(_check(f"outcome fibers match formula (n <= {n_max})", ok, bad, cases))
    return checks


def _subsets_with_one(n: int) -> Iterator[tuple]:
    rest = list(range(2, n + 1))
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            yield (1,) + extra


def check_bijections(n_max: int = 5) -> list:
    """Shift bijection round trips and the u-parking correspondence."""
    checks = []
    ok = True
    bad = ""
    cases = 0
    for n in range(1, n_max + 1):
        for S in _subsets_with_one(n):
            cases += 1
            T = bijections.shift_restriction(S, n)
            primes = list(brute.enum_prime_restricted(n, S))
            target = list(brute.enum_restricted(n, T))
            if len(primes) != len(target):
                ok = False
                bad = f"n={n}, S={S}: {len(primes)} primes vs {len(target)}"
                continue
            image = set()
            for pi in primes:
                psi = bijections.prime_to_restricted(pi, S)
                if bijections.restricted_to_prime(psi, S) != pi:
                    ok = False
                    bad = f"round trip fails at {pi}, S={S}"
                image.add(psi)
            if image != set(target):
                ok = False
                bad = f"n={n}, S={S}: image is not the shifted family"
    checks.append(
        _check(f"prime/restricted shift bijection (n <= {n_max})", ok, bad, cases)
    )
    ok = True
    bad = ""
    cases = 0
    for n in range(1, n_max + 1):
        for size in range(1, n + 1):
            for S in combinations(range(1, n + 1), size):
                cases += 1
                u = bijections.u_vector(S, n)
                image = set()
                for pi in brute.enum_restricted(n, S):
                    image.add(bijections.to_u_parking(pi, S))
                target = {
                    psi
                    for psi in product(range(1, size + 1), repeat=n)
                    if bijections.is_u_parking(psi, u)
                }
                if image != target:
                    ok = False
                    bad = f"n={n}, S={S}: u-parking image mismatch"
    checks.append(_check(f"u-parking correspondence (n <= {n_max})", ok, bad, cases))
    return checks


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


def check_involution(n_max: int = 5) -> list:
    """The recoloring involution: parity-flipping, self-inverse, fixed
    exactly on the all-indigo restricted lists, with the right signed sum."""
    checks = []
    for prime in (False, True):
        label = "prime" if prime else "plain"
        ok = True
        bad = ""
        cases = 0
        for n in range(1, n_max + 1):
            for s in range(1, n + 1):
                cases += 1
                signed = 0
                fixed = set()
                for colored in iter_colorings(n, s, prime):
                    signed += colored.sign
                    out = bijections.involution(colored)
                    if out is FIXED_POINT:
                        if colored.red_count != 0 or max(colored.prefs) > s:
                            ok = False
                            bad = f"bad fixed point {colored}"
                        fixed.add(colored.prefs)
                    else:
                        if (out.red_count - colored.red_count) % 2 == 0:
                            ok = False
                            bad = f"parity not flipped at {colored}"
                        if bijections.involution(out) != colored:
                            ok = False
                            bad = f"not an involution at {colored}"
                if prime:
                    want_count = brute.count_prime_restricted(n, range(1, s + 1))
                    want_fixed = set(brute.enum_prime_restricted(n, range(1, s + 1)))
                else:
                    want_count = brute.count_restricted(n, range(1, s + 1))
                    want_fixed = set(brute.enum_restricted(n, range(1, s + 1)))
                if signed != want_count:
                    ok = False
                    bad = f"n={n}, s={s}: signed sum {signed}, count {want_count}"
                if fixed != want_fixed:
                    ok = False
                    bad = f"n={n}, s={s}: fixed points are not the restricted lists"
        checks.append(
            _check(f"{label} recoloring involution (n <= {n_max})", ok, bad, cases)
        )
    return checks


DEFAULT_MODULAR_PAIRS = tuple(
    sorted({(g, s) for g in range(1, 5) for s in range(1, 5)} | {(2, 5), (5, 2), (1, 5), (1, 6)})
)


def _modular_job(args) -> Check:
    g, s, k, budget = args
    m = g * s - k
    report = circular.verify_relation(g, s, k, budget=budget)
    allowed = [v for v in circular.preferred_spots(g, s) if v <= m]
    want = brute.count_restricted(m, allowed) if m else 1
    got = formulas.mod_count(g, s, k)
    ok = report.ok and got == want
    detail = ""
    if not report.ok:
        bad_rows = [r for r in report.rows if not r.ok]
        detail = f"relation rows off: {bad_rows[:3]}"
    elif got != want:
        detail = f"recursion gives {got}, brute {want}"
    if k == 1 and formulas.mod_count_k1(g, s) != want:
        ok = False
        detail = f"closed form {formulas.mod_count_k1(g, s)}, brute {want}"
    return _check(f"modular relation g={g}, s={s}, k={k} ({s}^{m} lists)", ok, detail)


def check_modular(
    budget: int = 10**7,
    pairs=DEFAULT_MODULAR_PAIRS,
    threads: int = 1,
) -> list:
    """Per-class verification of the circular relation plus the recursion
    and the one-missing-spot closed form, for every k within budget."""
    jobs = []
    for g, s in pairs:
        for k in range(1, g * s):
            if s ** (g * s - k) <= budget:
                jobs.append((g, s, k, budget))
    jobs.sort()
    if not jobs:
        return [_check("modular relation", False, f"no (g, s, k) fits budget {budget}")]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(_modular_job, jobs))
    return [_modular_job(job) for job in jobs]


SUITES = {
    "formulas": lambda n_max=6, budget=None, threads=1: (
        check_totals(n_max)
        + check_restricted_formulas(n_max)
        + check_prime_formulas(n_max)
        + check_defect(n_max)
        + check_ones(n_max)
    ),
    "bijections": lambda n_max=5, budget=None, threads=1: check_bijections(min(n_max, 5)),
    "involution": lambda n_max=5, budget=None, threads=1: check_involution(min(n_max, 5)),
    "abel": lambda n_max=10, budget=None, threads=1: check_abel(n_max),
    "orbits": lambda n_max=8, budget=None, threads=1: check_orbits(n_max),
    "fibers": lambda n_max=5, budget=None, threads=1: check_fibers(min(n_max, 5)),
    "modular": lambda n_max=None, budget=10**7, threads=1: check_modular(
        budget, threads=threads
    ),
}


def run_suite(name: str, n_max=None, budget=None, threads: int = 1) -> list:
    """Run one named suite (or ``all``) and return its checks."""
    if name == "all":
        checks = []
        for key in SUITES:
            checks.extend(run_suite(key, n_max=n_max, budget=budget, threads=threads))
        return checks
    runner = SUITES[name]
    kwargs = {"threads": threads}
    if n_max is not None:
        kwargs["n_max"] = n_max
    if budget is not None:
        kwargs["budget"] = budget
    return runner(**kwargs)
