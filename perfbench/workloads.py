"""The four request mixes of the benchmark: how each is drawn from a seed,
how each request runs, and how its result is checked.

A request is a ``(kind, args)`` pair of plain JSON values, so a request
list can be compared, printed and stored.  ``build_requests`` is the only
place the seed is used.  Within a run the work sizes form a fixed grid;
the seed draws the order of the requests and every argument whose choice
does not change the amount of work (a permutation, a preference list, a
rational point, an offset inside a narrow range).  So every seed asks the
program for the same amount of work, and the spread between seeds is the
spread of the machine.

Requests of a kind that shares a process-global memo (``formulas.mod_count``
and the Catalan rows behind ``formulas.catalan_triangle``) keep a fixed
order relative to each other: the seed interleaves them with other kinds
but cannot change which of them run cold.

Every check uses a second route that does not share code with the route it
checks: brute-force counts against closed forms, closed forms against
brute force or against their other form, and CLI output against the
library or against the small reference simulations at the end of this
file.  A check returns ``None`` when the result is right and a one-line
reason when it is not.  Checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

from parkres import brute, circular, formulas

WORKLOADS = ("enumerate", "stream", "closed_forms", "cli")

# Seconds one cycle of each mix takes at the reference speed (calibration.py;
# 2-core VM, Python 3.11, pure-Python kernels); for closed_forms this
# includes the mod_count sweeps made once per pass.  A traced run asks for
# the cycles that fill its share of the requested duration at that speed,
# so its work never depends on how fast the program turns out to be.
CYCLE_SECONDS = {"enumerate": 2.9, "stream": 3.7, "closed_forms": 2.3, "cli": 6.5}

# The calibration probe whose slow-downs match each mix (calibration.py):
# the in-process mixes run Python loops, each cli request starts a process.
PROBE = {"enumerate": "kernel", "stream": "kernel", "closed_forms": "kernel", "cli": "process"}

# Kinds whose requests share a process-global memo; they keep their order.
ORDERED_KINDS = frozenset({"mod_sweep", "catalan"})

# The seven verify suites of the cli mix, the slow ones at reduced sizes.
CLI_SUITES = {
    "formulas": [],
    "bijections": [],
    "involution": ["--n-max", "4"],
    "abel": [],
    "orbits": [],
    "fibers": ["--n-max", "4"],
    "modular": ["--budget", "2e4"],
}


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_SECONDS[workload]))


# ---------------------------------------------------------------- request mixes


def _enumerate_streams(rng, cycles):
    # Nominal spaces |S|**n from 6e2 to 1e6 lists; dense segments [s],
    # prime lists over [s], and sparse row-start sets {1, g+1, ...}.
    dense = [(6, 6), (7, 5), (8, 4), (10, 3), (5, 5), (11, 3), (6, 4), (5, 4), (9, 3), (7, 4),
             (6, 5), (8, 3)]
    prime = [(7, 5), (8, 4), (5, 4), (6, 5), (7, 6), (6, 6), (7, 4), (9, 3)]
    rows = [(10, 3), (8, 2), (9, 4), (9, 3), (7, 2), (11, 4)]
    defect = [(6, 6), (7, 4), (7, 5), (8, 4), (6, 5), (8, 3)]
    ones = [(7, 5), (8, 4), (6, 5), (6, 6), (7, 4)]
    relation = [(2, 3, 1), (4, 3, 2), (2, 4, 1), (2, 5, 4), (3, 3, 1), (3, 4, 5), (2, 4, 2),
                (3, 3, 2)]
    return [
        [("count_restricted", list(a)) for a in dense] * cycles,
        [("count_prime_restricted", list(a)) for a in prime] * cycles,
        [("count_row_starts", list(a)) for a in rows] * cycles,
        [("count_min_defect", list(a)) for a in defect] * cycles,
        [("ones_distribution", list(a)) for a in ones] * cycles,
        [("verify_relation", list(a)) for a in relation] * cycles,
    ]


def _stream_streams(rng, cycles):
    dense = [(6, 6), (8, 4), (7, 5), (10, 3), (5, 5), (11, 3), (6, 5), (7, 4), (9, 3), (8, 3)]
    prime = [(8, 4), (6, 4), (7, 5), (5, 5), (7, 4), (6, 5), (9, 3)]
    rows = [(10, 3), (8, 2), (9, 3), (7, 2), (11, 4)]
    fibers = [(6, 6), (6, 5), (7, 4), (7, 5), (6, 4), (5, 5), (7, 3)]
    nondecreasing = [(12, 10), (13, 9), (14, 8), (10, 9), (12, 8), (15, 6)]
    out = [
        [("enum_restricted", list(a)) for a in dense] * cycles,
        [("enum_prime_restricted", list(a)) for a in prime] * cycles,
        [("enum_row_starts", list(a)) for a in rows] * cycles,
        [("nondecreasing", list(a)) for a in nondecreasing] * cycles,
    ]
    # fiber_size_bruteforce parks all s**n lists whatever the outcome
    # permutation, so the permutation is free for the seed to draw.
    out.append(
        [
            ("fiber_size", [rng.sample(range(1, n + 1), n), s])
            for _ in range(cycles)
            for n, s in fibers
        ]
    )
    return out


def _rational(rng):
    num = rng.randrange(100, 1000) * rng.choice((1, -1))
    return [num, rng.randrange(11, 100)]


def _closed_forms_streams(rng, cycles):
    out = []
    # Once per pass, sweeps tabulate mod_count(g, s, k) for k = s, ..., 1
    # (length g*s - k increasing).  Each g is swept once, so each sweep
    # starts cold and shares sub-problems only within itself.
    out.append([("mod_sweep", [g, s]) for g, s in [(5, 7), (4, 8), (3, 9), (2, 10)]])
    pairs, primes, ones, abel = [], [], [], []
    for _ in range(cycles):
        for n in (400, 600, 800, 1000, 1200, 1400):
            pairs.append(("restricted_pair", [n, n // 3 + rng.randrange(-5, 6)]))
            primes.append(("prime_pair", [n, n // 3 + rng.randrange(-5, 6)]))
        for n in (40, 50, 60, 70, 80, 100):
            ones.append(("ones_pair", [n, n // 2 + rng.randrange(-2, 3)]))
        for n in (100, 200, 300):
            abel.append(("abel", [n, _rational(rng), _rational(rng)]))
    out += [pairs, primes, ones, abel]
    # Catalan rows are cached, so the requests run in increasing n.
    out.append(
        [
            ("catalan", [n, rng.randrange(n)])
            for n in sorted((120, 200, 280, 360) * cycles)
        ]
    )
    return out


def _cli_streams(rng, cycles):
    def count(kind, n, s, *extra):
        check = "count_pf" if kind == "pf" else "count_ppf"
        argv = ["count", kind, "--n", str(n), "--s", str(s), *extra]
        return ("cli", [argv, check, [n, s]])

    simple = []
    for _ in range(cycles):
        for _ in range(4):
            n = rng.randint(4, 7)
            simple.append(count("pf", n, rng.randint(1, min(n, 4))))
        for _ in range(2):
            n = rng.randint(3, 7)
            simple.append(count("ppf", n, rng.randint(1, min(n, 4))))
        for kind in ("pf", "ppf"):
            n = rng.randint(4, 7)
            simple.append(count(kind, n, rng.randint(2, min(n, 4)), "--method", "brute"))
        for _ in range(2):
            n, g = rng.choice([(5, 2), (6, 2), (7, 2), (6, 3), (7, 3), (8, 3), (9, 3)])
            spots = ",".join(str(v) for v in range(1, n + 1, g))
            simple.append(
                ("cli", [["count", "pf", "--set", spots, "--n", str(n)], "count_rows", [n, g]])
            )
        for _ in range(2):
            g, s = rng.choice([(2, 3), (2, 4), (3, 2), (3, 3)])
            k = rng.randint(max(1, g * s - 7), g * s - 1)
            argv = ["count", "pf", "--g", str(g), "--s", str(s), "--k", str(k), "--format", "json"]
            simple.append(("cli", [argv, "count_modular_json", [g, s, k]]))
        n = rng.randint(6, 9)
        spots = n + rng.randint(-2, 1)
        prefs = [rng.randint(1, spots) for _ in range(n)]
        argv = ["simulate", ",".join(map(str, prefs)), "--spots", str(spots), "--format", "json"]
        simple.append(("cli", [argv, "simulate", [prefs, spots]]))
        g, s = rng.choice([(2, 3), (3, 3), (2, 4)])
        prefs = [rng.randrange(1, g * s + 1, g) for _ in range(rng.randint(1, g * s))]
        argv = ["simulate", ",".join(map(str, prefs)), "--circular", f"{g},{s}", "--format", "json"]
        simple.append(("cli", [argv, "simulate_circular", [prefs, g, s]]))
        n_max = rng.randint(8, 14)
        argv = ["table", "catalan-triangle", "--n-max", str(n_max)]
        simple.append(("cli", [argv, "table_catalan", [n_max]]))
        n_max = rng.randint(5, 9)
        simple.append(("cli", [["table", "pf-restricted", "--n-max", str(n_max)], "table_pf", [n_max]]))
        n = rng.randint(5, 9)
        s = rng.randint(1, n)
        simple.append(("cli", [["table", "ones", "--n", str(n), "--s", str(s)], "table_ones", [n, s]]))
        for kind in ("pf", "pf", "ppf"):
            n = rng.randint(4, 6)
            s = rng.randint(2, min(n, 4))
            argv = ["enum", kind, "--n", str(n), "--s", str(s)]
            simple.append(("cli", [argv, f"enum_{kind}", [n, s]]))
    suites = []
    for _ in range(cycles):
        for suite, extra in CLI_SUITES.items():
            argv = ["verify", suite, *extra]
            suites.append(("cli", [argv, "verify", [suite]]))
    return [simple, suites]


_BUILDERS = {
    "enumerate": _enumerate_streams,
    "stream": _stream_streams,
    "closed_forms": _closed_forms_streams,
    "cli": _cli_streams,
}


def build_requests(workload: str, seed: int, cycles: int) -> list:
    """The request list of one run: a function of its arguments alone."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    streams = [list(s) for s in _BUILDERS[workload](rng, cycles) if s]
    for s in streams:
        if s[0][0] not in ORDERED_KINDS:
            rng.shuffle(s)
    out = []
    while streams:
        i = rng.choices(range(len(streams)), [len(s) for s in streams])[0]
        out.append(streams[i].pop(0))
        if not streams[i]:
            streams.pop(i)
    return out


def pass_order(requests, seed: int, pass_index: int) -> list:
    """The order in which one pass of a run sends ``requests``: the drawn
    order in pass 0, a seeded shuffle in later passes, so that a request's
    median over the passes is not tied to the requests around it.
    Requests of an ORDERED_KINDS kind keep their relative order."""
    order = list(range(len(requests)))
    if pass_index:
        random.Random(f"{seed}:{pass_index}").shuffle(order)
    for kind in ORDERED_KINDS:
        slots = [j for j, i in enumerate(order) if requests[i][0] == kind]
        for j, i in zip(slots, sorted(order[j] for j in slots)):
            order[j] = i
    return order


# ---------------------------------------------------------------- execution


def _segment(s):
    return range(1, s + 1)


def _row_starts(n, g):
    return range(1, n + 1, g)


def _consume(stream):
    """Walk a stream to its end: (items, strictly increasing, first, last)."""
    it = iter(stream)
    first = prev = next(it, None)
    count = 0 if first is None else 1
    ordered = True
    for item in it:
        if item <= prev:
            ordered = False
        prev = item
        count += 1
    return count, ordered, first, prev


def _mod_sweep(g, s):
    return {k: formulas.mod_count(g, s, k) for k in range(min(s, g * s - 1), 0, -1)}


def _run_cli_subprocess(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "parkres.cli", *argv], capture_output=True, text=True, timeout=120
    )
    return proc.returncode, proc.stdout


def run_cli_inprocess(argv):
    """``parkres.cli.main(argv)`` with its output captured."""
    from parkres import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


_RUNNERS = {
    "count_restricted": lambda n, s: brute.count_restricted(n, _segment(s)),
    "count_prime_restricted": lambda n, s: brute.count_prime_restricted(n, _segment(s)),
    "count_row_starts": lambda n, g: brute.count_restricted(n, _row_starts(n, g)),
    "count_min_defect": lambda n, s: brute.count_min_defect(n, s),
    "ones_distribution": lambda n, s: brute.ones_distribution(n, s),
    "verify_relation": lambda g, s, k: circular.verify_relation(g, s, k),
    "enum_restricted": lambda n, s: _consume(brute.enum_restricted(n, _segment(s))),
    "enum_prime_restricted": lambda n, s: _consume(brute.enum_prime_restricted(n, _segment(s))),
    "enum_row_starts": lambda n, g: _consume(brute.enum_restricted(n, _row_starts(n, g))),
    "fiber_size": lambda sigma, s: brute.fiber_size_bruteforce(sigma, s),
    "nondecreasing": lambda n, s: brute.count_nondecreasing_restricted(n, s),
    "mod_sweep": _mod_sweep,
    "restricted_pair": lambda n, s: (
        formulas.restricted_subtractive(n, s),
        formulas.restricted_alternating(n, s),
    ),
    "prime_pair": lambda n, s: (formulas.prime_subtractive(n, s), formulas.prime_alternating(n, s)),
    "ones_pair": lambda n, s: (
        formulas.ones_poly_subtractive(n, s),
        formulas.ones_poly_alternating(n, s),
    ),
    "abel": lambda n, x, y: formulas.abel_check(n, Fraction(*x), Fraction(*y)),
    "catalan": lambda n, k: formulas.catalan_triangle(n, k),
}


def run_request(request, cli_inprocess=False):
    """Execute one request and return its raw result."""
    kind, args = request
    if kind == "cli":
        argv = args[0]
        return run_cli_inprocess(argv) if cli_inprocess else _run_cli_subprocess(argv)
    return _RUNNERS[kind](*args)


# ---------------------------------------------------------------- checks


def _pf_count(n, s):
    return formulas.restricted_subtractive(n, s)


def _ppf_count(n, s):
    return formulas.ppf_total(n) if s >= n else formulas.prime_subtractive(n, s)


def _row_count(n, g):
    """Row-start count by the modular recursion: the spots 1 mod g in
    [1, n] are the row starts of ceil(n/g) rows with k = g*rows - n spots
    missing (one more row when n fills its rows exactly)."""
    rows = -(-n // g)
    if g * rows == n:
        rows += 1
    return formulas.mod_count(g, rows, g * rows - n)


def _catalan_closed(n, k):
    # Ballot numbers: entry (n, k) of the Catalan triangle.
    return (n - k + 1) * comb(n + k, k) // (n + 1)


def _expect(label, got, want):
    return None if got == want else f"{label}: got {got}, want {want}"


def _check_stream(result, n, top, want):
    count, ordered, first, last = result
    if count != want:
        return f"{count} lists streamed, want {want}"
    if not ordered:
        return "stream not in strictly increasing lexicographic order"
    if first != (1,) * n:
        return f"first list {first}, want all ones"
    if len(last) != n or max(last) > top:
        return f"last list {last} leaves the allowed range"
    return None


def _check_mod_sweep(result, g, s):
    if result.get(1) != formulas.mod_count_k1(g, s):
        return f"mod_count({g},{s},1) = {result.get(1)}, closed form {formulas.mod_count_k1(g, s)}"
    for k, value in result.items():
        m = g * s - k
        allowed = _row_starts(m, g)
        if len(allowed) ** m <= 20000:
            want = brute.count_restricted(m, allowed)
            if value != want:
                return f"mod_count({g},{s},{k}) = {value}, brute force {want}"
    return None


def _check_ones_pair(result, n, s):
    sub, alt = result
    if sub != alt:
        return f"ones enumerator forms differ at n={n}, s={s}"
    return _expect("ones_poly(1)", sub(1), _pf_count(n, s))


def _check_abel(result, n, x, y):
    x, y = Fraction(*x), Fraction(*y)
    if not result.equal:
        return f"abel_check({n}) reports unequal sides"
    return _expect("abel lhs", result.lhs, (x + y + n) ** n)


def _check_relation(report, g, s, k):
    if not report.ok:
        bad = [row for row in report.rows if not row.ok][:2]
        return f"relation rows off: {bad}"
    return _expect("relation total", sum(r.observed for r in report.rows), s ** (g * s - k))


_CHECKS = {
    "count_restricted": lambda r, n, s: _expect("count", r, _pf_count(n, s)),
    "count_prime_restricted": lambda r, n, s: _expect("count", r, _ppf_count(n, s)),
    "count_row_starts": lambda r, n, g: _expect("count", r, _row_count(n, g)),
    "count_min_defect": lambda r, n, s: _expect("count", r, _pf_count(n, s)),
    "ones_distribution": lambda r, n, s: _expect(
        "distribution",
        r,
        tuple(formulas.ones_poly_subtractive(n, s).coefficient(i) for i in range(1, n + 1)),
    ),
    "verify_relation": _check_relation,
    "enum_restricted": lambda r, n, s: _check_stream(r, n, s, _pf_count(n, s)),
    "enum_prime_restricted": lambda r, n, s: _check_stream(r, n, s, _ppf_count(n, s)),
    "enum_row_starts": lambda r, n, g: _check_stream(r, n, n, _row_count(n, g)),
    "fiber_size": lambda r, sigma, s: _expect("fiber", r, formulas.fiber_size_formula(sigma, s)),
    "nondecreasing": lambda r, n, s: _expect("orbits", r, _catalan_closed(n, s - 1)),
    "mod_sweep": _check_mod_sweep,
    "restricted_pair": lambda r, n, s: _expect("alternating form", r[1], r[0]),
    "prime_pair": lambda r, n, s: _expect("alternating form", r[1], r[0]),
    "ones_pair": _check_ones_pair,
    "abel": _check_abel,
    "catalan": lambda r, n, k: _expect("triangle", r, _catalan_closed(n, k)),
}


def check_request(request, result):
    """``None`` when ``result`` is right for ``request``, else the reason."""
    kind, args = request
    try:
        if kind == "cli":
            return _check_cli(result, *args)
        return _CHECKS[kind](result, *args)
    except Exception as exc:  # a malformed result is a failed check
        return f"check raised {type(exc).__name__}: {exc}"


def _ints(line):
    return [int(v) for v in line.split(",") if v != ""]


def _check_cli(result, argv, check, args):
    code, out = result
    if code != 0:
        return f"exit code {code}"
    lines = out.splitlines()
    if check == "verify":
        passed, total = lines[-1].rsplit(" ", 3)[-3].split("/")
        if not lines[-1].startswith(f"suite {args[0]}:") or passed != total or int(total) < 1:
            return f"verify {args[0]}: {lines[-1]}"
        return None
    if check == "count_pf":
        return _expect("count", int(out), formulas.restricted_alternating(*args))
    if check == "count_ppf":
        n, s = args
        return _expect("count", int(out), brute.count_prime_restricted(n, _segment(s)))
    if check == "count_rows":
        return _expect("count", int(out), _row_count(*args))
    if check == "count_modular_json":
        g, s, k = args
        m = g * s - k
        return _expect("count", int(json.loads(out)["count"]), brute.count_restricted(m, _row_starts(m, g)))
    if check == "simulate":
        prefs, spots = args
        occupancy, unparked = reference_park(prefs, spots)
        outcome = occupancy if not unparked and spots == len(prefs) else None
        doc = json.loads(out)
        got = (doc["occupancy"], doc["unparked"], doc["defect"], doc["outcome"])
        return _expect("parking", got, (occupancy, unparked, len(unparked), outcome))
    if check == "simulate_circular":
        prefs, g, s = args
        return _expect("occupancy", json.loads(out)["occupancy"], reference_circular_park(prefs, g * s))
    if check == "table_catalan":
        rows = [_ints(line)[1:] for line in lines[1:]]
        want = [[_catalan_closed(n, k) for k in range(n)] for n in range(1, args[0] + 1)]
        return _expect("catalan table", rows, want)
    if check == "table_pf":
        rows = [_ints(line)[1:] for line in lines[1:]]
        want = [
            [formulas.restricted_alternating(n, s) for s in range(1, n + 1)]
            for n in range(1, args[0] + 1)
        ]
        return _expect("pf table", rows, want)
    if check == "table_ones":
        n, s = args
        alt = formulas.ones_poly_alternating(n, s)
        return _expect("ones table", _ints(lines[1]), [alt.coefficient(i) for i in range(n + 1)])
    if check in ("enum_pf", "enum_ppf"):
        n, s = args
        prime = check == "enum_ppf"
        want = _ppf_count(n, s) if prime else formulas.restricted_alternating(n, s)
        lists = [tuple(_ints(line)) for line in lines]
        bad = next((p for p in lists if not _is_restricted_pf(p, n, s, prime)), None)
        if bad is not None:
            return f"{bad} is not a {'prime ' if prime else ''}parking function over [{s}]"
        return _check_stream(_consume(lists), n, s, want)
    return f"unknown check {check!r}"


def _is_restricted_pf(prefs, n, s, prime):
    """The occupancy condition on the sorted list, written out independently
    of ``parkres.core``: the i-th smallest entry is at most i (at most i-1
    after the first for prime lists)."""
    b = sorted(prefs)
    if len(b) != n or not all(1 <= v <= s for v in b):
        return False
    if prime:
        return b[0] == 1 and all(v <= i for i, v in enumerate(b) if i >= 1)
    return all(v <= i + 1 for i, v in enumerate(b))


def reference_park(prefs, spots):
    """Linear parking written out independently of ``parkres.core``."""
    occupancy = [None] * spots
    unparked = []
    for car, p in enumerate(prefs, 1):
        free = [t for t in range(p - 1, spots) if occupancy[t] is None]
        if free:
            occupancy[free[0]] = car
        else:
            unparked.append(car)
    return occupancy, unparked


def reference_circular_park(prefs, length):
    """Circular parking written out independently of ``parkres.circular``."""
    occupancy = [None] * length
    for car, p in enumerate(prefs, 1):
        spot = next(
            (p - 1 + step) % length
            for step in range(length)
            if occupancy[(p - 1 + step) % length] is None
        )
        occupancy[spot] = car
    return occupancy
