"""The counters against a plain odometer over every list, and against
the per-car parking of one sorted list per orbit.

``parkres.brute`` counts parking, prime, ones and minimum-defect lists
by walking the states of the parking procedure, each state once per
call, weighting each choice by the binomial ways to make it;
``parkres.circular`` tallies its census from one sorted list per
rotation class of row counts, weighted by the class size times the orbit
size.  The min-defect counter and the census park a spot (a row) at a
time.  The odometer below visits all |S|**n preference lists,
decides each one by simulation or by the definition, and classifies
circular streets with its own decomposition; it shares no code with
either module.  The per-car references list every sorted list with
``itertools.combinations_with_replacement``, compute its orbit size
from factorials and park every car of it on its own, so they reach
sizes the odometer cannot.  The walks themselves are checked the same
way: the parking walk against the factorial sizes of the sorted lists
its occupancy bounds keep, and the census walk against each rotation
class built from all its rotations.  Counted additions and
multiplications hold the walks to their step bound, ``brute.walk_steps``.
"""

import operator
from collections import Counter
from itertools import combinations, combinations_with_replacement, product
from math import comb, factorial, prod

import pytest

from parkres import brute, circular

# The middle cases wrap overflow past the last row through several rows,
# with k < g and with k >= g, where fully empty rows merge into one gap.
# The last ones have row counts equal to some of their rotations, such as
# (1, 1, 1, 1) and (2, 0, 2, 0) at s = 4 or (2, 0, 0, 2, 0, 0) at s = 6,
# and a single car.
CENSUS_CASES = [(2, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 4), (3, 3, 2), (1, 4, 2), (1, 5, 3), (4, 2, 3),
                (3, 3, 1), (2, 4, 1), (4, 3, 2), (2, 5, 4), (2, 4, 4), (1, 6, 2), (3, 4, 8), (3, 4, 11)]


def all_restrictions(n):
    for size in range(1, n + 1):
        yield from combinations(range(1, n + 1), size)


def parked(prefs, spots):
    """Number of cars that park on a one-way street of ``spots`` spots."""
    taken = [False] * (spots + 1)
    count = 0
    for p in prefs:
        while p <= spots and taken[p]:
            p += 1
        if p <= spots:
            taken[p] = True
            count += 1
    return count


def is_prime_pf(prefs):
    n = len(prefs)
    return all(sum(1 for p in prefs if p <= i) > i for i in range(1, n))


def reference_parking(n, allowed):
    """(parking functions, prime parking functions) over ``allowed``**n."""
    plain = prime = 0
    for prefs in product(allowed, repeat=n):
        if parked(prefs, n) == n:
            plain += 1
            prime += is_prime_pf(prefs)
    return plain, prime


def classify(taken, g, s):
    """Canonical (gap sizes, block rows) of the occupancy ``taken``."""
    length = g * s
    starts = [i for i in range(length) if taken[i] and not taken[i - 1]]
    if not starts:
        return (length,), (s,)
    pairs = []
    for a, b in zip(starts, starts[1:] + [starts[0] + length]):
        gap = sum(1 for i in range(a, b) if not taken[i % length])
        assert (b - a) % g == 0
        pairs.append((gap, (b - a) // g))
    best = min(pairs[r:] + pairs[:r] for r in range(len(pairs)))
    return tuple(p[0] for p in best), tuple(p[1] for p in best)


def park_circular(prefs, g, s):
    """Occupancy of the circular street after ``prefs`` (1-based) park."""
    length = g * s
    taken = [False] * length
    for p in prefs:
        t = p - 1
        while taken[t]:
            t = (t + 1) % length
        taken[t] = True
    return taken


def reference_census(g, s, k):
    census = {}
    for prefs in product(range(1, g * s + 1, g), repeat=g * s - k):
        key = classify(park_circular(prefs, g, s), g, s)
        census[key] = census.get(key, 0) + 1
    return census


def sorted_lists(n, values):
    """Each non-decreasing list of n entries from ``values``, one per orbit,
    with its orbit size n!/prod(c_v!)."""
    fact = [factorial(i) for i in range(n + 1)]
    for prefs in combinations_with_replacement(values, n):
        yield prefs, fact[n] // prod([fact[prefs.count(v)] for v in values])


def per_car_census(g, s, k):
    """The census with every car of each orbit's sorted list parked alone."""
    census = {}
    for prefs, size in sorted_lists(g * s - k, range(1, g * s + 1, g)):
        key = classify(park_circular(prefs, g, s), g, s)
        census[key] = census.get(key, 0) + size
    return census


def per_car_min_defect(n, s):
    """Minimum-defect count with every car of each sorted list parked alone."""
    return sum(size for prefs, size in sorted_lists(n, range(1, s + 1)) if parked(prefs, s) == s)


def orbit_cases():
    """(n, values, need) for every n <= 8 and 2 <= r <= 5 values (the
    parking walk needs two; its callers count a single value themselves):
    no bound, and the plain and strict occupancy bounds of every r-subset
    of [n]."""
    for n in range(9):
        for r in range(2, 6):
            yield n, tuple(range(1, r + 1)), (0,) * r
            for values in combinations(range(1, n + 1), r):
                for strict in (False, True):
                    yield n, values, brute._bounds(brute._start(n, strict), values)


def test_count_walk_sums_the_factorial_sizes_of_the_bounded_multisets():
    # The walk carries each size as a product of binomials, a level per
    # value; here each size is n!/prod(c_v!)
    # over the multisets filtered from every sorted list by the bound as
    # the comment of _bounds states it.
    for n, values, need in orbit_cases():
        want = 0
        for entries in combinations_with_replacement(range(len(values)), n):
            counts = tuple(map(entries.count, range(len(values))))
            if all(sum(counts[: j + 1]) >= bound for j, bound in enumerate(need)):
                want += factorial(n) // prod(map(factorial, counts))
        got = sum(brute._count_walk(n, need))
        assert got == want, (n, values, need)
        if not any(need):
            assert got == len(values) ** n, (n, values)


def test_walks_stay_within_their_step_bound(monkeypatch):
    # Each step of the walks is one addition (a binomial row entry) or one
    # multiplication (a choice weighted by its binomial), so counting both
    # holds the walks, rows included, to walk_steps.  A walk that visits
    # every orbit instead takes hundreds of thousands of steps; the counter
    # fails it at the limit rather than let it run.
    for count, args, allowed in (
        (brute.count_restricted, (16, range(1, 17)), range(1, 17)),
        (brute.count_prime_restricted, (40, range(1, 41, 2)), range(1, 41, 2)),
        (brute.count_min_defect, (40, 30), range(1, 31)),
        (brute.count_restricted, (300, (1, 2)), (1, 2)),
        (brute.count_min_defect, (300, 2), (1, 2)),
    ):
        want, steps, limit = count(*args), [0], brute.walk_steps(args[0], allowed)

        def counted(op):
            def step(a, b):
                steps[0] += 1
                if steps[0] > limit:
                    raise AssertionError(f"{count.__name__}{args} took over {limit} steps")
                return op(a, b)

            return step

        with monkeypatch.context() as patch:
            patch.setattr(brute, "add", counted(operator.add))
            patch.setattr(brute, "mul", counted(operator.mul))
            assert count(*args) == want
        assert 0 < steps[0] <= limit, (count.__name__, args, steps[0], limit)


def test_necklace_counts_yield_each_rotation_class_once_with_its_size():
    # The rotation classes of the compositions of m into s parts are built
    # here from every composition; each class is yielded once, as its
    # largest rotation, weighted by its size (the period) times the
    # multinomial m!/prod(c_r!).
    for m in range(9):
        for s in range(1, 7):
            classes = set()
            for entries in combinations_with_replacement(range(s), m):
                counts = tuple(map(entries.count, range(s)))
                classes.add(frozenset(counts[r:] + counts[:r] for r in range(s)))
            seen = Counter()
            total = 0
            for counts, weight in circular._necklace_counts(m, s):
                rotations = frozenset(counts[r:] + counts[:r] for r in range(s))
                seen[rotations] += 1
                assert counts == max(rotations), (m, s, counts)
                multinomial = factorial(m) // prod(map(factorial, counts))
                assert weight == len(rotations) * multinomial, (m, s, counts)
                total += weight
            assert set(seen) == classes and set(seen.values()) <= {1}, (m, s)
            assert total == s**m, (m, s)


def test_count_parking_matches_odometer():
    assert brute.count_restricted(0, ()) == brute.count_prime_restricted(0, ()) == 1
    for n in range(1, 7):
        for allowed in all_restrictions(n):
            plain, prime = reference_parking(n, allowed)
            assert brute.count_restricted(n, allowed) == plain, (n, allowed)
            assert brute.count_prime_restricted(n, allowed) == prime, (n, allowed)


def test_ones_census_matches_odometer():
    for n in range(1, 7):
        for s in range(1, n + 1):
            tally = [0] * (n + 1)
            for prefs in product(range(1, s + 1), repeat=n):
                if parked(prefs, n) == n:
                    tally[prefs.count(1)] += 1
            assert tally[0] == 0 and brute.ones_distribution(n, s) == tuple(tally[1:]), (n, s)


def test_count_min_defect_matches_odometer():
    for n in range(1, 7):
        for s in range(1, n + 1):
            want = sum(
                1 for prefs in product(range(1, s + 1), repeat=n) if parked(prefs, s) == s
            )
            assert brute.count_min_defect(n, s) == want, (n, s)


def test_count_min_defect_matches_per_car_parking():
    for n in range(1, 11):
        for s in range(1, n + 1):
            assert brute.count_min_defect(n, s) == per_car_min_defect(n, s), (n, s)


@pytest.mark.parametrize("g,s,k", CENSUS_CASES)
def test_modular_census_matches_odometer(g, s, k):
    assert circular.modular_census(g, s, k) == reference_census(g, s, k)


def test_modular_census_matches_per_car_parking():
    cases = [
        (g, s, k)
        for g in range(1, 7)
        for s in range(1, 7)
        for k in range(1, g * s + 1)
        if comb(g * s - k + s - 1, s - 1) <= 5000
    ]
    assert len(cases) == 357
    for g, s, k in cases:
        assert circular.modular_census(g, s, k) == per_car_census(g, s, k), (g, s, k)


def test_modular_census_zero_cars():
    assert circular.modular_census(2, 2, 4) == {((4,), (2,)): 1}


@pytest.mark.parametrize("g,s,k", CENSUS_CASES + [(3, 4, 1), (4, 4, 5)])
def test_census_totals(g, s, k):
    assert sum(circular.modular_census(g, s, k).values()) == s ** (g * s - k)
