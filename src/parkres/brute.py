"""Exhaustive oracles over restricted preference spaces.

The streams enumerate, the fiber oracle simulates, and the counters walk
the states of the parking procedure.  The counters rest on one
observation: whether every car parks (and whether the list is prime),
how many cars prefer spot 1, and how many cars park on fewer spots than
cars are all unchanged when the cars are reordered.  So the counters
choose how many cars prefer each allowed value in turn, c of the
``rest`` cars still unplaced in C(rest, c) ways.  What is left to count
below a choice depends only on the value reached and on how many cars
are placed, so each counter fills one array per value, indexed by the
cars placed (or unplaced), from the last value back, and counts each
state once rather than once per orbit (sorted list) that passes through
it.  The values after a state are counted at fewer cars unplaced, so the
walk runs from few cars unplaced to many and grows the binomial row of
``rest`` by one as it goes: it holds one row, not the triangle.  The
parking counters keep a choice only while the occupancy condition (at
least i entries <= i, for every i) can still hold (:func:`_count_walk`),
and the ones tally is the first level of that walk: C(n, c) ways to
choose the c cars preferring spot 1, times the count over spots 2..s
with those c cars placed.  The min-defect counter instead parks the cars
a spot at a time, counting the cars waiting at each spot, and drops a
choice at the first spot that finds none (:func:`_min_defect_walk`).
Either walk, rows included, takes at most (|S| - 1)(n + 1)(n + 2)/2
additions and multiplications (:func:`walk_steps`), where the orbits are
exponentially many.

The ``enum_*`` streams walk the lists in lexicographic order and extend a
prefix only by the entries that keep it completable.  The completions of
a prefix depend only on how many entries are left and on how far each
occupancy count still falls short, so a stream builds the completions of
its last ``short`` positions once per such state (its tails, at most 256
lists each), and the ``short`` positions above them once per state too:
a state's plan lists, in order, its middles (the entries up to a tail
state) and the tails that follow each, at most 256 pairs, built from the
plans below it.  The Python walk stops ``2 * short`` entries from the end
and emits each list as its prefix, a middle and a tail joined in C
(``map`` of ``operator.add`` over the tails, one per pair, made by an
outer ``map``), so it expands each state once per stream rather than
once per prefix.  The public ``enum_*`` functions return that iterator
rather than re-yield it, so no Python frame runs per list.  The orbit
count runs a dynamic programme over the last entry of the sorted
prefixes, and the fiber oracle parks the cars one at a time and follows
only the preferences that put each car where the outcome permutation
does.

These are the trusted, independent counterparts of the closed forms in
:mod:`parkres.formulas`; the two are never allowed to share a code path.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from operator import add, mul
from typing import Iterable, Iterator, Sequence

from .exceptions import (
    ParkresError,
    _check_ns,
    _check_permutation,
    _check_request,
    _check_restriction,
    _check_spots,
)


def restriction_spots(restriction: dict, n: int) -> tuple:
    """The allowed spots of a count request on n cars: 1..s for a segment,
    the elements of a set, and every g-th spot from 1 up to n (the row
    starts) for a modular restriction.  ``restriction`` is the object
    ``count --format json`` reports; the walk and the streams check the
    spots against n."""
    kind, n, values = _check_request(restriction, n)
    if kind == "set":
        return values
    if kind == "segment":
        return tuple(range(1, values[0] + 1))
    return tuple(range(1, n + 1, values[0]))


def _occupancy_need(n: int, allowed: tuple, strict: bool) -> tuple:
    """Bounds for :func:`_count_walk` from the occupancy condition.

    Entry j is the fewest entries <= ``allowed[j]`` a parking list has:
    each i from ``allowed[j]`` up to the next allowed value needs at least
    i entries <= i (more than i when ``strict`` and i < n).
    """
    return tuple(min(v, n) if strict else v - 1 for v in allowed[1:]) + (n,)


def walk_steps(n: int, allowed: Iterable[int]) -> int:
    """The most steps the walk of :func:`count_restricted` or
    :func:`count_prime_restricted` takes for ``n`` cars over ``allowed``:
    the additions that build the binomial rows and the multiplications
    that weight each choice.

    At most |allowed| - 1 levels choose how many cars take a value, each
    over ``placed`` in 0..n with at most n + 1 - placed choices; the first
    level runs at ``placed`` = 0 alone, and with the n(n - 1)/2 additions
    of rows 1..n it still fits in (n + 1)(n + 2)/2 steps.
    :func:`count_min_defect` over [s] keeps the same bound, as the cars
    still unplaced fix its state at each spot.  With one allowed spot (or
    no cars) there is no walk.
    """
    n, elems = _check_restriction(n, allowed)
    return max(len(elems) - 1, 0) * (n + 1) * (n + 2) // 2


def _count_parking(n: int, allowed: tuple, strict: bool) -> int:
    # n >= 0 cars over the sorted ``allowed``, not empty when n >= 1
    if n == 0:
        return 1  # the empty list
    if allowed[0] != 1:
        return 0  # spot 1 is never preferred
    if len(allowed) == 1:
        return 1  # every car prefers spot 1
    return sum(_count_walk(n, _occupancy_need(n, allowed, strict)))


def _count_walk(n: int, need: tuple) -> list:
    # Entry c: the lists in which c cars take the first allowed value and
    # every bound in ``need`` holds.  ways[j - 1][p] counts the ways to
    # give the n - p cars still unplaced values from allowed[j:] so that
    # every bound in need[j:] holds, when p cars hold smaller values: c of
    # them take allowed[j], in C(n - p, c) ways, with p + c >= need[j],
    # and the last value takes every car left.  A level reads the one
    # after it at p and beyond, so p runs down from n while the binomial
    # row of the n - p cars unplaced grows by one.  Level j is reached
    # with at least need[j - 1] cars placed, the first level with none,
    # and holds zero below that, so a step may sum over every choice.
    last = need[max(len(need) - 2, 0)]
    ways = [[0] * (n + 1) for _ in need[2:]] + [[0] * last + [1] * (n + 1 - last)]
    levels = [(ways[j - 1], ways[j], need[j - 1]) for j in range(len(need) - 2, 0, -1)]
    row = [1]
    for p in range(n, -1, -1):
        for out, after, reached in levels:
            if p >= reached:
                out[p] = sum(map(mul, row, after[p:]))
        if p:
            row = [1, *map(add, row, row[1:]), 1]
    return list(map(mul, row, ways[0]))


# A stream builds the completions of its last ``short`` positions at
# once, where ``short`` is the largest r <= n with |S|**r <= _TAIL_LISTS;
# that also bounds a plan, whose middles have at most ``short`` entries.
_TAIL_LISTS = 256


def _stream(n: int, allowed: tuple, strict: bool) -> Iterator[tuple]:
    # n >= 0 cars over the sorted ``allowed``, not empty when n >= 1
    if n == 0:
        return iter([()])  # the empty list
    if allowed[0] != 1:
        return iter(())  # spot 1 is never preferred
    if len(allowed) == 1:
        return iter([(1,) * n])  # one list, without a walk n levels deep
    short = 0
    while short < n and len(allowed) ** (short + 1) <= _TAIL_LISTS:
        short += 1
    need = tuple(range(1 + strict, n + strict)) + (n,)
    return chain.from_iterable(_walk((), need, allowed, short, {}, {}))


def _steps(need: tuple, allowed: tuple) -> Iterator[tuple]:
    # Yield (v, need after v) for each entry v that keeps the prefix
    # completable.  ``need[i-1]`` is how many more entries <= i the prefix
    # needs, at least 0: a list needs i of them (i + 1 when strict and
    # i < n), so ``need[-1]`` is the number of entries still to come.  As
    # 1 is allowed, the prefix is completable iff no need exceeds that.
    # An entry v lowers need[i-1] for every i >= v, so it keeps the prefix
    # completable iff it is at most the first i whose need equals the
    # entries to come.
    top = need.index(need[-1]) + 1
    for v in allowed:
        if v > top:
            return
        yield v, need[: v - 1] + tuple([d - 1 if d else 0 for d in need[v - 1 :]])


def _walk(prefix: tuple, need: tuple, allowed: tuple, short: int, plans: dict, memo: dict):
    # Yield, in order, one iterable of lists per tail state below ``prefix``:
    # within 2 * short entries of the end, the state's plan gives them, as
    # ``prefix + middle`` joined to each tail of the middle.
    if need[-1] <= 2 * short:
        middles, tails = _plan(need, allowed, short, plans, memo)
        yield from map(map, repeat(add), map(repeat, map(add, repeat(prefix), middles)), tails)
        return
    for v, after in _steps(need, allowed):
        yield from _walk(prefix + (v,), after, allowed, short, plans, memo)


def _plan(need: tuple, allowed: tuple, short: int, plans: dict, memo: dict) -> tuple:
    # The (middles, tails) of state ``need``, at most ``short`` entries
    # above the tail states: each completion of a prefix in that state is
    # some middles[k] followed by one of tails[k], in lexicographic order.
    # With at most ``short`` entries in a middle there are at most
    # |S|**short <= _TAIL_LISTS of them; ``plans`` holds them per state.
    plan = plans.get(need)
    if plan is None:
        if need[-1] <= short:
            plan = [()], [_tails(need, allowed, memo)]
        else:
            middles, tails = [], []
            for v, after in _steps(need, allowed):
                below, below_tails = _plan(after, allowed, short, plans, memo)
                middles += map(add, repeat((v,)), below)
                tails += below_tails
            plan = middles, tails
        plans[need] = plan
    return plan


def _tails(need: tuple, allowed: tuple, memo: dict) -> list:
    # The completions of any prefix in state ``need``, in lexicographic
    # order; ``memo`` holds them per state (entries to come and deficits,
    # as ``need`` ends with the former) for the whole stream.
    tails = memo.get(need)
    if tails is None:
        if need[-1] == 0:
            tails = [()]
        else:
            tails = [
                (v,) + tail
                for v, after in _steps(need, allowed)
                for tail in _tails(after, allowed, memo)
            ]
        memo[need] = tails
    return tails


def enum_restricted(n: int, allowed: Iterable[int]) -> Iterator[tuple]:
    """A lazy iterator over the parking functions with all preferences in
    ``allowed``, in lexicographic order.

    The arguments are checked when the function is called, before the
    first ``next()``.
    """
    return _stream(*_check_spots(n, allowed), strict=False)


def enum_prime_restricted(n: int, allowed: Iterable[int]) -> Iterator[tuple]:
    """A lazy iterator over the prime parking functions with preferences
    in ``allowed``, in lexicographic order.

    The arguments are checked when the function is called, before the
    first ``next()``.
    """
    return _stream(*_check_spots(n, allowed), strict=True)


def count_restricted(n: int, allowed: Iterable[int]) -> int:
    """Number of parking functions with all preferences in ``allowed``,
    counted by enumeration without materializing the set."""
    return _count_parking(*_check_spots(n, allowed), strict=False)


def count_prime_restricted(n: int, allowed: Iterable[int]) -> int:
    """Number of prime parking functions with preferences in ``allowed``."""
    return _count_parking(*_check_spots(n, allowed), strict=True)


def count_nondecreasing_restricted(n: int, s: int) -> int:
    """Number of non-decreasing [s]-restricted parking functions.

    These are one per orbit of the car-permuting action, so this is the
    orbit count.  A non-decreasing list parks iff its entry i is at most
    i, so after i entries ``ways[v-1]`` counts the sorted prefixes whose
    last entry is v <= min(i, s).  The next entry may be any v at least
    the last one, so each step is a running sum.
    """
    n, s = _check_ns(n, s)
    ways = [1]  # the one prefix (1,)
    for i in range(2, n + 1):
        ways = list(accumulate(ways + [0] * (min(i, s) - len(ways))))
    return sum(ways)


def orbit_steps(n: int, s: int) -> int:
    """The steps :func:`count_nondecreasing_restricted` takes for ``n``
    cars over [s]: one per entry of its running sums, min(i, s) at each
    i from 2 to n, s(s+1)/2 - 1 + (n - s)s in all.  [s] is checked
    against n first, so a bad request is named at any budget."""
    n, s = _check_ns(n, s)
    return s * (s + 1) // 2 - 1 + (n - s) * s


def ones_distribution(n: int, s: int) -> tuple:
    """Counts (c_1, ..., c_n) of [s]-restricted parking functions with
    exactly i cars preferring spot 1.

    No parking function avoids spot 1, so the implicit c_0 is always 0.
    This is the first level of the parking walk: C(n, c) ways to choose
    the c cars preferring spot 1 (at least one, and all n when s = 1),
    times the walk over spots 2..s with those c cars placed.
    """
    n, s = _check_ns(n, s)
    tally = _count_walk(n, _occupancy_need(n, tuple(range(1, s + 1)), False))
    if tally[0] != 0:
        raise ParkresError("parking function with no car preferring spot 1")
    return tuple(tally[1:])


def fiber_size_bruteforce(sigma: Sequence[int], s: int) -> int:
    """Number of [s]-restricted parking functions whose outcome is the
    permutation ``sigma`` (one-line notation, spot -> car).

    Car j's spot depends only on the preferences of cars 1..j, so the cars
    are parked in order: car j tries every preference 1..s, rolling forward
    on the current occupancy, and the walk goes on only from the spot where
    ``sigma`` puts car j.  Every preference that lands it there leaves the
    same occupancy, so the numbers of such preferences multiply.
    """
    sigma = _check_permutation(sigma)
    n, s = _check_ns(len(sigma), s)
    spot_of = {car: spot for spot, car in enumerate(sigma)}
    taken = [False] * n
    total = 1
    for car in range(1, n + 1):
        landed = 0
        for pref in range(1, s + 1):
            t = pref - 1
            while t < n and taken[t]:
                t += 1
            if t == spot_of[car]:
                landed += 1
        if landed == 0:
            return 0
        total *= landed
        taken[spot_of[car]] = True
    return total


def count_min_defect(n: int, s: int) -> int:
    """Number of preference functions [n] -> [s] with the smallest possible
    defect n - s.

    Decided by parking the sorted lists a spot at a time, so it is
    independent of the occupancy-condition counters above.  Walking spots
    1..s, the cars waiting at a spot are those preferring it plus those
    rolled on from earlier spots; the spot parks one of them, and a list
    reaches the minimum defect iff every spot finds a car waiting.  The
    walk chooses how many cars prefer each spot in turn, in binomially
    many ways, and drops a choice at the first spot that finds none; what
    is left to count depends only on the spot reached and the cars
    unplaced (which fix the cars waiting), so each such state is counted
    once.
    """
    n, s = _check_ns(n, s)
    if s == 1:
        return 1  # every car prefers spot 1
    return _min_defect_walk(n, s)


def _min_defect_walk(n: int, s: int) -> int:
    # ways[k][rest] counts the ways to give ``rest`` cars preferences among
    # the last k + 1 spots so that each of them finds a car, when the
    # n - rest cars placed, less one per spot passed, wait at the first of
    # them.  The last spot takes every car left, at least n - s + 1 of
    # them.  A spot keeps rest - c cars for the spots after it in
    # C(rest, rest - c) ways, and with none waiting c is at least one.
    # The spots after it are counted at fewer cars unplaced, so ``rest``
    # runs up from 0 while the binomial row of ``rest`` grows by one; the
    # first spot is reached with all n cars unplaced and none waiting.
    ways = [[1] * (n + 1)] + [[0] * (n + 1) for _ in range(s - 2)]
    row = [1]
    for rest in range(n):
        empty = rest + s - 1 - n  # the k at which no car waits
        if 1 <= empty < s - 1:
            ways[empty][rest] = sum(map(mul, row[:rest], ways[empty - 1]))
        for k in range(max(empty + 1, 1), s - 1):
            ways[k][rest] = sum(map(mul, row, ways[k - 1]))
        row = [1, *map(add, row, row[1:]), 1]
    return sum(map(mul, row[:n], ways[s - 2]))
