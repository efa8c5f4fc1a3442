import gc
import inspect
import tracemalloc
from bisect import bisect_left
from collections import Counter, deque
from itertools import accumulate, combinations, combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkres import brute, circular, core
from parkres.exceptions import DomainError, EmptyRestriction, ParkresError


def all_subsets(n):
    for size in range(1, n + 1):
        yield from combinations(range(1, n + 1), size)


def test_enum_restricted_examples():
    assert list(brute.enum_restricted(2, (1, 2))) == [(1, 1), (1, 2), (2, 1)]
    assert list(brute.enum_restricted(2, (1,))) == [(1, 1)]
    assert list(brute.enum_restricted(2, (2,))) == []
    assert list(brute.enum_restricted(0, (1,))) == [()]


def test_enum_restricted_empty_set():
    with pytest.raises(EmptyRestriction):
        list(brute.enum_restricted(2, ()))
    assert list(brute.enum_restricted(0, ())) == [()]


def test_enum_restricted_rejects_bad_set():
    with pytest.raises(DomainError):
        list(brute.enum_restricted(2, (1, 5)))


def test_streams_check_arguments_when_called():
    # the streams are plain functions returning an iterator, so a bad
    # argument raises before anything is consumed
    for enum in (brute.enum_restricted, brute.enum_prime_restricted):
        with pytest.raises(DomainError):
            enum(2, (1, 5))
        with pytest.raises(EmptyRestriction):
            enum(2, ())
        with pytest.raises(DomainError, match="need n >= 0"):
            enum(-1, (1,))
        for n, S in ((0, ()), (3, (1,)), (3, (2, 3)), (4, (1, 2))):
            stream = enum(n, S)
            assert iter(stream) is stream, (enum, n, S)
        assert next(enum(0, ())) == ()


NON_INTEGER_CALLS = [
    ("enum_restricted", (3, (1, 2.0))),
    ("enum_prime_restricted", (2.5, (1,))),
    ("count_restricted", (2.5, (1,))),
    ("count_prime_restricted", (2, (1, 1.5))),
    ("count_nondecreasing_restricted", (3.0, 2)),
    ("ones_distribution", (3, 2.0)),
    ("fiber_size_bruteforce", ((2, 1), 2.0)),
    ("fiber_size_bruteforce", ((1.0, 2.0, 3.0), 2)),
    ("count_min_defect", (3.0, 2)),
    ("walk_steps", (3, (1, 2.0))),
    ("walk_steps", (3.0, (1,))),
    ("orbit_steps", (3, 2.0)),
    ("restriction_spots", ({"kind": "segment", "s": 2.0}, 3)),
]


def test_brute_rejects_non_integer_arguments():
    sized = {
        name
        for name, fn in vars(brute).items()
        if inspect.isfunction(fn)
        and fn.__module__ == brute.__name__
        and not name.startswith("_")
        and {"n", "s", "allowed"} & set(inspect.signature(fn).parameters)
    }
    assert {name for name, _ in NON_INTEGER_CALLS} == sized
    for name, args in NON_INTEGER_CALLS:
        with pytest.raises(DomainError):
            getattr(brute, name)(*args)
    for call in (
        lambda: brute.count_restricted(2, (1, 1.5)),
        lambda: brute.count_restricted(0, (1.0,)),
        lambda: brute.enum_restricted(0, ("1",)),
        lambda: brute.enum_prime_restricted(3, (1, None)),
        lambda: brute.fiber_size_bruteforce((2.0, 1), 2),
        lambda: brute.fiber_size_bruteforce(None, 2),
        lambda: brute.restriction_spots(None, 2),
        lambda: brute.restriction_spots({"kind": "set", "elements": 5}, 3),
    ):
        with pytest.raises(DomainError):
            call()
    # the spots are taken sorted and distinct
    assert brute.walk_steps(3, (3, 1, 2, 1)) == brute.walk_steps(3, (1, 2, 3)) == 20
    assert list(brute.enum_restricted(2, (2, 1, 2))) == [(1, 1), (1, 2), (2, 1)]
    assert brute.count_prime_restricted(3, range(3, 0, -1)) == 4


def test_spots_are_ignored_without_cars():
    # with no car present no spot is out of range, as the counts have it
    assert brute.walk_steps(0, (3, 1, 2)) == 2
    assert list(brute.enum_prime_restricted(0, (5, 7))) == [()]
    assert brute.count_restricted(0, (1, 2, 3)) == brute.count_prime_restricted(0, (9,)) == 1


def test_brute_rejects_negative_cars():
    for call in (
        brute.enum_restricted,
        brute.enum_prime_restricted,
        brute.count_restricted,
        brute.count_prime_restricted,
        brute.walk_steps,
    ):
        with pytest.raises(DomainError, match="need n >= 0"):
            call(-1, (1,))


def parks(prefs):
    """Sorted entry i is at most i: the list is a parking function."""
    return all(b <= i for i, b in enumerate(sorted(prefs), 1))


def parks_prime(prefs):
    """Sorted entry i + 1 is at most i for i < n: the list is prime."""
    return all(b <= i for i, b in enumerate(sorted(prefs)[1:], 1))


# every S in [n] for n <= 5, and a few sets with n = 6
STREAM_SETS = [(n, S) for n in range(1, 6) for S in all_subsets(n)] + [
    (6, (1, 2, 3, 4, 5, 6)),
    (6, (1, 3, 5)),
    (6, (1, 2, 4)),
]


def test_enum_matches_filtered_product():
    for n, S in STREAM_SETS:
        expected = [prefs for prefs in product(S, repeat=n) if parks(prefs)]
        got = list(brute.enum_restricted(n, S))
        assert got == expected, (n, S)  # lexicographic and duplicate-free
        assert brute.count_restricted(n, S) == len(expected)


def test_enum_prime_matches_filtered_product():
    for n, S in STREAM_SETS:
        expected = [prefs for prefs in product(S, repeat=n) if parks_prime(prefs)]
        assert list(brute.enum_prime_restricted(n, S)) == expected, (n, S)
        assert brute.count_prime_restricted(n, S) == len(expected)
    # without spot 2 the strict condition leaves only the all-ones list
    assert list(brute.enum_prime_restricted(3, (1, 3))) == [(1, 1, 1)]


@st.composite
def _small_space(draw):
    """(n, S) with n <= 9 and |S|**n <= 2e5, mostly with spot 1 in S."""
    n = draw(st.integers(1, 9))
    size = draw(st.integers(1, max(k for k in range(1, n + 1) if k**n <= 2 * 10**5)))
    S = draw(st.lists(st.integers(1, n), min_size=size, max_size=size, unique=True))
    if 1 not in S and draw(st.integers(0, 3)):  # without spot 1 no list parks
        S[0] = 1
    return n, tuple(sorted(S))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_small_space())
def test_streams_match_filtered_product(case):
    n, S = case
    space = list(product(S, repeat=n))
    assert list(brute.enum_restricted(n, S)) == [p for p in space if parks(p)]
    assert list(brute.enum_prime_restricted(n, S)) == [p for p in space if parks_prime(p)]


# sets whose prefix walk runs at least four levels above the shared tails
DEEP_WALKS = [(14, (1, 2)), (14, (1, 3)), (10, (1, 2, 3))]


@pytest.mark.parametrize("case", DEEP_WALKS, ids=str)
def test_streams_match_filtered_product_deep_walks(case):
    n, S = case
    short = max(r for r in range(n + 1) if len(S) ** r <= brute._TAIL_LISTS)
    assert n - short >= 4
    space = list(product(S, repeat=n))
    for enum, keep in ((brute.enum_restricted, parks), (brute.enum_prime_restricted, parks_prime)):
        got = list(enum(n, S))
        assert all(type(p) is tuple and len(p) == n for p in got)
        assert all(a < b for a, b in zip(got, got[1:]))  # ordered, no duplicates
        assert got == [p for p in space if keep(p)], (enum, n, S)


def test_streams_with_one_allowed_spot():
    for enum in (brute.enum_restricted, brute.enum_prime_restricted):
        assert list(enum(60, (1,))) == [(1,) * 60]
        assert list(enum(60, (2,))) == []
        assert list(enum(60, (60,))) == []


def test_stream_memory_stays_small():
    # the shared tails are at most 256 lists per deficit state, and the
    # plans above them at most 256 pairs; the 57,867 lists of (8, [4]) walk
    # four prefix levels above four tail levels, and held in one memo they
    # take over 15 MiB.  (10, {1,3,5,7,9}) and (9, [5]) keep a plan for
    # each of some 171 and 62 states three to six entries from the end.
    for n, S in ((8, range(1, 5)), (10, range(1, 10, 2)), (9, range(1, 6))):
        short = max(r for r in range(n + 1) if len(S) ** r <= brute._TAIL_LISTS)
        assert n - short >= 4
        tracemalloc.start()
        try:
            deque(brute.enum_restricted(n, S), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, (n, S, peak)


def test_stream_states_are_canonical(monkeypatch):
    # Each deficit is held at the largest one before it, so every state a
    # stream memoises is nondecreasing, ends with the entries to come, and
    # stands for one set of completions: no two tail states share tails.
    # A tail state's plan has one empty middle, with its completions as
    # its tails.
    plans = {}
    build_plan = brute._plan

    def record_plan(need, allowed, short, memo):
        plans[need] = build_plan(need, allowed, short, memo)
        return plans[need]

    monkeypatch.setattr(brute, "_plan", record_plan)
    for n in range(1, 7):
        for S in all_subsets(n):
            if S[0] != 1:
                continue
            for enum in (brute.enum_restricted, brute.enum_prime_restricted):
                plans.clear()
                deque(enum(n, S), maxlen=0)
                tails = {need: below[0] for need, (middles, below) in plans.items() if middles == [()]}
                for need in plans:
                    assert list(need) == sorted(need), (enum, n, S, need)
                for need, lists in tails.items():
                    assert {len(tail) for tail in lists} == {need[-1]}, (enum, n, S, need)
                for need, (middles, below) in plans.items():
                    lengths = {len(m) + len(t) for m, ts in zip(middles, below) for t in ts}
                    assert lengths == {need[-1]}, (enum, n, S, need)
                assert len({tuple(lists) for lists in tails.values()}) == len(tails), (enum, n, S)


def _first_prefixes(n, S, strict):
    """The first prefix, in lexicographic order, that reaches each state
    of the stream over S, by state."""
    first = {}
    todo = [((), brute._start(n, strict))]
    while todo:
        prefix, state = todo.pop()
        if state not in first:
            first[state] = prefix
            todo += [(prefix + (v,), after) for v, after in reversed(list(brute._steps(state, S)))]
    return first


def test_count_walk_counts_the_completions_of_each_stream_state(monkeypatch):
    # The walk, started at the bounds a state sets, counts the lists the
    # stream emits below that state: those that extend a prefix reaching
    # it, a contiguous run of the lexicographic stream.
    reached = set()
    take_steps = brute._steps

    def record_steps(need, allowed):
        reached.add(need)
        for v, after in take_steps(need, allowed):
            reached.add(after)
            yield v, after

    for n in range(1, 8):
        for S in all_subsets(n):
            if S[0] != 1:
                continue
            for strict, enum in ((False, brute.enum_restricted), (True, brute.enum_prime_restricted)):
                reached.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(brute, "_steps", record_steps)
                    lists = list(enum(n, S))
                first = _first_prefixes(n, S, strict)
                # with one allowed spot the stream emits its list unwalked
                assert reached == (first.keys() if len(S) > 1 else set()), (enum, n, S)
                for state in reached:
                    prefix = first[state]
                    below = bisect_left(lists, prefix + (n + 1,)) - bisect_left(lists, prefix)
                    walked = sum(brute._count_walk(state[-1], brute._bounds(state, S)))
                    assert walked == below, (enum, n, S, prefix, state)


def test_count_walks_hold_one_binomial_row():
    # The walks grow the binomial row of the cars unplaced one row at a
    # time: at 300 cars that row takes some 20 kB, where the whole triangle
    # of rows 0..300 would take about 2 MB.
    for count, args in (
        (brute.count_restricted, (300, (1, 2))),
        (brute.count_prime_restricted, (300, (1, 2))),
        (brute.ones_distribution, (300, 2)),
        (brute.count_min_defect, (300, 2)),
    ):
        tracemalloc.start()
        try:
            count(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19, (count.__name__, args, peak)


def test_enum_output_is_sorted_and_unique():
    listing = list(brute.enum_restricted(5, (1, 2, 4)))
    assert listing == sorted(set(listing))


def test_count_restricted_spot_values():
    assert brute.count_restricted(5, (1, 2)) == 31
    assert brute.count_restricted(5, (1, 2, 3)) == 206
    assert brute.count_restricted(3, (1, 2, 3)) == 16
    assert brute.count_restricted(7, (1, 4, 7)) == 393


def test_count_prime_restricted_values():
    assert brute.count_prime_restricted(4, (1, 2, 3, 4)) == 27
    assert brute.count_prime_restricted(3, (1,)) == 1
    # avoiding spot 2: only the all-ones list survives the strict condition
    assert brute.count_prime_restricted(3, (1, 3)) == 1
    assert list(brute.enum_prime_restricted(2, (1, 2))) == [(1, 1)]
    with pytest.raises(EmptyRestriction):
        brute.count_prime_restricted(2, ())


def test_count_nondecreasing_restricted():
    assert brute.count_nondecreasing_restricted(2, 2) == 2
    for n in range(1, 7):
        assert brute.count_nondecreasing_restricted(n, 1) == 1
    # diagonal: Catalan numbers
    assert [brute.count_nondecreasing_restricted(n, n) for n in range(1, 7)] == [
        1,
        2,
        5,
        14,
        42,
        132,
    ]
    for n in range(1, 10):
        for s in range(1, n + 1):
            expected = sum(
                1
                for t in combinations_with_replacement(range(1, s + 1), n)
                if all(v <= i for i, v in enumerate(t, 1))
            )
            assert brute.count_nondecreasing_restricted(n, s) == expected, (n, s)


def nondecreasing_walk(n, s):
    """Sorted [s]-restricted parking functions, counted by walking every
    sorted prefix whose entry i is at most min(i, s)."""

    def extend(i, low):
        # entries 1..i-1 are placed and the last of them is ``low``
        top = min(i, s)
        if i == n:
            return top - low + 1
        if i == n - 1:
            # each entry v in low..top leaves min(n, s) - v + 1 last
            # entries: one arithmetic series, summed without a call per leaf
            last = min(n, s)
            return (2 * last - low - top + 2) * (top - low + 1) // 2
        total = 0
        for v in range(low, top + 1):
            total += extend(i + 1, v)
        return total

    return extend(1, 1)


def test_count_nondecreasing_matches_walk():
    for n in range(1, 15):
        for s in range(1, n + 1):
            assert brute.count_nondecreasing_restricted(n, s) == nondecreasing_walk(n, s), (n, s)


def test_orbit_count_takes_its_recurrence_steps(monkeypatch):
    # each entry a running sum yields is one step, and orbit_steps counts
    # them all: the bound the routes oracle holds the orbit count to
    steps = [0]

    def counted(values):
        for value in accumulate(values):
            steps[0] += 1
            yield value

    monkeypatch.setattr(brute, "accumulate", counted)
    for n in range(1, 30):
        for s in range(1, n + 1):
            steps[0] = 0
            brute.count_nondecreasing_restricted(n, s)
            assert steps[0] == brute.orbit_steps(n, s), (n, s)


def test_ones_distribution():
    assert brute.ones_distribution(2, 2) == (2, 1)
    assert brute.ones_distribution(1, 1) == (1,)
    assert brute.ones_distribution(3, 2) == (3, 3, 1)
    assert brute.ones_distribution(3, 3) == (9, 6, 1)
    for n in range(1, 6):
        for s in range(1, n + 1):
            dist = brute.ones_distribution(n, s)
            assert sum(dist) == brute.count_restricted(n, range(1, s + 1))


def test_ones_distribution_names_a_list_without_a_one(monkeypatch):
    # with no occupancy bound the walk reaches lists no car of which
    # prefers spot 1; the census reports that as a library error
    monkeypatch.setattr(brute, "_bounds", lambda state, values: (0,) * len(values))
    with pytest.raises(ParkresError, match="no car preferring spot 1"):
        brute.ones_distribution(3, 2)


def test_fiber_size_bruteforce():
    assert brute.fiber_size_bruteforce((1, 2), 2) == 2
    assert brute.fiber_size_bruteforce((2, 1), 1) == 0
    assert brute.fiber_size_bruteforce((2, 1), 2) == 1
    with pytest.raises(DomainError):
        brute.fiber_size_bruteforce((1, 1), 1)
    # tally the outcomes of parking every list once
    for n in range(1, 7):
        for s in range(1, n + 1):
            tally = Counter()
            for prefs in product(range(1, s + 1), repeat=n):
                result = core.park(prefs, n)
                if not result.unparked:
                    tally[result.occupancy] += 1
            for sigma in permutations(range(1, n + 1)):
                assert brute.fiber_size_bruteforce(sigma, s) == tally[sigma], (sigma, s)


def test_count_min_defect():
    assert brute.count_min_defect(2, 1) == 1
    assert brute.count_min_defect(3, 2) == 7
    assert brute.count_min_defect(5, 2) == 31
    for n in range(1, 6):
        for s in range(1, n + 1):
            assert brute.count_min_defect(n, s) == brute.count_restricted(
                n, range(1, s + 1)
            )


def test_defect_floor():
    # no function beats defect n - s; ties are exactly the restricted lists
    for n in range(1, 7):
        for s in range(1, n + 1):
            for prefs in product(range(1, s + 1), repeat=n):
                d = core.defect(prefs, s)
                assert d >= n - s
                assert (d == n - s) == core.catalan_check(prefs)


ORACLE_CALLS = {
    "enum_restricted": lambda: deque(brute.enum_restricted(7, (1, 2, 4, 5)), maxlen=0),
    "enum_prime_restricted": lambda: deque(brute.enum_prime_restricted(7, (1, 2, 3)), maxlen=0),
    "count_restricted": lambda: brute.count_restricted(7, (1, 3, 4)),
    "count_prime_restricted": lambda: brute.count_prime_restricted(7, (1, 2, 5)),
    "count_nondecreasing_restricted": lambda: brute.count_nondecreasing_restricted(9, 4),
    "ones_distribution": lambda: brute.ones_distribution(6, 4),
    "fiber_size_bruteforce": lambda: brute.fiber_size_bruteforce((2, 1, 4, 3), 3),
    "count_min_defect": lambda: brute.count_min_defect(6, 4),
    "walk_steps": lambda: brute.walk_steps(7, (1, 3, 4)),
    "orbit_steps": lambda: brute.orbit_steps(9, 4),
    "restriction_spots": lambda: brute.restriction_spots({"kind": "modular", "g": 2, "s": 3, "k": 1}, 5),
}


def test_oracles_leave_no_cyclic_garbage():
    # a generator closure that calls itself keeps each call's state alive
    # until a full collection; the oracles must free it as they return
    public = {
        name
        for name, fn in vars(brute).items()
        if inspect.isfunction(fn) and fn.__module__ == brute.__name__ and not name.startswith("_")
    }
    assert public == set(ORACLE_CALLS)
    calls = list(ORACLE_CALLS.values()) + [lambda: circular.verify_relation(2, 3, 1)]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
        assert gc.collect() == 0
    finally:
        gc.enable()
