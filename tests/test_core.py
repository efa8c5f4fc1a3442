from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkres import bijections, circular, core, formulas, verify
from parkres.exceptions import (
    DomainError,
    NonIntegerIntermediate,
    NotAParkingFunction,
    PreferenceOutOfRange,
    _exact,
)


def test_park_all_ones():
    result = core.park((1, 1, 1), 3)
    assert result.occupancy == (1, 2, 3)
    assert result.unparked == ()
    assert result.defect == 0


def test_park_restricted_example():
    assert core.park((1, 4, 4, 1, 1, 7, 1), 7).defect == 0


def test_park_nobody_wants_spot_one():
    result = core.park((2, 2), 2)
    assert result.occupancy == (core.EMPTY, 1)
    assert result.unparked == (2,)
    assert result.defect == 1


def test_park_rejects_out_of_range():
    with pytest.raises(PreferenceOutOfRange):
        core.park((1, 3), 2)
    with pytest.raises(PreferenceOutOfRange):
        core.park((0, 1), 2)
    # a non-iterable list is a domain fault too, not a bare TypeError
    for call, args in (
        (core.park, (None, 3)),
        (core.is_parking_function, (None,)),
        (core.catalan_check, (5,)),
        (core.outcome_permutation, (None,)),
    ):
        with pytest.raises(DomainError):
            call(*args)


def test_non_integer_faults_read_alike():
    # an entry, the limit or a non-number: one message naming the limit and
    # then every entry
    for prefs, spots, shown in (
        ((1, 2.0), 3, "(3, 1, 2.0)"),
        ((1, 2), 3.0, "(3.0, 1, 2)"),
        (("a",), 3, "(3, 'a')"),
    ):
        with pytest.raises(DomainError) as raised:
            core.park(prefs, spots)
        assert str(raised.value) == f"need integer arguments, got {shown}"


def test_park_empty_street():
    assert core.park((), 0).defect == 0
    assert core.is_parking_function(())


def test_is_parking_function_examples():
    assert core.is_parking_function((1, 3, 2, 2, 4))
    assert not core.is_parking_function((2, 2))
    for n in range(1, 6):
        for sigma in permutations(range(1, n + 1)):
            assert core.is_parking_function(sigma)


def test_catalan_check_examples():
    assert core.catalan_check((1, 1, 1, 1))
    assert core.catalan_check((1, 3, 2, 2, 4))
    assert not core.catalan_check((1, 4, 1, 4, 7, 4, 4))


def test_nondecreasing():
    assert core.nondecreasing((1, 3, 2, 2, 4)) == (1, 2, 2, 3, 4)
    assert core.nondecreasing((1, 1, 1)) == (1, 1, 1)
    assert core.nondecreasing((2, 1)) == (1, 2)
    assert core.nondecreasing(()) == ()


# Calls that once raised a bare TypeError or ValueError, or returned a
# list of non-spots, where the argument readers of ``exceptions`` refuse
# them: each fault is a DomainError, and a preference below spot 1
# PreferenceOutOfRange, as in is_u_parking.
@pytest.mark.parametrize(
    "call, args, kwargs, fault",
    [
        (core.nondecreasing, (None,), {}, DomainError),
        (core.nondecreasing, ((1.5, "a"),), {}, DomainError),
        (core.nondecreasing, ((2, 1.5),), {}, DomainError),
        (core.nondecreasing, ((0, -3),), {}, PreferenceOutOfRange),
        (bijections.ColoredPF, (None, None, 1), {}, DomainError),
        (bijections.ColoredPF, (("a",), (bijections.Color.INDIGO,), 1), {}, DomainError),
        (circular.canonical_class, (None, (1,)), {}, DomainError),
        (circular.canonical_class, ((1, 2), (1,)), {}, DomainError),
        (formulas.abel_check, (3, "x", 1), {}, DomainError),
        (formulas.abel_check, (3, None, 1), {}, DomainError),
        (circular.verify_relation, (2, 2, 1), {"budget": None}, DomainError),
        # a budget is an int or a float that is not NaN, at least 0, read
        # alike by each reader: a string once leaked a TypeError, and NaN
        # once ran unbounded, as every comparison with it is false
        (formulas.routes, ("pf", {"kind": "segment", "s": 2}, 3, "5"), {}, DomainError),
        (formulas.routes, ("pf", {"kind": "segment", "s": 2}, 3, float("nan")), {}, DomainError),
        (formulas.routes, ("pf", {"kind": "segment", "s": 2}, 3, -1), {}, DomainError),
        (circular.verify_relation, (2, 2, 1), {"budget": float("nan")}, DomainError),
        (circular.verify_relation, (2, 2, 1), {"budget": "5"}, DomainError),
        (verify.check_modular, (float("nan"),), {}, DomainError),
        (verify.check_modular, ("5",), {}, DomainError),
        # a record or a kind that is not one once leaked an AttributeError,
        # a TypeError or a KeyError from its first use
        (bijections.involution, (None,), {}, DomainError),
        (bijections.involution, ((1, 2),), {}, DomainError),
        (circular.decompose, (None,), {}, DomainError),
        (circular.linearize, ("x",), {}, DomainError),
        (verify.iter_colorings, ("3", 1), {}, DomainError),
        (verify.check_closed_forms, ("nope", 3), {}, DomainError),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_malformed_arguments_are_refused_by_the_readers(call, args, kwargs, fault):
    with pytest.raises(fault) as raised:
        call(*args, **kwargs)
    assert type(raised.value) is fault


def test_exact_returns_the_quotient():
    assert _exact(12, 4, "twelve by four") == 3
    assert _exact(0, 7, "nothing") == 0
    assert _exact(10**40, 10**20, "a large power") == 10**20


def test_exact_names_the_quantity_on_a_remainder_or_a_negative_quotient():
    # either would mean a broken form: its quotient is a count
    for numerator, denominator in ((7, 2), (-6, 3), (6, -3), (-7, 2)):
        with pytest.raises(NonIntegerIntermediate, match=r"^the sum at n=4, s=2 is not"):
            _exact(numerator, denominator, "the sum at n=4, s=2")


def test_float_budgets_are_read_alike():
    # a float budget bounds the oracle of routes and the relation's census
    # as it bounds verify modular, which once alone accepted one
    segment = {"kind": "segment", "s": 2}
    for budget in (1e9, float("inf"), 10.0):  # 10 walk steps
        assert formulas.routes("pf", segment, 3, budget)["brute"]() == 7
    assert circular.verify_relation(2, 3, 1, budget=1e9).ok


def test_is_prime_examples():
    assert core.is_prime((1,))
    assert core.is_prime((1, 1))
    assert not core.is_prime((1, 2))
    assert core.is_prime((1, 1, 2))
    # length-2 lists: exactly one prime, matching (2-1)**(2-1)
    assert sum(core.is_prime(t) for t in product((1, 2), repeat=2)) == 1


def test_prime_never_prefers_last_spot():
    for n in range(2, 6):
        for prefs in product(range(1, n + 1), repeat=n):
            if n in prefs:
                assert not core.is_prime(prefs)


def test_defect_examples():
    assert core.defect((1, 1, 1), 1) == 2
    assert core.defect((1, 2), 2) == 0
    assert core.defect((2, 2, 2), 2) == 2


def test_outcome_permutation_examples():
    assert core.outcome_permutation((1, 1)) == (1, 2)
    assert core.outcome_permutation((2, 1)) == (2, 1)
    assert core.outcome_permutation((1, 3, 2, 2, 4)) == (1, 3, 2, 4, 5)
    with pytest.raises(NotAParkingFunction):
        core.outcome_permutation((2, 2))


def _sorted_rule(prefs, u):
    # the occupancy condition, written on the sorted list: its i-th entry is
    # at most u_i, for every i
    return all(p <= b for p, b in zip(sorted(prefs), u))


def test_simulation_catalan_and_prime_equivalences():
    # simulation == counting condition, and the prime condition matches the
    # sorted-rearrangement characterization, exhaustively for n <= 6.  Each
    # is the sorted rule on its bound vector, u = 1..n and 1, 1, 2, ..., n-1,
    # and is_u_parking follows it on u = 1..n over every list in [n+1]^n,
    # where an entry n + 1 is past the street of the others; each reference
    # is worked out once per sorted list
    assert bijections.is_u_parking is core.is_u_parking
    for n in range(7):
        catalan, prime = list(range(1, n + 1)), [1, *range(1, n)][:n]
        want = {}
        for prefs in product(range(1, n + 2), repeat=n):
            up = tuple(sorted(prefs))
            if up not in want:
                at_most = [sum(p <= i for p in up) for i in range(n + 1)]
                parks = _sorted_rule(up, catalan)
                assert parks == all(at_most[i] >= i for i in range(1, n + 1))
                # 1 first, then each entry below its position
                sorted_prime = all(up[i - 1] < max(i, 2) for i in range(1, n + 1))
                assert _sorted_rule(up, prime) == sorted_prime
                want[up] = parks, sorted_prime
            parks, sorted_prime = want[up]
            assert core.is_u_parking(prefs, catalan) == parks
            if n + 1 in prefs:
                continue
            sim = core.is_parking_function(prefs)
            assert sim == core.catalan_check(prefs) == parks
            assert core.is_prime(prefs) == sorted_prime
            if sorted_prime:
                assert sim


@pytest.mark.parametrize("n", range(6))
def test_u_parking_reads_any_bound_vector(n):
    # every u of length n, nondecreasing or not, with entries 0..n+1 (1..n
    # at n = 5, to keep the sweep short), against every sorted list of n
    # entries up to the largest of them: the rule reads only the sorted list
    values = range(1, n + 1) if n == 5 else range(n + 2)
    lists = list(combinations_with_replacement(range(1, max(values, default=0) + 1), n))
    for u in product(values, repeat=n):
        for prefs in lists:
            assert core.is_u_parking(prefs, u) == _sorted_rule(prefs, u), (prefs, u)


def test_parking_is_permutation_invariant():
    # whether a list parks depends only on its multiset of preferences
    for n in range(1, 6):
        verdict = {}
        for prefs in product(range(1, n + 1), repeat=n):
            key = tuple(sorted(prefs))
            value = core.is_parking_function(prefs)
            assert verdict.setdefault(key, value) == value


@st.composite
def _street(draw):
    spots = draw(st.integers(1, 8))
    prefs = draw(st.lists(st.integers(1, spots), max_size=10))
    return prefs, spots


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_street())
def test_park_places_every_car_once(street):
    prefs, spots = street
    result = core.park(prefs, spots)
    placed = [car for car in result.occupancy if car is not core.EMPTY]
    assert len(result.occupancy) == spots
    assert sorted(placed + list(result.unparked)) == list(range(1, len(prefs) + 1))
