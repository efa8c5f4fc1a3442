from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkres import brute, circular, core
from parkres.exceptions import (
    BadModularPreference,
    BudgetExceeded,
    DomainError,
    NonIntegerIntermediate,
    NotBlockAligned,
)


def test_preferred_spots():
    assert circular.preferred_spots(3, 3) == (1, 4, 7)
    assert circular.preferred_spots(1, 4) == (1, 2, 3, 4)
    with pytest.raises(DomainError):
        circular.preferred_spots(0, 3)


def test_circular_park_left_panel():
    state = circular.circular_park((7, 1, 1, 7, 7, 7, 4), 3, 3)
    assert state.occupancy == (2, 3, 6, 7, None, None, 1, 4, 5)
    assert state.empty_spots == (5, 6)


def test_circular_park_right_panel():
    state = circular.circular_park((1, 4, 1, 4, 7, 4, 4), 3, 3)
    assert state.empty_spots == (3, 9)


def test_circular_park_single_car():
    for g, s in ((2, 3), (3, 2), (1, 4)):
        state = circular.circular_park((1,), g, s)
        assert state.occupancy[0] == 1
        assert state.empty_count == g * s - 1


def test_circular_park_errors():
    with pytest.raises(BadModularPreference):
        circular.circular_park((2,), 3, 3)
    with pytest.raises(DomainError):
        circular.circular_park((1,) * 5, 2, 2)


def test_decompose_examples():
    left = circular.decompose(circular.circular_park((7, 1, 1, 7, 7, 7, 4), 3, 3))
    assert left == ((2,), (3,), 7)
    right = circular.decompose(circular.circular_park((1, 4, 1, 4, 7, 4, 4), 3, 3))
    assert right == ((1, 1), (1, 2), 1)
    # a single empty spot always gives a single block
    for prefs in product((1, 4, 7), repeat=8):
        parts = circular.decompose(circular.circular_park(prefs, 3, 3))
        assert parts.lam == (1,)
        assert parts.mu == (3,)


def test_decompose_totals():
    for g, s, k in ((2, 3, 2), (3, 2, 3), (2, 2, 1), (1, 4, 2)):
        spots = circular.preferred_spots(g, s)
        for prefs in product(spots, repeat=g * s - k):
            parts = circular.decompose(circular.circular_park(prefs, g, s))
            assert sum(parts.lam) == k
            assert sum(parts.mu) == s
            assert all(v >= 1 for v in parts.lam)


def test_decompose_alignment_guard():
    # a row with a car after an empty spot is impossible for simulated
    # states; the decomposer refuses it, and a full street has no gap
    with pytest.raises(NotBlockAligned):
        circular.decompose(circular.CircularState(2, 2, (1, 1, 3), (1, 2, None, 3)))
    with pytest.raises(DomainError):
        circular.decompose(circular.CircularState(2, 2, (1, 1, 3, 3), (1, 2, 3, 4)))
    state = circular.CircularState(2, 2, (1, 3, 3), (1, None, 2, 3))
    assert circular.decompose(state) == ((1,), (2,), 3)


@st.composite
def _row_start_street(draw):
    g = draw(st.integers(1, 4))
    s = draw(st.integers(1, 4))
    cars = draw(st.integers(0, g * s - 1))  # at least one spot stays empty
    spots = st.sampled_from(circular.preferred_spots(g, s))
    prefs = draw(st.lists(spots, min_size=cars, max_size=cars))
    return circular.circular_park(prefs, g, s)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_row_start_street())
def test_decompose_invariants(state):
    g, length = state.g, state.spots
    parts = circular.decompose(state)
    assert sum(parts.lam) == state.empty_count
    assert sum(parts.mu) == state.s
    assert sum(g * b - a for a, b in zip(parts.lam, parts.mu)) == len(state.prefs)
    # the spot before the 1-based anchor is empty, and the anchor starts a row
    assert state.occupancy[(parts.anchor - 2) % length] is None
    assert (parts.anchor - 1) % g == 0


def test_linearize_fig3():
    # the left panel linearizes; the caption's sequence has cars 6 and 7
    # swapped relative to the drawn circular list, so check both lists
    left = circular.circular_park((7, 1, 1, 7, 7, 7, 4), 3, 3)
    linear = circular.linearize(left)
    assert linear == (1, 4, 4, 1, 1, 1, 7)
    swapped = circular.circular_park((7, 1, 1, 7, 7, 4, 7), 3, 3)
    assert circular.linearize(swapped) == (1, 4, 4, 1, 1, 7, 1)
    assert sorted(linear) == sorted((1, 4, 4, 1, 1, 7, 1))
    for candidate in (linear, (1, 4, 4, 1, 1, 7, 1)):
        assert core.is_parking_function(candidate)
        assert set(candidate) <= {1, 4, 7}
    right = circular.circular_park((1, 4, 1, 4, 7, 4, 4), 3, 3)
    assert circular.linearize(right) is None


def test_linearize_edge_cases():
    assert circular.linearize(circular.circular_park((), 2, 3)) == ()
    full = circular.circular_park((1, 1, 3, 3), 2, 2)
    assert circular.linearize(full) is None


def test_linearize_lands_in_restricted_family():
    g, s, k = 3, 2, 2
    m = g * s - k
    spots = circular.preferred_spots(g, s)
    allowed = [v for v in spots if v <= m]
    hits = 0
    for prefs in product(spots, repeat=m):
        linear = circular.linearize(circular.circular_park(prefs, g, s))
        if linear is not None:
            hits += 1
            assert core.is_parking_function(linear)
            assert all(v in allowed for v in linear)
    # every linear restricted list appears once per anchor placement
    assert hits == s * brute.count_restricted(m, allowed)


def test_rotation_equivariance():
    g, s = 2, 3
    length = g * s
    spots = circular.preferred_spots(g, s)
    for prefs in product(spots, repeat=4):
        state = circular.circular_park(prefs, g, s)
        rotated = tuple((p - 1 + g) % length + 1 for p in prefs)
        rstate = circular.circular_park(rotated, g, s)
        expect = tuple(
            state.occupancy[(i - g) % length] for i in range(length)
        )
        assert rstate.occupancy == expect


def test_compositions():
    assert list(circular.compositions(3, 2)) == [(1, 2), (2, 1)]
    assert list(circular.compositions(4, 1)) == [(4,)]
    listing = list(circular.compositions(6, 3))
    assert listing == sorted(listing)
    assert len(listing) == comb(5, 2)
    assert all(sum(c) == 6 and min(c) >= 1 for c in listing)
    with pytest.raises(DomainError):
        circular.compositions(2, 3)
    with pytest.raises(DomainError):
        circular.compositions(2, 0)


def test_capped_compositions_match_a_filter_over_every_composition():
    for parts in range(1, 5):
        every = {
            total: sorted(c for c in product(range(1, total + 1), repeat=parts) if sum(c) == total)
            for total in range(11)
        }
        for caps in product((0, 1, 2, 3, 4, 10), repeat=parts):
            for total, listing in every.items():
                want = [c for c in listing if all(a <= b for a, b in zip(c, caps))]
                assert list(circular._compositions(total, caps)) == want, (total, caps)


def test_verify_relation_walks_only_gaps_that_leave_every_block_a_car(monkeypatch):
    # each gap lam_i of a class lies in a block of mu_i rows that keeps a
    # car, so some composition mu of s has g*mu_i - lam_i >= 1 for all i;
    # a walk over every composition of k would reach 1.3M gap lists here,
    # C(199, 3) of them in four parts
    g, s, k = 60, 4, 200
    real = circular._compositions
    walked = []

    def spy(total, *rest):
        for lam in real(total, *rest):
            if total == k:
                walked.append(lam)
            yield lam

    monkeypatch.setattr(circular, "_compositions", spy)
    assert circular.verify_relation(g, s, k).ok
    assert walked
    for lam in walked:
        assert any(
            all(g * b - a >= 1 for a, b in zip(lam, mu))
            for mu in circular.compositions(s, len(lam))
        ), lam


def test_multinomial():
    assert circular.multinomial(4, (2, 2)) == 6
    assert circular.multinomial(7, (5, 2)) == 21
    assert circular.multinomial(5, (5,)) == 1
    assert circular.multinomial(3, (1, 0, 2)) == 3
    with pytest.raises(DomainError):
        circular.multinomial(3, (4, -1))
    with pytest.raises(DomainError):
        circular.multinomial(3, (1, 1))


def test_verify_relation_small():
    report = circular.verify_relation(3, 3, 1)
    assert report.ok
    assert report.total == 3**8
    assert [tuple(row.lam) for row in report.rows] == [(1,)]
    report2 = circular.verify_relation(3, 3, 2)
    assert report2.ok
    by_class = {(row.lam, row.mu): row for row in report2.rows}
    assert by_class[((1, 1), (1, 2))].observed == 1008
    assert by_class[((2,), (3,))].observed == 1179
    for s in range(2, 6):
        for k in range(1, s):
            assert circular.verify_relation(1, s, k).ok


def test_verify_relation_names_a_non_integer_layout_count(monkeypatch):
    # a class of n blocks has p*s/n layouts; a wrong period of 1 makes
    # 5/n fractional for the two-block classes of (2, 5, 4)
    real = circular._least_period
    monkeypatch.setattr(circular, "_least_period", lambda pairs: min(real(pairs), 1))
    with pytest.raises(NonIntegerIntermediate, match="non-integer layout count"):
        circular.verify_relation(2, 5, 4)


def test_verify_relation_budget_counts_orbits():
    # 4**15 = 1.07e9 lists in C(15+3, 3) = 816 orbits, which the budget
    # counts; the census parks one sorted list per rotation class, 204
    report = circular.verify_relation(4, 4, 1)
    assert report.ok and report.total == 4**15
    assert circular.verify_relation(4, 4, 1, budget=816).ok
    with pytest.raises(BudgetExceeded):
        circular.verify_relation(4, 4, 1, budget=815)
    with pytest.raises(BudgetExceeded):
        circular.verify_relation(8, 8, 1)  # C(63+7, 7) = 1.2e9 orbits


def test_verify_relation_errors():
    with pytest.raises(BudgetExceeded):
        circular.verify_relation(3, 3, 1, budget=44)  # C(8+2, 2) = 45 orbits
    with pytest.raises(DomainError):
        circular.verify_relation(3, 3, 9)  # zero cars: relation does not apply
    with pytest.raises(DomainError):
        circular.verify_relation(3, 3, 0)


def test_verify_relation_five_rows_of_five():
    # 5**24 lists in C(24 + 4, 4) = 20,475 orbits; the census parks one
    # sorted list per rotation class, 4,095, a row at a time, where
    # parking every orbit's list car by car took many times as long
    report = circular.verify_relation(5, 5, 1)
    assert report.ok and report.total == 5**24


def test_sizes_and_preferences_must_be_integers_in_range():
    # each of these once raised a bare TypeError, returned floats or
    # returned an empty census
    for call, args in (
        (circular.verify_relation, (2.0, 3, 1)),
        (circular.preferred_spots, (2.0, 3)),
        (circular.circular_park, ((1.0,), 2, 3)),
        (circular.modular_census, (2.0, 3, 1)),
        (circular.modular_census, (2, 3, 7)),
        (circular.modular_census, (0, 3, 1)),
        (circular.modular_census, (2, 3, 0)),
        (circular.compositions, (3.0, 2)),
        (circular.multinomial, (3, (1.0, 2))),
        (circular.multinomial, (3, None)),
        (circular.circular_park, (None, 2, 2)),
        (core.park, ((1, 2), 2.5)),
        (core.park, ((1.0, 2), 2)),
        (core.is_prime, ((1, 1.0),)),
        (core.catalan_check, ((1.5, 1),)),
    ):
        with pytest.raises(DomainError):
            call(*args)
    assert circular.modular_census(2, 3, 6) == {((6,), (3,)): 1}  # k = g*s: no cars
