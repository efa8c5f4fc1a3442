"""The parking procedure and pointwise predicates on preference lists.

A street has spots 1..s and cars 1..n arrive in index order.  Car i drives
to its preferred spot; if that spot is taken it rolls forward and takes the
first empty spot, leaving the street if it runs out of road.  A preference
list under which every car parks (with as many spots as cars) is a parking
function.

Preference lists are plain sequences of 1-based spot indices.  The street
length is deliberately not part of the list: the same list can be parked
against streets of different lengths, so every operation takes the length
it needs and range-checks against it.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .exceptions import DomainError, NotAParkingFunction, PreferenceOutOfRange, _ints

#: Marker used in occupancy sequences for a spot with no car in it.
EMPTY = None


class ParkingResult(NamedTuple):
    """Outcome of running the parking procedure once.

    ``occupancy[i]`` is the 1-based index of the car in spot ``i + 1``, or
    :data:`EMPTY`.  ``unparked`` lists the cars that left, in the order
    they gave up.  Every car appears exactly once across the two fields.
    """

    occupancy: tuple
    unparked: tuple

    @property
    def defect(self) -> int:
        """Number of cars that failed to park."""
        return len(self.unparked)


def _tuple(prefs: Sequence[int]) -> tuple:
    """``prefs`` as a tuple; a non-iterable raises :class:`DomainError`."""
    try:
        return tuple(prefs)
    except TypeError:
        raise DomainError(f"need an iterable of integers, got {prefs!r}") from None


def validate_prefs(prefs: Sequence[int], limit: int) -> tuple:
    """``prefs`` as a tuple of ints.  A non-iterable ``prefs``, a
    non-integer entry or limit raises :class:`DomainError`, an entry
    outside [1, limit] :class:`PreferenceOutOfRange`."""
    prefs = _tuple(prefs)
    try:
        # The sum is an int only when every term is one, so a list of
        # ints skips the per-entry conversion, which costs more than the
        # simulation of a short list.
        ints = type(sum(prefs, limit)) is int
    except TypeError:
        ints = False
    if not ints:  # one conversion, so every fault reads alike
        limit, *prefs = _ints(limit, *prefs)
        prefs = tuple(prefs)
    for car, p in enumerate(prefs, 1):
        if not 1 <= p <= limit:
            raise PreferenceOutOfRange(
                f"car {car} prefers spot {p}, outside 1..{limit}"
            )
    return prefs


def park(prefs: Sequence[int], num_spots: int) -> ParkingResult:
    """Simulate the parking procedure for ``prefs`` on ``num_spots`` spots.

    Deterministic: cars enter in index order, park at their preference if
    it is empty and otherwise at the first empty spot after it.
    """
    prefs = validate_prefs(prefs, num_spots)
    occupancy = [EMPTY] * num_spots
    unparked = []
    for car, p in enumerate(prefs, 1):
        t = p - 1
        while t < num_spots and occupancy[t] is not EMPTY:
            t += 1
        if t < num_spots:
            occupancy[t] = car
        else:
            unparked.append(car)
    return ParkingResult(tuple(occupancy), tuple(unparked))


def defect(prefs: Sequence[int], num_spots: int) -> int:
    """Number of cars unable to park on a street of ``num_spots`` spots."""
    return park(prefs, num_spots).defect


def is_parking_function(prefs: Sequence[int]) -> bool:
    """True iff every car parks on a street with one spot per car."""
    prefs = _tuple(prefs)
    return park(prefs, len(prefs)).defect == 0


def catalan_check(prefs: Sequence[int]) -> bool:
    """True iff at least i entries are <= i, for every i up to the length.

    Equivalent to :func:`is_parking_function` but decided by counting
    instead of simulation; the two are cross-checked in the test suite.
    """
    return _occupancy(prefs, strict=False)


def _occupancy(prefs: Sequence[int], strict: bool) -> bool:
    # at least i entries <= i for every i up to the length, or more than i
    # for every i below it when ``strict``
    prefs = _tuple(prefs)
    prefs = validate_prefs(prefs, len(prefs))
    n = len(prefs)
    counts = [0] * (n + 1)
    for p in prefs:
        counts[p] += 1
    running = 0
    for i in range(1, n + 1 - strict):
        running += counts[i]
        if running < i + strict:
            return False
    return True


def nondecreasing(prefs: Sequence[int]) -> tuple:
    """The unique order-preserving rearrangement (the sorted list)."""
    return tuple(sorted(prefs))


def is_prime(prefs: Sequence[int]) -> bool:
    """True iff more than i entries are <= i, for every i strictly below
    the length.

    These are the indecomposable parking functions: every spot except the
    last has a surplus car pushed past it.  Equivalently the sorted list
    starts at 1 and afterwards stays strictly below its position.  The
    single list (1,) of length 1 is prime (the condition is vacuous).
    """
    return _occupancy(prefs, strict=True)


def outcome_permutation(prefs: Sequence[int]) -> tuple:
    """The permutation sending each spot to the car that parks in it.

    Only defined for parking functions; raises :class:`NotAParkingFunction`
    if any car fails to park.
    """
    prefs = _tuple(prefs)
    result = park(prefs, len(prefs))
    if result.unparked:
        raise NotAParkingFunction(
            f"cars {result.unparked} fail to park; no outcome permutation"
        )
    return result.occupancy
