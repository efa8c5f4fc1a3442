from itertools import combinations, product

import pytest

from parkres import bijections, brute, core
from parkres.bijections import FIXED_POINT, Color, ColoredPF
from parkres.exceptions import (
    DomainError,
    ImageContainsLastSpot,
    InvalidColoring,
    MissingOne,
    NotInShiftedSet,
    NotPrime,
    NotRestricted,
    PreferenceOutOfRange,
)


def subsets_with_one(n):
    rest = list(range(2, n + 1))
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            yield (1,) + extra


def test_shift_restriction():
    for n in range(2, 7):
        assert bijections.shift_restriction(range(1, n + 1), n) == tuple(
            v for v in range(1, n + 1) if v != 2
        )
    assert bijections.shift_restriction((1, 2, 3), 5) == (1, 3, 4)
    assert bijections.shift_restriction((1,), 3) == (1,)
    with pytest.raises(MissingOne):
        bijections.shift_restriction((2, 3), 3)


def test_prime_to_restricted_examples():
    assert bijections.prime_to_restricted((1, 1), (1, 2)) == (1, 1)
    assert bijections.prime_to_restricted((1, 1, 2), (1, 2, 3)) == (1, 1, 3)
    assert bijections.prime_to_restricted((1, 2, 1, 1), (1, 2, 3, 4)) == (1, 3, 1, 1)
    assert core.catalan_check((1, 1, 3))
    with pytest.raises(NotPrime):
        bijections.prime_to_restricted((1, 2), (1, 2))
    with pytest.raises(NotRestricted):
        bijections.prime_to_restricted((1, 1, 2), (1, 3))


def test_prime_image_guard_refuses_the_last_spot(monkeypatch):
    # no prime list prefers spot n, so only a wrong prime test reaches the
    # guard: it raises rather than return a list outside the shifted set
    real = core.is_prime
    monkeypatch.setattr(core, "is_prime", lambda prefs: tuple(prefs) == (1, 2) or real(prefs))
    with pytest.raises(ImageContainsLastSpot, match=r"prime list \(1, 2\) prefers spot 2"):
        bijections.prime_to_restricted((1, 2), (1, 2))
    assert bijections.prime_to_restricted((1, 1), (1, 2)) == (1, 1)


def test_restricted_to_prime_examples():
    assert bijections.restricted_to_prime((1, 1), (1, 2)) == (1, 1)
    assert bijections.restricted_to_prime((1, 1, 3), (1, 2, 3)) == (1, 1, 2)
    assert bijections.restricted_to_prime((1, 3, 1, 1), (1, 2, 3, 4)) == (1, 2, 1, 1)
    with pytest.raises(NotInShiftedSet):
        bijections.restricted_to_prime((1, 2, 1), (1, 2, 3))
    with pytest.raises(NotInShiftedSet):
        bijections.restricted_to_prime((3, 3, 3), (1, 2, 3))


def test_shift_bijection_round_trip():
    for n in range(1, 6):
        for S in subsets_with_one(n):
            T = bijections.shift_restriction(S, n)
            primes = list(brute.enum_prime_restricted(n, S))
            restricted = set(brute.enum_restricted(n, T))
            assert len(primes) == len(restricted)
            image = set()
            for pi in primes:
                psi = bijections.prime_to_restricted(pi, S)
                assert bijections.restricted_to_prime(psi, S) == pi
                image.add(psi)
            assert image == restricted


def test_u_vector():
    assert bijections.u_vector((1, 3), 3) == (1, 1, 2)
    assert bijections.u_vector(range(1, 5), 4) == (1, 2, 3, 4)
    assert bijections.u_vector((1,), 3) == (1, 1, 1)
    assert bijections.u_vector((2,), 3) == (0, 1, 1)
    assert bijections.u_vector((1, 2, 3), 0) == ()  # no car: spots are ignored


def test_shift_restriction_without_cars():
    assert bijections.shift_restriction((1, 2, 3), 0) == (1,)


def test_to_u_parking_examples():
    assert bijections.to_u_parking((1, 3, 1), (1, 3)) == (1, 2, 1)
    assert bijections.to_u_parking((1, 4, 4, 1, 1, 7, 1), (1, 4, 7)) == (
        1,
        2,
        2,
        1,
        1,
        3,
        1,
    )
    for prefs in brute.enum_restricted(3, (1, 2, 3)):
        assert bijections.to_u_parking(prefs, (1, 2, 3)) == prefs
    with pytest.raises(NotRestricted):
        bijections.to_u_parking((1, 2, 2), (1, 3))
    with pytest.raises(NotRestricted):
        bijections.to_u_parking((3, 3, 3), (1, 3))


def test_is_u_parking_rejects_bad_input():
    # the same rules as the core predicates: integer entries, and no
    # preference below spot 1
    with pytest.raises(PreferenceOutOfRange):
        bijections.is_u_parking((0, 1), (1, 2))
    with pytest.raises(PreferenceOutOfRange):
        core.catalan_check((0, 1))
    for prefs, u in [
        ((1, 1), (1.5, 2)), ((1.0, 1), (1, 2)), (("1",), (1,)), (None, (1,)), ((1,), 5),
    ]:
        with pytest.raises(DomainError):
            bijections.is_u_parking(prefs, u)
    # the maps read their lists the same way
    maps = (bijections.prime_to_restricted, bijections.restricted_to_prime, bijections.to_u_parking)
    for bijection in maps:
        for prefs in (None, (1, 1.5)):
            with pytest.raises(DomainError):
                bijection(prefs, (1, 2))
    assert bijections.is_u_parking((2, 1), (1, 2))
    assert not bijections.is_u_parking((2, 2), (1, 2))


def test_u_parking_image_characterization():
    for n in range(1, 5):
        for size in range(1, n + 1):
            for S in combinations(range(1, n + 1), size):
                u = bijections.u_vector(S, n)
                image = {
                    bijections.to_u_parking(pi, S)
                    for pi in brute.enum_restricted(n, S)
                }
                target = {
                    psi
                    for psi in product(range(1, size + 1), repeat=n)
                    if bijections.is_u_parking(psi, u)
                }
                assert image == target
                assert len(image) == brute.count_restricted(n, S)


def fig1_coloring():
    return ColoredPF.from_indigo_cars((1, 3, 2, 2, 4), (1, 3, 4), s=2)


def test_colored_pf_validation():
    colored = fig1_coloring()
    assert colored.indigo_prefs == (1, 2, 2)
    assert colored.red_prefs == (3, 4)
    assert colored.sign == 1
    # indigo cars must form a parking function on their own street
    with pytest.raises(InvalidColoring):
        ColoredPF.from_indigo_cars((2, 3, 2, 2, 4), (1, 3, 4), s=2)
    # red preferences must exceed s
    with pytest.raises(InvalidColoring):
        ColoredPF.from_indigo_cars((1, 2, 2, 2, 4), (1, 3, 4), s=2)
    # red preferences must stay within the forbidden window
    with pytest.raises(InvalidColoring):
        ColoredPF.from_indigo_cars((1, 5, 2, 2, 4), (1, 3, 4), s=2)
    # at least s indigo cars
    with pytest.raises(InvalidColoring):
        ColoredPF.from_indigo_cars((1, 3), (1,), s=2)
    with pytest.raises(InvalidColoring):
        ColoredPF((1, 1), ("indigo", "indigo"), s=1)


def test_colored_pf_coerces_and_validates_every_construction():
    colored = ColoredPF([1, 1], [Color.INDIGO, Color.INDIGO], 1)
    assert colored.prefs == (1, 1)
    assert colored.colors == (Color.INDIGO, Color.INDIGO)
    assert colored.prime is False
    assert colored._replace(s=2) == ColoredPF((1, 1), colored.colors, 2)
    with pytest.raises(InvalidColoring):
        colored._replace(s=3)
    with pytest.raises(InvalidColoring):
        ColoredPF._make(((1, 2), (Color.INDIGO,), 1))
    # flipping car 1 leaves one indigo car, fewer than s = 2
    with pytest.raises(InvalidColoring):
        ColoredPF.from_indigo_cars((1, 1), (1, 2), s=2).with_flipped(1)


@pytest.mark.parametrize(
    "prefs, colors, s, prime, message",
    [
        ((1, 1), (Color.INDIGO, "red"), 1, False, "colors must be"),
        ((1,), (Color.INDIGO,), 0, False, "need s >= 1"),
        ((1, 3), (Color.INDIGO, Color.INDIGO), 1, False, "not within 1..2"),
        ((1, 1, 3), (Color.INDIGO, Color.INDIGO, Color.RED), 1, True, "outside 2..2"),
    ],
)
def test_colored_pf_rules_name_the_failure(prefs, colors, s, prime, message):
    with pytest.raises(InvalidColoring, match=message):
        ColoredPF(prefs, colors, s, prime)


def test_involution_recoloring_example():
    colored = fig1_coloring()
    flipped = bijections.involution(colored)
    assert flipped is not FIXED_POINT
    assert flipped.colors[4] is Color.INDIGO  # car 5 recolored
    assert set(
        car for car in range(1, 6) if flipped.colors[car - 1] is Color.INDIGO
    ) == {1, 3, 4, 5}
    assert bijections.involution(flipped) == colored
    assert flipped.sign == -colored.sign


def test_involution_fixed_point():
    allindigo = ColoredPF.from_indigo_cars((1, 1), (1, 2), s=2)
    assert bijections.involution(allindigo) is FIXED_POINT
    assert repr(FIXED_POINT) == "FIXED_POINT"


def test_involution_prime_variant():
    colored = ColoredPF.from_indigo_cars((1, 1, 2), (1, 2, 3), s=1, prime=True)
    flipped = bijections.involution(colored)
    assert flipped is not FIXED_POINT
    assert flipped.red_prefs == (2,)
    assert bijections.involution(flipped) == colored
    fixed = ColoredPF.from_indigo_cars((1, 1, 1), (1, 2, 3), s=1, prime=True)
    assert bijections.involution(fixed) is FIXED_POINT
    with pytest.raises(InvalidColoring):
        ColoredPF.from_indigo_cars((1, 2, 2), (1, 2, 3), s=1, prime=True)
