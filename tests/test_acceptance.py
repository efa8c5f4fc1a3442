"""Acceptance suite: every advertised identity, exhaustively at desk scale.

Each criterion asserts exact equality and must finish inside its stated
time budget; a pass prints one summary line (run with ``pytest -s`` to see
them).
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

from parkres import bijections, brute, circular, core, formulas, verify
from parkres.bijections import FIXED_POINT


@contextmanager
def criterion(num, description, limit_seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, (
        f"criterion {num} took {elapsed:.1f}s, budget {limit_seconds}s"
    )
    print(f"acceptance {num:2d} ({description}): PASS in {elapsed:.2f}s")


def test_criterion_1_totals():
    with criterion(1, "brute-force totals", 10):
        totals = [brute.count_restricted(n, range(1, n + 1)) for n in range(1, 7)]
        assert totals == [formulas.pf_total(n) for n in range(1, 7)]
        assert totals[2:5] == [16, 125, 1296]
        primes = [brute.count_prime_restricted(n, range(1, n + 1)) for n in range(2, 7)]
        assert primes == [formulas.ppf_total(n) for n in range(2, 7)]
        assert primes[2] == 27


def test_criterion_2_restricted_counts():
    with criterion(2, "restricted count formulas", 30):
        for n in range(1, 7):
            for s in range(1, n + 1):
                want = brute.count_restricted(n, range(1, s + 1))
                assert formulas.restricted_subtractive(n, s) == want
                assert formulas.restricted_alternating(n, s) == want
        for n in range(1, 13):
            for s in range(1, n + 1):
                assert formulas.restricted_subtractive(n, s) == formulas.restricted_alternating(n, s)
        assert formulas.restricted_subtractive(5, 2) == 31
        assert formulas.restricted_subtractive(5, 3) == 206


def test_criterion_3_prime_counts():
    with criterion(3, "prime count formulas", 30):
        for n in range(2, 7):
            for s in range(1, n):
                want = brute.count_prime_restricted(n, range(1, s + 1))
                assert formulas.prime_subtractive(n, s) == want
                assert formulas.prime_alternating(n, s) == want


def test_criterion_4_bijections():
    with criterion(4, "shift bijection and u-parking", 60):
        for n in range(1, 6):
            rest = list(range(2, n + 1))
            for r in range(len(rest) + 1):
                for extra in combinations(rest, r):
                    S = (1,) + extra
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
        for n in range(1, 6):
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


def test_criterion_5_involution():
    with criterion(5, "sign-reversing involution", 60):
        for prime in (False, True):
            for n in range(1, 6):
                for s in range(1, n + 1):
                    signed = 0
                    fixed = set()
                    for colored in verify.iter_colorings(n, s, prime):
                        signed += colored.sign
                        out = bijections.involution(colored)
                        if out is FIXED_POINT:
                            assert colored.red_count == 0
                            assert max(colored.prefs) <= s
                            fixed.add(colored.prefs)
                        else:
                            assert (out.red_count - colored.red_count) % 2 == 1
                            assert bijections.involution(out) == colored
                    if prime:
                        allowed = range(1, s + 1)
                        assert signed == brute.count_prime_restricted(n, allowed)
                        assert fixed == set(brute.enum_prime_restricted(n, allowed))
                    else:
                        allowed = range(1, s + 1)
                        assert signed == brute.count_restricted(n, allowed)
                        assert fixed == set(brute.enum_restricted(n, allowed))


def test_criterion_6_abel():
    with criterion(6, "Abel identity and ones enumerator", 10):
        grid = [Fraction(v) for v in range(-3, 4)] + [Fraction(1, 2), Fraction(-1, 2)]
        for n in range(1, 11):
            for x in grid:
                for y in grid:
                    assert formulas.abel_check(n, x, y).equal
            for s in range(1, n + 1):
                plus = formulas.abel_check(n, 1, s - n - 1)
                assert plus.equal and plus.lhs == s**n
                minus = formulas.abel_check(n, -1, s - n + 1)
                assert minus.equal and minus.lhs == s**n
        for n in range(1, 9):
            for s in range(1, n + 1):
                assert formulas.ones_poly_subtractive(n, s) == formulas.ones_poly_alternating(n, s)
            # x*(x+n)**(n-1), by the binomial theorem
            want = (0,) + tuple(comb(n - 1, j) * n ** (n - 1 - j) for j in range(n))
            assert formulas.ones_poly_subtractive(n, n) == want


def test_criterion_7_orbits():
    with criterion(7, "orbit counts in the Catalan triangle", 30):
        for n in range(1, 9):
            for s in range(1, n + 1):
                assert formulas.catalan_triangle(n, s - 1) == brute.count_nondecreasing_restricted(n, s)
        diagonal = [1] + [formulas.catalan_number(n) for n in range(1, 6)]
        assert diagonal == [1, 1, 2, 5, 14, 42]


def test_criterion_8_fibers():
    with criterion(8, "outcome fiber sizes", 60):
        for n in range(1, 6):
            for s in range(1, n + 1):
                total = 0
                for sigma in permutations(range(1, n + 1)):
                    want = brute.fiber_size_bruteforce(sigma, s)
                    assert formulas.fiber_size_formula(sigma, s) == want
                    total += want
                assert total == brute.count_restricted(n, range(1, s + 1))


def test_criterion_9_modular():
    with criterion(9, "circular relation and modular counts", 120):
        for g, s in ((2, 2), (2, 3), (3, 2), (3, 3)):
            m = g * s - 1
            allowed = [v for v in circular.preferred_spots(g, s) if v <= m]
            assert brute.count_restricted(m, allowed) == s ** (g * s - 2)
        assert brute.count_restricted(8, (1, 4, 7)) == 2187

        checks = verify.check_modular(budget=10**7)
        assert checks, "no verification jobs ran"
        failures = [c for c in checks if not c.ok]
        assert not failures, failures

        left = circular.circular_park((7, 1, 1, 7, 7, 7, 4), 3, 3)
        assert left.empty_spots == (5, 6)
        assert circular.decompose(left) == ((2,), (3,), 7)
        linear = circular.linearize(left)
        assert linear == (1, 4, 4, 1, 1, 1, 7)
        assert core.is_parking_function(linear) and set(linear) <= {1, 4, 7}
        # the caption's linear sequence (same multiset; the drawn panel and
        # caption swap cars 6 and 7) comes from the swapped circular list
        caption = (1, 4, 4, 1, 1, 7, 1)
        assert sorted(linear) == sorted(caption)
        assert core.is_parking_function(caption) and set(caption) <= {1, 4, 7}
        swapped = circular.circular_park((7, 1, 1, 7, 7, 4, 7), 3, 3)
        assert circular.linearize(swapped) == caption
        right = circular.circular_park((1, 4, 1, 4, 7, 4, 4), 3, 3)
        assert right.empty_spots == (3, 9)
        assert circular.linearize(right) is None


def test_criterion_10_defect():
    with criterion(10, "minimum-defect bijection", 10):
        for n in range(1, 7):
            for s in range(1, n + 1):
                assert brute.count_min_defect(n, s) == brute.count_restricted(
                    n, range(1, s + 1)
                )
