import inspect
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkres import brute, formulas
from parkres.exceptions import DomainError
from parkres.polynomial import ONE, X, IntPolynomial


def test_totals():
    assert formulas.pf_total(3) == 16
    assert [formulas.pf_total(n) for n in range(1, 7)] == [1, 3, 16, 125, 1296, 16807]
    assert formulas.ppf_total(4) == 27
    assert formulas.ppf_total(1) == 1
    with pytest.raises(DomainError):
        formulas.pf_total(0)


def test_restricted_subtractive_values():
    assert formulas.restricted_subtractive(5, 2) == 31
    assert formulas.restricted_subtractive(5, 3) == 206
    for n in range(1, 8):
        assert formulas.restricted_subtractive(n, 1) == 1
    with pytest.raises(DomainError):
        formulas.restricted_subtractive(3, 4)
    with pytest.raises(DomainError):
        formulas.restricted_subtractive(3, 0)


def test_restricted_forms_agree():
    for n in range(1, 13):
        for s in range(1, n + 1):
            assert formulas.restricted_alternating(n, s) == formulas.restricted_subtractive(n, s)


def test_restricted_full_street_collapses_to_total():
    for n in range(1, 10):
        assert formulas.restricted_alternating(n, n) == formulas.pf_total(n)


def test_restricted_matches_brute_force():
    for n in range(1, 7):
        for s in range(1, n + 1):
            assert formulas.restricted_subtractive(n, s) == brute.count_restricted(
                n, range(1, s + 1)
            )


def test_prime_forms():
    for n in range(2, 8):
        assert formulas.prime_subtractive(n, 1) == 1
    assert formulas.prime_subtractive(4, 2) == 11
    assert formulas.prime_subtractive(5, 4) == 256
    for n in range(2, 13):
        for s in range(1, n):
            assert formulas.prime_alternating(n, s) == formulas.prime_subtractive(n, s)
    for n in range(2, 7):
        for s in range(1, n):
            assert formulas.prime_subtractive(n, s) == brute.count_prime_restricted(
                n, range(1, s + 1)
            )
    with pytest.raises(DomainError):
        formulas.prime_subtractive(4, 4)


def test_catalan_triangle():
    for n in range(1, 10):
        assert formulas.catalan_triangle(n, 0) == 1
    assert [formulas.catalan_number(n) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]
    assert formulas.catalan_triangle(2, 1) == 2
    rows = [[formulas.catalan_triangle(n, k) for k in range(n)] for n in range(1, 6)]
    assert rows == [[1], [1, 2], [1, 3, 5], [1, 4, 9, 14], [1, 5, 14, 28, 42]]
    # interior recurrence
    for n in range(2, 9):
        for k in range(1, n - 1):
            assert formulas.catalan_triangle(n, k) == formulas.catalan_triangle(
                n - 1, k
            ) + formulas.catalan_triangle(n, k - 1)
    with pytest.raises(DomainError):
        formulas.catalan_triangle(3, 3)
    with pytest.raises(DomainError):
        formulas.catalan_triangle(3, -1)


def _catalan_rows(n_max):
    """Rows 1..n_max of the triangle by T(n, k) = T(n-1, k) + T(n, k-1),
    where T(n-1, n-1) stands for the diagonal entry T(n-1, n-2)."""
    rows = [(1,)]
    for n in range(2, n_max + 1):
        prev = rows[-1]
        row = [1]
        for k in range(1, n):
            row.append(row[k - 1] + prev[min(k, n - 2)])
        rows.append(tuple(row))
    return rows


def test_catalan_triangle_closed_form():
    for n, row in enumerate(_catalan_rows(60), start=1):
        assert tuple(formulas.catalan_triangle(n, k) for k in range(n)) == row, n
    # a row far beyond any recursion depth
    assert formulas.catalan_triangle(2000, 5) == comb(2005, 5) * 1996 // 2001
    assert formulas.catalan_number(2000) == comb(4000, 2000) // 2001


def test_catalan_triangle_matches_orbit_counts():
    for n in range(1, 9):
        for s in range(1, n + 1):
            assert formulas.catalan_triangle(n, s - 1) == brute.count_nondecreasing_restricted(n, s)


def test_ones_polynomials():
    assert formulas.ones_poly_subtractive(1, 1) == X
    assert formulas.ones_poly_alternating(1, 1) == X
    assert formulas.ones_poly_subtractive(2, 2) == IntPolynomial((0, 2, 1))
    for n in range(1, 9):
        for s in range(1, n + 1):
            a = formulas.ones_poly_subtractive(n, s)
            b = formulas.ones_poly_alternating(n, s)
            assert a == b
            assert a.coefficient(0) == 0
        assert formulas.ones_poly_subtractive(n, n) == X * (X + n) ** (n - 1)


# The closed forms as plain sums, one math.comb per term: the references
# for the running binomials of parkres.formulas.
REFERENCE_COUNTS = {
    "restricted_subtractive": lambda n, s: s**n
    - (s - 1) ** n
    - sum(comb(n, i) * (i + 1) ** (i - 1) * (s - i - 1) ** (n - i) for i in range(1, s)),
    "restricted_alternating": lambda n, s: sum(
        comb(n, i) * (i + 1) ** (i - 1) * (s - i - 1) ** (n - i) for i in range(s, n + 1)
    ),
    "prime_subtractive": lambda n, s: s**n
    - (s - 1) ** n
    - sum(comb(n, i) * (i - 1) ** (i - 1) * (s - i) ** (n - i) for i in range(1, s + 1)),
    "prime_alternating": lambda n, s: sum(
        comb(n, i) * (i - 1) ** (i - 1) * (s - i) ** (n - i) for i in range(s + 1, n + 1)
    ),
}


def _ones_reference(n, s, indices):
    """sum over ``indices`` of C(n,i) * x(x+i)**(i-1) * (s-i-1)**(n-i)."""
    total = IntPolynomial()
    for i in indices:
        factor = ONE if i == 0 else IntPolynomial(
            [0] + [comb(i - 1, j) * i ** (i - 1 - j) for j in range(i)]
        )
        total = total + comb(n, i) * (s - i - 1) ** (n - i) * factor
    return total


def _large_sizes(n, strict):
    return sorted(s for s in {1, 2, n // 3, n - 1, n} if s < n or not strict)


@pytest.mark.parametrize("n", [150, 400])
@pytest.mark.parametrize("name", sorted(REFERENCE_COUNTS))
def test_count_forms_match_reference_at_large_n(name, n):
    for s in _large_sizes(n, strict=name.startswith("prime")):
        assert getattr(formulas, name)(n, s) == REFERENCE_COUNTS[name](n, s), (n, s)


@pytest.mark.parametrize("n", [150, 400])
def test_ones_forms_match_reference_at_large_n(n):
    for s in _large_sizes(n, strict=False):
        # both forms are the same polynomial, so each is compared with
        # whichever reference sum has fewer terms
        if s <= n // 2:
            base = IntPolynomial([comb(n, j) * (s - 1) ** (n - j) for j in range(n + 1)])
            want = base - _ones_reference(n, s, range(s))
        else:
            want = _ones_reference(n, s, range(s, n + 1))
        assert formulas.ones_poly_subtractive(n, s) == want, (n, s)
        assert formulas.ones_poly_alternating(n, s) == want, (n, s)


def test_ones_factor_expansion():
    assert formulas._ones_factor(0) == ONE
    for i in range(1, 41):
        assert formulas._ones_factor(i) == X * (X + i) ** (i - 1)


def test_binomial_coeffs_expansion():
    for n in range(1, 31):
        for s in range(1, n + 1):
            assert IntPolynomial(formulas._binomial_coeffs(n, s - 1)) == (X + (s - 1)) ** n


def test_ones_polynomials_match_distribution():
    for n in range(1, 7):
        for s in range(1, n + 1):
            poly = formulas.ones_poly_subtractive(n, s)
            dist = brute.ones_distribution(n, s)
            assert tuple(poly.coefficient(i) for i in range(1, n + 1)) == dist
            assert poly(1) == brute.count_restricted(n, range(1, s + 1))


def test_abel_check():
    for x in (-2, 0, 3, Fraction(1, 2)):
        for y in (-1, 0, 2, Fraction(-1, 2)):
            res = formulas.abel_check(1, x, y)
            assert res.equal and res.lhs == x + y + 1
    grid = [Fraction(v) for v in range(-3, 4)] + [Fraction(1, 2), Fraction(-1, 2)]
    for n in range(1, 7):
        for x in grid:
            for y in grid:
                assert formulas.abel_check(n, x, y).equal
    # both specializations evaluate to s**n
    plus = formulas.abel_check(4, 1, 2 - 4 - 1)
    assert plus.equal and plus.lhs == 16
    minus = formulas.abel_check(4, -1, 2 - 4 + 1)
    assert minus.equal and minus.lhs == 16


def _abel_reference(n, x, y):
    """The right side of Abel's identity summed term by term in Fractions."""
    x, y = Fraction(x), Fraction(y)
    rhs = Fraction(0)
    for i in range(n + 1):
        factor = Fraction(1) if i == 0 else x * (x + i) ** (i - 1)
        rhs += comb(n, i) * factor * (y + n - i) ** (n - i)
    return rhs


_RATIONALS = st.builds(Fraction, st.integers(-60, 60), st.integers(-30, 30).filter(bool))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_abel_check_matches_fraction_sum(data):
    n = data.draw(st.integers(1, 40))
    # x = -i zeroes the factor x + i; a negative denominator is normalised
    x = data.draw(st.one_of(st.just(0), st.integers(-n, 0), _RATIONALS))
    y = data.draw(st.one_of(st.integers(-n, n), _RATIONALS))
    res = formulas.abel_check(n, x, y)
    assert isinstance(res.rhs, Fraction) and isinstance(res.lhs, Fraction)
    assert res.rhs == _abel_reference(n, x, y)
    assert res.lhs == (Fraction(x) + Fraction(y) + n) ** n
    assert res.equal and res.lhs == res.rhs


# One call per public formula with a float, even a whole one, where an
# integer belongs.
NON_INTEGER_CALLS = [
    ("pf_total", (3.0,)),
    ("ppf_total", (2.5,)),
    ("restricted_subtractive", (5.0, 2)),
    ("restricted_alternating", (5, 2.0)),
    ("prime_subtractive", (5, 2.0)),
    ("prime_alternating", (5.0, 2)),
    ("catalan_triangle", (4, 1.0)),
    ("catalan_number", (3.0,)),
    ("ones_poly_subtractive", (3.0, 2)),
    ("ones_poly_alternating", (3, 2.0)),
    ("abel_check", (2.0, 1, 1)),
    ("max_run_length", ((1, 2), 2.0)),
    ("fiber_size_formula", ((1, 2), 2.0)),
    ("compositions", (3.0, 2)),
    ("multinomial", (3, (1.0, 2))),
    ("mod_count_k1", (2.0, 3)),
    ("mod_count", (2, 3, 1.0)),
]


def test_formulas_reject_non_integer_arguments():
    public = {
        name
        for name, obj in vars(formulas).items()
        if inspect.isfunction(obj) and obj.__module__ == formulas.__name__ and not name.startswith("_")
    }
    assert {name for name, _ in NON_INTEGER_CALLS} == public
    for name, args in NON_INTEGER_CALLS:
        with pytest.raises(DomainError):
            getattr(formulas, name)(*args)
    for args in (("3",), (Fraction(3),), (None,)):
        with pytest.raises(DomainError):
            formulas.pf_total(*args)


def test_max_run_length():
    assert formulas.max_run_length((1, 2), 2) == 2
    assert formulas.max_run_length((2, 1), 2) == 1
    for n in range(1, 6):
        identity = tuple(range(1, n + 1))
        for i in range(1, n + 1):
            assert formulas.max_run_length(identity, i) == i
    assert formulas.max_run_length((3, 1, 2, 5, 4), 5) == 1
    assert formulas.max_run_length((3, 1, 2, 5, 4), 4) == 4
    assert formulas.max_run_length((3, 1, 2, 5, 4), 3) == 2
    with pytest.raises(DomainError):
        formulas.max_run_length((1, 1), 1)


def test_fiber_size_formula():
    assert formulas.fiber_size_formula((1, 2), 2) == 2
    assert formulas.fiber_size_formula((2, 1), 1) == 0
    for n in range(1, 6):
        identity = tuple(range(1, n + 1))
        assert formulas.fiber_size_formula(identity, n) == factorial(n)
    for n in range(1, 5):
        for s in range(1, n + 1):
            for sigma in permutations(range(1, n + 1)):
                assert formulas.fiber_size_formula(sigma, s) == brute.fiber_size_bruteforce(sigma, s)


def test_compositions():
    assert list(formulas.compositions(3, 2)) == [(1, 2), (2, 1)]
    assert list(formulas.compositions(4, 1)) == [(4,)]
    listing = list(formulas.compositions(6, 3))
    assert listing == sorted(listing)
    assert len(listing) == comb(5, 2)
    assert all(sum(c) == 6 and min(c) >= 1 for c in listing)
    with pytest.raises(DomainError):
        formulas.compositions(2, 3)
    with pytest.raises(DomainError):
        formulas.compositions(2, 0)


def test_multinomial():
    assert formulas.multinomial(4, (2, 2)) == 6
    assert formulas.multinomial(7, (5, 2)) == 21
    assert formulas.multinomial(5, (5,)) == 1
    assert formulas.multinomial(3, (1, 0, 2)) == 3
    with pytest.raises(DomainError):
        formulas.multinomial(3, (4, -1))
    with pytest.raises(DomainError):
        formulas.multinomial(3, (1, 1))


def test_mod_count_k1():
    assert formulas.mod_count_k1(3, 3) == 2187
    assert formulas.mod_count_k1(2, 2) == 4
    for s in range(2, 9):
        assert formulas.mod_count_k1(1, s) == formulas.pf_total(s - 1)
    with pytest.raises(DomainError):
        formulas.mod_count_k1(1, 1)


def test_mod_count():
    for g, s in ((1, 4), (2, 2), (2, 3), (3, 2), (3, 3)):
        assert formulas.mod_count(g, s, 1) == formulas.mod_count_k1(g, s)
    # row size 1 collapses to the classical count
    for s in range(2, 9):
        for k in range(1, s):
            assert formulas.mod_count(1, s, k) == formulas.pf_total(s - k)
    assert formulas.mod_count(3, 3, 2) == 393
    assert formulas.mod_count(3, 3, 9) == 1  # zero cars: the empty list
    with pytest.raises(DomainError):
        formulas.mod_count(3, 3, 10)
    with pytest.raises(DomainError):
        formulas.mod_count(0, 3, 1)


def test_mod_count_matches_brute_force():
    from parkres.circular import preferred_spots

    for g in range(1, 4):
        for s in range(1, 4):
            for k in range(1, g * s):
                m = g * s - k
                if s**m > 10**5:
                    continue
                allowed = [v for v in preferred_spots(g, s) if v <= m]
                assert formulas.mod_count(g, s, k) == brute.count_restricted(m, allowed)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _composition_pair_count(g, s, k, memo):
    """The circular relation summed over every pair of compositions (lam
    of k, mu of s) with weight s/n, in rationals, solved for N(g*s - k)."""
    m = g * s - k
    if m == 0:
        return 1
    if (g, m) in memo:
        return memo[(g, m)]
    acc = Fraction(0)
    for n in range(2, min(k, s) + 1):
        sub = 0
        for lam in _compositions(k, n):
            for mu in _compositions(s, n):
                parts = [g * b - a for a, b in zip(lam, mu)]
                if any(p <= 0 for p in parts):
                    continue
                weight = factorial(m)
                for p in parts:
                    weight //= factorial(p)
                for a, b in zip(lam, mu):
                    weight *= _composition_pair_count(g, b, a, memo)
                sub += weight
        acc += Fraction(s, n) * sub
    assert acc.denominator == 1
    remainder = s**m - int(acc)
    assert remainder % s == 0
    memo[(g, m)] = remainder // s
    return memo[(g, m)]


def _row_start_count(g, m):
    """Parking functions of length m preferring only the spots 1, g+1, ...
    up to m, counted over multiplicity vectors: walking the allowed spots
    in order, c more cars prefer spot v in C(cars left, c) ways, and the
    cars placed so far must fill every spot before the next allowed one."""
    ways = {0: 1}  # cars placed -> labelled ways
    for v in range(1, m + 1, g):
        need = min(v + g, m + 1) - 1
        after = {}
        for placed, w in ways.items():
            for c in range(max(0, need - placed), m - placed + 1):
                after[placed + c] = after.get(placed + c, 0) + w * comb(m - placed, c)
        ways = after
    return ways.get(m, 0)


def _cold_mod_count(g, s, k):
    # with empty memos the relation is solved at (g, s, k) itself, not
    # looked up from an earlier call with the same length g*s - k
    formulas._MOD_MEMO.clear()
    formulas._BLOCK_MEMO.clear()
    return formulas.mod_count(g, s, k)


def test_row_start_reference_matches_brute_force():
    from parkres.circular import preferred_spots

    for g in range(1, 5):
        for m in range(0, 9):
            allowed = [v for v in preferred_spots(g, m // g + 1) if v <= m]
            assert _row_start_count(g, m) == brute.count_restricted(m, allowed)
    for m in range(1, 12):
        assert _row_start_count(1, m) == (m + 1) ** (m - 1)


def test_mod_count_matches_composition_pair_sum():
    memo = {}
    for g in range(1, 6):
        for s in range(1, 24 // g + 1):
            for k in range(1, g * s + 1):
                want = _composition_pair_count(g, s, k, memo)
                assert _cold_mod_count(g, s, k) == want, (g, s, k)


@pytest.mark.parametrize(
    "g, s, k, want",
    [(2, 14, 12, 64820487788537), (2, 30, 25, None), (4, 12, 10, None), (10, 10, 9, None)],
)
def test_mod_count_beyond_composition_pairs(g, s, k, want):
    reference = _row_start_count(g, g * s - k)
    if want is not None:
        assert reference == want
    assert _cold_mod_count(g, s, k) == reference


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_mod_count_random_sizes(data):
    g = data.draw(st.integers(1, 40))
    s = data.draw(st.integers(1, 40 // g))
    k = data.draw(st.integers(1, g * s))
    assert _cold_mod_count(g, s, k) == _row_start_count(g, g * s - k)
