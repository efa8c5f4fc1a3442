import inspect
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, prod
from operator import sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parkres import brute, formulas
from parkres.exceptions import BudgetExceeded, DomainError, EmptyRestriction, NonIntegerIntermediate


def test_totals():
    assert formulas.pf_total(3) == 16
    assert [formulas.pf_total(n) for n in range(1, 7)] == [1, 3, 16, 125, 1296, 16807]
    assert formulas.ppf_total(4) == 27
    assert formulas.ppf_total(1) == 1
    with pytest.raises(DomainError):
        formulas.pf_total(0)


def _methods(kind, restriction, n):
    # the forms: every route but the oracle, which comes last
    *forms, oracle = formulas.routes(kind, restriction, n)
    assert oracle == "brute"
    return forms


def _modular(g, s, k):
    return {"kind": "modular", "g": g, "s": s, "k": k}


def test_closed_forms_by_request(monkeypatch):
    segment = {"kind": "segment", "s": 4}
    # cheapest first: the one-term total, then the pair by terms summed,
    # s for subtractive against n - s + 1 for alternating (n - s for ppf)
    assert _methods("pf", segment, 5) == ["alternating", "subtractive"]
    assert _methods("pf", segment, 4) == ["total", "alternating", "subtractive"]
    assert _methods("pf", segment, 7) == ["subtractive", "alternating"]  # 4 terms each
    assert _methods("ppf", segment, 5) == ["alternating", "subtractive"]
    assert _methods("ppf", segment, 8) == ["subtractive", "alternating"]  # 4 terms each
    assert _methods("ppf", segment, 7) == ["alternating", "subtractive"]
    assert _methods("ppf", segment, 4) == ["total"]
    for n in (0, 3):  # s outside 1..n
        assert _methods("pf", segment, n) == [] and _methods("ppf", segment, n) == []
    assert _methods("pf", {"kind": "set", "elements": [1, 3]}, 4) == []
    modular = _modular(2, 3, 2)
    assert _methods("pf", modular, 4) == ["recursion"] and _methods("ppf", modular, 4) == []
    # k = 1 adds the power s**(g*s - 2), which needs g*s >= 2
    assert _methods("pf", _modular(2, 3, 1), 5) == ["power", "recursion"]
    assert _methods("pf", _modular(1, 1, 1), 0) == ["recursion"]
    # the edges no verify suite visits: g*s = 2, the least street with the
    # power; and s = 1, where every form of the pair sums one term at n = 1
    assert _methods("pf", _modular(1, 2, 1), 1) == ["power", "recursion"]
    assert _methods("pf", _modular(2, 1, 1), 1) == ["power", "recursion"]
    one = {"kind": "segment", "s": 1}
    for kind in ("pf", "defect", "ones"):
        assert _methods(kind, one, 1) == ["total", "subtractive", "alternating"], kind
        assert _methods(kind, one, 2) == ["subtractive", "alternating"], kind
    assert _methods("ppf", one, 1) == ["total"]
    assert _methods("ppf", one, 2) == ["subtractive", "alternating"]
    assert _methods("orbits", one, 1) == _methods("orbits", one, 2) == ["triangle"]
    routes = formulas.routes("pf", segment, 4)
    assert {method: route() for method, route in routes.items()} == dict.fromkeys(routes, 125)
    routes = formulas.routes("pf", _modular(2, 3, 1), 5)
    assert {method: route() for method, route in routes.items()} == dict.fromkeys(routes, 81)
    with pytest.raises(DomainError, match="one of pf, ppf, defect, orbits, ones, got 'ppx'"):
        formulas.routes("ppx", segment, 4)
    # the oracle is the brute-force count of the kind, on the request's spots
    for n, s in ((4, 2), (5, 5), (3, 1)):
        allowed = range(1, s + 1)
        oracle = formulas.routes("pf", {"kind": "segment", "s": s}, n)["brute"]
        assert oracle() == brute.count_restricted(n, allowed)
        oracle = formulas.routes("ppf", {"kind": "segment", "s": s}, n)["brute"]
        assert oracle() == brute.count_prime_restricted(n, allowed)
    for g, s, k in ((2, 3, 1), (2, 3, 2), (3, 2, 4)):
        m = g * s - k
        routes = formulas.routes("pf", _modular(g, s, k), m)
        oracle = routes["brute"]
        assert oracle() == routes["recursion"]() == formulas.mod_count(g, s, k)
    # it looks brute up when called, so the verify timing tests and the
    # benchmark tracer see a patched count
    monkeypatch.setattr(brute, "count_restricted", lambda n, allowed: -1)
    assert oracle() == -1


def test_segment_kinds_by_request():
    # defect has the pf forms on [s], ones the same pair with its own
    # total, orbits the triangle entry; each against its own oracle
    segment = {"kind": "segment", "s": 4}
    for kind in ("defect", "ones"):
        assert _methods(kind, segment, 4) == ["total", "alternating", "subtractive"]
        assert _methods(kind, segment, 7) == ["subtractive", "alternating"]
        assert _methods(kind, segment, 3) == []  # s outside 1..n
    assert _methods("orbits", segment, 6) == ["triangle"]
    assert _methods("orbits", segment, 3) == []
    want = {  # the brute-force count, and the same count by a form
        "defect": (brute.count_min_defect(6, 4), formulas.restricted_subtractive(6, 4)),
        "orbits": (brute.count_nondecreasing_restricted(6, 4), formulas.catalan_triangle(6, 3)),
        "ones": ((0,) + brute.ones_distribution(6, 4), formulas.ones_poly_subtractive(6, 4)),
    }
    for kind, (count, form_count) in want.items():
        routes = formulas.routes(kind, segment, 6)
        oracle = routes["brute"]
        assert oracle() == formulas.routes(kind, segment, 6, 10**6)["brute"]() == count == form_count, kind
        assert [route() for route in routes.values()] == [count] * len(routes), kind
    # s outside 1..n has no form, and the oracle raises, as pf's does
    for kind in ("defect", "orbits", "ones"):
        oracle = formulas.routes(kind, segment, 3)["brute"]
        with pytest.raises(DomainError):
            oracle()


@pytest.mark.parametrize("kind", ["defect", "orbits", "ones"])
@pytest.mark.parametrize(
    "restriction, n",
    [({"kind": "set", "elements": [1, 2]}, 4), (_modular(2, 3, 1), 5), (_modular(2, 3, 2), 4)],
    ids=["set", "modular k = 1", "modular k = 2"],
)
def test_segment_kinds_refuse_other_restrictions(kind, restriction, n):
    # a set or modular request of a kind counted on [s] alone raises at the
    # call, before any form or oracle runs
    with pytest.raises(DomainError, match=f"{kind} counts need a segment restriction"):
        formulas.routes(kind, restriction, n)


# Requests that routes and its oracle once read two ways: each raises
# DomainError at the call, except the set with an ``s`` key, counted as
# the set by its oracle and by no form (count).
REQUESTS_READ_ONCE = [
    pytest.param({"kind": "bogus", "s": 3}, 4, None, id="unknown kind"),
    pytest.param({"s": 3}, 4, None, id="no kind"),
    pytest.param({"kind": "segment"}, 4, None, id="segment without s"),
    pytest.param({"kind": "set", "s": 2}, 4, None, id="set without elements"),
    pytest.param({"kind": "modular", "g": 2, "s": 3}, 5, None, id="modular without k"),
    pytest.param(_modular(0, 3, 1), -1, None, id="modular g = 0"),
    pytest.param(_modular(2, 3, 7), -1, None, id="modular k > g*s"),
    pytest.param(_modular(2, 3, 1), 4, None, id="modular n != g*s - k"),
    pytest.param(None, 3, None, id="no restriction"),
    pytest.param(["segment"], 3, None, id="list restriction"),
    pytest.param({"kind": "set", "elements": 5}, 3, None, id="set of one int"),
    pytest.param({"kind": "set", "elements": [1, 2], "s": 3}, 4, 15, id="set with an s key"),
]


@pytest.mark.parametrize("restriction, n, count", REQUESTS_READ_ONCE)
def test_routes_and_spots_read_a_request_alike(restriction, n, count):
    if count is None:
        for kind in ("pf", "ppf"):
            with pytest.raises(DomainError):
                formulas.routes(kind, restriction, n)
        with pytest.raises(DomainError):
            brute.restriction_spots(restriction, n)
        return
    routes = formulas.routes("pf", restriction, n)
    assert list(routes) == ["brute"] and routes["brute"]() == count
    assert brute.restriction_spots(restriction, n) == (1, 2)


# JSON-like values: ints stay small, so no request asks for a long spot range
_SMALL = st.integers(-3, 12)
_JSON = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        _SMALL,
        st.floats(),
        st.text(max_size=4),
        st.sampled_from(["segment", "set", "modular", "pf", "ppf", "defect", "orbits", "ones"]),
    ),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=6,
)
# requests of each kind, with well-formed or arbitrary values, then any
# dict over the request keys, then any value at all
_REQUESTS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("segment"), "s": st.one_of(_SMALL, _JSON)}),
    st.fixed_dictionaries(
        {"kind": st.just("set"), "elements": st.one_of(st.lists(_SMALL, max_size=4), _JSON)}
    ),
    st.fixed_dictionaries({"kind": st.just("modular"), **dict.fromkeys("gsk", st.one_of(_SMALL, _JSON))}),
    st.dictionaries(st.sampled_from(["kind", "s", "elements", "g", "k"]), _JSON),
    _JSON,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.one_of(st.sampled_from(["pf", "ppf", "defect", "orbits", "ones"]), _JSON),
    _REQUESTS,
    st.one_of(_SMALL, _JSON),
)
def test_request_reader_returns_or_raises_domain_error(kind, restriction, n):
    # whatever the request, each reader returns or raises DomainError
    for read in (
        lambda: formulas.routes(kind, restriction, n),
        lambda: brute.restriction_spots(restriction, n),
    ):
        try:
            read()
        except DomainError:
            pass


def test_oracle_counts_its_own_request_within_the_budget():
    requests = [
        ({"kind": "segment", "s": 3}, 5, range(1, 4)),
        ({"kind": "set", "elements": [1, 3, 4]}, 5, (1, 3, 4)),
        (_modular(3, 3, 2), 7, (1, 4, 7)),
    ]
    for restriction, n, spots in requests:
        assert brute.restriction_spots(restriction, n) == tuple(spots)
        steps = brute.walk_steps(n, spots)
        for kind, count in (("pf", brute.count_restricted), ("ppf", brute.count_prime_restricted)):
            def oracle(budget=None):
                return formulas.routes(kind, restriction, n, budget)["brute"]()

            assert oracle() == oracle(steps) == count(n, spots), (kind, restriction)
            with pytest.raises(BudgetExceeded, match=f"{steps} walk steps"):
                oracle(steps - 1)
    # the spots are checked before the budget, so at budget 0 the error
    # names the real fault
    for kind in ("pf", "ppf"):
        for restriction, fault in (
            ({"kind": "segment", "s": 5}, DomainError),
            ({"kind": "set", "elements": [1, 5]}, DomainError),
            ({"kind": "set", "elements": []}, EmptyRestriction),
            ({"kind": "segment", "s": 0}, EmptyRestriction),
        ):
            oracle = formulas.routes(kind, restriction, 3, 0)["brute"]
            with pytest.raises(fault) as raised:
                oracle()
            assert type(raised.value) is fault, (kind, restriction)


def test_orbits_oracle_is_held_to_its_recurrence():
    # the orbit count is an O(n*s) running sum, held to its own steps and
    # not to the parking walk's 32,159,799
    segment = {"kind": "segment", "s": 400}
    def oracle(budget):
        return formulas.routes("orbits", segment, 400, budget)["brute"]()

    steps = brute.orbit_steps(400, 400)
    assert steps < 10**7 < brute.walk_steps(400, range(1, 401))
    assert oracle(10**7) == oracle(steps) == formulas.routes("orbits", segment, 400)["triangle"]()
    with pytest.raises(BudgetExceeded, match=f"{steps} recurrence steps"):
        oracle(steps - 1)
    # [s] is checked before the budget
    with pytest.raises(DomainError):
        formulas.routes("orbits", {"kind": "segment", "s": 5}, 3, 0)["brute"]()


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
    for n in range(1, 81):
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


def test_oracle_matches_the_forms_at_sizes_in_the_hundreds():
    # The walk counts states, not orbits, so the oracle reaches these sizes
    # in well under a second each.
    for n, s in ((60, 20), (150, 70)):
        allowed = range(1, s + 1)
        plain = brute.count_restricted(n, allowed)
        assert plain == formulas.restricted_subtractive(n, s) == formulas.restricted_alternating(n, s)
        prime = brute.count_prime_restricted(n, allowed)
        assert prime == formulas.prime_subtractive(n, s) == formulas.prime_alternating(n, s)
    assert brute.count_restricted(16, range(1, 17)) == formulas.pf_total(16)
    assert brute.count_min_defect(60, 40) == formulas.restricted_subtractive(60, 40)
    # The spots 1 mod g in [1, n] are the row starts of ceil(n/g) rows with
    # g*rows - n spots missing, one more row when n fills its rows exactly.
    n, g = 100, 3
    rows = -(-n // g)
    if g * rows == n:
        rows += 1
    assert brute.count_restricted(n, range(1, n + 1, g)) == formulas.mod_count(g, rows, g * rows - n)


def test_prime_forms():
    for n in range(2, 8):
        assert formulas.prime_subtractive(n, 1) == 1
    assert formulas.prime_subtractive(4, 2) == 11
    assert formulas.prime_subtractive(5, 4) == 256
    for n in range(2, 81):
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


def _factor_coefficient(i, k):
    """The x**k coefficient of x(x+i)**(i-1), the empty product 1 at i == 0."""
    if i == 0:
        return int(k == 0)
    return comb(i - 1, k - 1) * i ** (i - k) if 1 <= k <= i else 0


def test_ones_polynomials():
    assert formulas.ones_poly_subtractive(1, 1) == (0, 1)
    assert formulas.ones_poly_alternating(1, 1) == (0, 1)
    assert formulas.ones_poly_subtractive(2, 2) == (0, 2, 1)
    for n in range(1, 9):
        for s in range(1, n + 1):
            a = formulas.ones_poly_subtractive(n, s)
            b = formulas.ones_poly_alternating(n, s)
            assert a == b
            assert a[0] == 0
        want = tuple(_factor_coefficient(n, k) for k in range(n + 1))
        assert formulas.ones_poly_subtractive(n, n) == want
        assert formulas.ones_poly_total(n) == want


def test_ones_forms_read_as_plain_tuples():
    # the benchmark's checks compare the forms with ==, read coefficient(k)
    # and evaluate at 1; its tests corrupt a form by adding 1
    for n, s in [(1, 1), (5, 2), (6, 6), (9, 4)]:
        count = brute.count_restricted(n, range(1, s + 1))
        for form in (formulas.ones_poly_subtractive, formulas.ones_poly_alternating):
            coeffs = form(n, s)
            assert isinstance(coeffs, tuple) and coeffs == tuple(coeffs)
            assert len(coeffs) == n + 1 and coeffs[-1] != 0
            assert [coeffs.coefficient(k) for k in (-1, n + 1, n + 5)] == [0, 0, 0]
            assert [coeffs.coefficient(k) for k in range(n + 1)] == list(coeffs)
            assert coeffs(1) == sum(coeffs) == count
            half = Fraction(1, 2)
            assert coeffs(half) == sum(c * half**k for k, c in enumerate(coeffs))
            assert coeffs + 1 == (1,) + coeffs[1:] and (coeffs + 1)(1) == count + 1
            assert coeffs + (7,) == tuple(coeffs) + (7,)


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
    """The coefficients of degree 0..n of the sum over ``indices`` of
    C(n,i) * x(x+i)**(i-1) * (s-i-1)**(n-i)."""
    scales = {i: comb(n, i) * (s - i - 1) ** (n - i) for i in indices}
    return tuple(
        sum(scale * _factor_coefficient(i, k) for i, scale in scales.items())
        for k in range(n + 1)
    )


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
            base = [comb(n, j) * (s - 1) ** (n - j) for j in range(n + 1)]
            want = tuple(map(sub, base, _ones_reference(n, s, range(s))))
        else:
            want = _ones_reference(n, s, range(s, n + 1))
        assert formulas.ones_poly_subtractive(n, s) == want, (n, s)
        assert formulas.ones_poly_alternating(n, s) == want, (n, s)


def test_binomial_coeffs_expansion():
    for n in range(1, 31):
        for s in range(1, n + 1):
            want = tuple(comb(n, j) * (s - 1) ** (n - j) for j in range(n + 1))
            assert tuple(formulas._binomial_coeffs(n, s - 1)) == want


def test_ones_polynomials_match_distribution():
    for n in range(1, 7):
        for s in range(1, n + 1):
            poly = formulas.ones_poly_subtractive(n, s)
            dist = brute.ones_distribution(n, s)
            assert poly[1:] == dist
            assert sum(poly) == brute.count_restricted(n, range(1, s + 1))


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


@pytest.mark.parametrize("n", [100, 257])
def test_abel_check_matches_fraction_sum_at_split_depth(n):
    # the right side's binary splitting several levels deep, and unevenly
    # at 257 = 128 + 129 terms: x = 0, the zero base x + i at x = -i,
    # negative y, and denominators given with either sign
    for x, y in [
        (0, Fraction(5, 3)),
        (-7, -n),
        (-n, Fraction(-412, 59)),
        (Fraction(537, -83), Fraction(-1, 2)),
        (Fraction(-3, -7), Fraction(9, -11)),
        (Fraction(2, 5), 0),
    ]:
        res = formulas.abel_check(n, x, y)
        assert res.rhs == _abel_reference(n, x, y), (n, x, y)
        assert res.equal and res.lhs == (Fraction(x) + Fraction(y) + n) ** n, (n, x, y)


_SMALL_BASES = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-40, 40))
_EXPONENTS = st.one_of(st.just(0), st.integers(0, 1500))


# 0**0 == 1 on either side; a zero base with a positive exponent zeroes the
# product whichever exponent is longer; exponents of unequal bit length;
# even, power-of-two and negative bases, whose odd parts the chains run over.
POWER_EXAMPLES = [
    (0, 0, 0, 0),
    (0, 0, 7, 3),
    (5, 2, 0, 0),
    (0, 1, 3, 1500),
    (3, 1500, 0, 1),
    (-2, 63, 3, 64),
    (3, 64, -2, 65),
    (-1, 1499, 1, 0),
    (6, 37, 10, 12),
    (1024, 9, 8, 130),
    (2, 1500, -4, 1499),
    (-12, 7, -6, 64),
    (0, 0, -8, 5),
    (-16, 3, 0, 0),
]


def _with_power_examples(test):
    test = given(_SMALL_BASES, _EXPONENTS, _SMALL_BASES, _EXPONENTS)(test)
    test = settings(max_examples=150, deadline=None, derandomize=True)(test)
    for args in reversed(POWER_EXAMPLES):
        test = example(*args)(test)
    return test


@_with_power_examples
def test_power_pair_matches_two_powers(a, e, b, f):
    assert formulas._power_pair(a, e, b, f) == a**e * b**f


@_with_power_examples
def test_power_product_matches_two_powers(a, e, b, f):
    assert formulas._power_product(a, e, b, f) == a**e * b**f


@pytest.mark.parametrize("n", [1, 2, 3, 4, 50, 400])
def test_alternating_sums_of_one_and_two_terms(n):
    # s = n (s = n-1 for the prime form) leaves the one term i = n, and one
    # spot fewer two terms: the leaves and the first merge of the splitting
    assert formulas.restricted_alternating(n, n) == formulas.pf_total(n)
    if n >= 2:
        want = formulas.restricted_subtractive(n, n - 1)
        assert formulas.restricted_alternating(n, n - 1) == want
        assert formulas.prime_alternating(n, n - 1) == formulas.ppf_total(n)
    if n >= 3:
        assert formulas.prime_alternating(n, n - 2) == formulas.prime_subtractive(n, n - 2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_alternating_forms_match_subtractive(data):
    n = data.draw(st.integers(1, 400))
    s = data.draw(st.integers(1, n))
    assert formulas.restricted_alternating(n, s) == formulas.restricted_subtractive(n, s)
    if s < n:
        assert formulas.prime_alternating(n, s) == formulas.prime_subtractive(n, s)


def test_binomial_series_matches_comb_sum():
    def term(i):  # negative, zero and positive values
        return 3 * i * i - 7 * i + 2

    for n in range(1, 30):
        for lo in range(n + 1):
            p, q, t = formulas._binomial_series(n, lo, n, term)
            assert p == factorial(n) // factorial(lo) and q == factorial(n - lo), (n, lo)
            assert t == q * sum(comb(n, i) * term(i) for i in range(lo, n + 1)), (n, lo)


def test_rising_binomial_series_matches_comb_sum():
    def term(i):  # negative, zero and positive values
        return 3 * i * i - 7 * i + 2

    for n in range(1, 30):
        for lo in range(n + 1):
            for hi in range(lo - 1, n + 1):  # the empty range first
                p, q, t = formulas._rising_binomial_series(n, lo, hi, term)
                span = range(lo, hi + 1)
                assert p == prod(n - j + 1 if j else 1 for j in span), (n, lo, hi)
                assert q == prod(j or 1 for j in span), (n, lo, hi)
                # the walk starts at C(n, lo-1), so from lo <= 1 T / Q is the sum
                start = comb(n, lo - 1) if lo else 1
                want = q * sum(comb(n, i) * term(i) for i in span)
                assert t * start == want, (n, lo, hi)


def test_inexact_binomial_series_raises(monkeypatch):
    # T / Q is exact by construction; a remainder means a broken splitting
    def inexact(n, lo, hi, term):
        return 1, 2, 3

    monkeypatch.setattr(formulas, "_binomial_series", inexact)
    monkeypatch.setattr(formulas, "_rising_binomial_series", inexact)
    for name in ("restricted_alternating", "prime_alternating",
                 "restricted_subtractive", "prime_subtractive"):
        with pytest.raises(NonIntegerIntermediate, match="at n=5, s=2 "):
            getattr(formulas, name)(5, 2)


def test_subtractive_forms_match_alternating_on_every_size_to_40():
    # s = 1 leaves the subtractive splitting no nonzero term, s = 2 one
    for n in range(1, 41):
        for s in range(1, n + 1):
            want = formulas.restricted_alternating(n, s)
            assert formulas.restricted_subtractive(n, s) == want, (n, s)
            if s < n:
                want = formulas.prime_alternating(n, s)
                assert formulas.prime_subtractive(n, s) == want, (n, s)


def test_subtractive_forms_run_one_chain_per_nonzero_term(monkeypatch):
    # the last term of each subtractive sum is zero (0**(n-s+1), 0**(n-s)):
    # s - 1 chains, none for it and none outside the splitting
    calls = []
    real = formulas._power_product

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(formulas, "_power_product", counted)
    for n, s in [(1, 1), (2, 1), (2, 2), (3, 2), (9, 5), (9, 8), (60, 20)]:
        for name in ("restricted_subtractive", "prime_subtractive"):
            if name == "prime_subtractive" and s == n:
                continue
            calls.clear()
            getattr(formulas, name)(n, s)
            assert len(calls) == s - 1, (name, n, s, calls)


@pytest.mark.parametrize("subtractive, alternating", [
    ("restricted_subtractive", "restricted_alternating"),
    ("prime_subtractive", "prime_alternating"),
])
def test_count_forms_agree_at_1400(subtractive, alternating):
    n, s = 1400, 466
    assert getattr(formulas, alternating)(n, s) == getattr(formulas, subtractive)(n, s)


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
    ("routes", ("pf", {"kind": "segment", "s": 2.0}, 5)),
    ("ones_poly_subtractive", (3.0, 2)),
    ("ones_poly_alternating", (3, 2.0)),
    ("ones_poly_total", (3.0,)),
    ("abel_check", (2.0, 1, 1)),
    ("max_run_length", ((1, 2), 2.0)),
    ("max_run_length", ((1.0, 2.0, 3.0), 1)),
    ("fiber_size_formula", ((1, 2), 2.0)),
    ("fiber_size_formula", ((1.0, 2.0, 3.0), 2)),
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
    # with the per-g table cleared every length up to g*s - k is solved
    # anew, not read from an earlier call that reached it
    formulas._MOD_TABLES.clear()
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
    [
        (2, 14, 12, 64820487788537), (2, 30, 25, None), (4, 12, 10, None), (10, 10, 9, None),
        (2, 100, 50, None), (5, 40, 100, None), (3, 60, 40, None),
    ],
)
def test_mod_count_beyond_composition_pairs(g, s, k, want):
    reference = _row_start_count(g, g * s - k)
    if want is not None:
        assert reference == want
    assert _cold_mod_count(g, s, k) == reference


def test_mod_count_table_grows_with_cars_not_row_size():
    # one car on a street of 10**8 spots, and five on 10**6: each length
    # below g is a single list, and the table keeps one column per length
    assert _cold_mod_count(10**8, 1, 10**8 - 1) == 1
    assert formulas.mod_count(10**6, 1, 10**6 - 5) == 1
    assert len(formulas._MOD_TABLES[10**6][1]) == 5


def test_mod_count_interrupted_fill_leaves_no_table(monkeypatch):
    want = _cold_mod_count(3, 20, 7)
    formulas._MOD_TABLES.clear()
    formulas.mod_count(3, 5, 1)
    calls = 0

    def failing_mul(a, b):
        nonlocal calls
        calls += 1
        if calls == 100:
            raise KeyboardInterrupt
        return a * b

    monkeypatch.setattr(formulas, "mul", failing_mul)
    with pytest.raises(KeyboardInterrupt):
        formulas.mod_count(3, 20, 7)
    assert 3 not in formulas._MOD_TABLES
    monkeypatch.undo()
    assert formulas.mod_count(3, 20, 7) == want


def test_mod_count_remainder_raises_and_leaves_no_table():
    # N(3) for g = 2 one too large: length 4 weights it by C(4, 3) * T(1, 1)
    # * 2 = 8, which its three rows do not divide, so the guard raises and
    # the table, which would corrupt every later count for g = 2, is dropped
    formulas._MOD_TABLES.clear()
    assert formulas.mod_count(2, 2, 1) == 4  # lengths 0..3
    formulas._MOD_TABLES[2][0][3] += 1
    with pytest.raises(NonIntegerIntermediate, match="at g=2, s=3, k=2 is not"):
        formulas.mod_count(2, 3, 2)  # length 4
    assert 2 not in formulas._MOD_TABLES
    assert formulas.mod_count(2, 3, 2) == _row_start_count(2, 4)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_mod_count_random_sizes(data):
    g = data.draw(st.integers(1, 40))
    s = data.draw(st.integers(1, 40 // g))
    k = data.draw(st.integers(1, g * s))
    assert _cold_mod_count(g, s, k) == _row_start_count(g, g * s - k)
