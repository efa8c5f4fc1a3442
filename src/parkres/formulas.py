"""Exact closed forms, recurrences and polynomial identities.

Each count that also has a brute-force oracle in :mod:`parkres.brute`
is computed here from a formula alone; agreement between the two routes is
enforced by the verification suites, never assumed.  Each count kind is
one entry of :data:`FAMILIES`, from which :func:`routes` lists, for one
count request, its closed forms and then the oracle that checks them; no
form calls into :mod:`parkres.brute`, imported only when that oracle
runs.  All arithmetic is exact: Python ints, :class:`fractions.Fraction`,
and the ones enumerators' coefficient tuples of ints, summed in place.
Each division that must give a count is guarded by ``exceptions._exact``,
which raises :class:`NonIntegerIntermediate`; no function here raises it.

Conventions used throughout, chosen so every identity holds verbatim:
0**0 == 1; the factor (i+1)**(i-1) at i == 0 is 1; the factor x*(x+i)**(i-1)
at i == 0 is the constant 1 (which also covers x == 0).
"""

from __future__ import annotations

from functools import partial
from math import comb
from operator import add, itemgetter, mul
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .exceptions import (
    BudgetExceeded,
    DomainError,
    _check_budget,
    _check_gsk,
    _check_n,
    _check_ns,
    _check_permutation,
    _check_request,
    _exact,
    _ints,
    _rationals,
)

if TYPE_CHECKING:
    from fractions import Fraction


def pf_total(n: int) -> int:
    """Number of parking functions on n cars: (n+1)**(n-1)."""
    n = _check_n(n)
    return (n + 1) ** (n - 1)


def ppf_total(n: int) -> int:
    """Number of prime parking functions on n cars: (n-1)**(n-1).

    For n == 1 this is 0**0 == 1, matching the single prime list (1,).
    """
    n = _check_n(n)
    return (n - 1) ** (n - 1)


def _power_pair(a: int, e: int, b: int, f: int) -> int:
    """a**e * b**f for e, f >= 0 (0**0 == 1) by simultaneous exponentiation
    (Straus 1964): one left-to-right square-and-multiply chain over the bits
    of both exponents, so no full-size product of two separate powers.  The
    chain runs over the odd parts of a and b; their powers of two are
    shifted in once at the end."""
    # the trailing zero bits; 0 stays 0, which the chain uses only if e > 0
    u = (a & -a).bit_length() - 1 if a else 0
    v = (b & -b).bit_length() - 1 if b else 0
    a >>= u
    b >>= v
    ab = a * b
    result = 1
    for k in range(max(e, f).bit_length() - 1, -1, -1):
        result *= result
        if e >> k & 1:
            result *= ab if f >> k & 1 else a
        elif f >> k & 1:
            result *= b
    return result << (u * e + v * f)


def _power_product(a: int, e: int, b: int, f: int) -> int:
    """a**e * b**f for e, f >= 0 (0**0 == 1), for the subtractive forms: one
    left-to-right square-and-multiply chain that reads a two-bit digit, one
    bit of each exponent, per step and multiplies by 1, a, b or a*b from a
    table.  The chain runs over the odd parts of a and b, and the powers of
    two come back as one shift at the end."""
    # the trailing zero bits: none of 0, which the chain uses only if e > 0
    i = (a ^ (a - 1)).bit_length() - 1
    j = (b ^ (b - 1)).bit_length() - 1
    a >>= i
    b >>= j
    table = (1, a, b, a * b)
    result = 1
    for k in range(max(e, f).bit_length() - 1, -1, -1):
        result *= result
        digit = (e >> k & 1) | (f >> k & 1) << 1
        if digit:
            result *= table[digit]
    return result << (i * e + j * f)


def _rising_binomial_series(n: int, lo: int, hi: int, term, a: int = 1, b: int = 1) -> tuple:
    """(P, Q, T) of the terms i = lo, lo+1, ..., hi of
    sum C(n,i) * a**i / b**i * term(i), lo <= 1, by binary splitting
    (Haible & Papanikolaou 1998).

    Walking up from the weight 1 at i = 0, each weight is the one before
    it times p_i / q_i with p_i = (n-i+1) * a and q_i = i * b, and
    p_0 = q_0 = 1.  P and Q are the products of the p_i and q_i over the
    range, and

        T = sum_i term(i) * (p_lo * ... * p_i) * (q_{i+1} * ... * q_hi),

    so the sum is T / Q.  Two adjacent ranges merge as T = T_1 * Q_2 +
    P_1 * T_2, lower range first.  An empty range (lo > hi) sums to 0.
    """
    if lo >= hi:
        if lo > hi:
            return 1, 1, 0
        p, q = ((n - lo + 1) * a, lo * b) if lo else (1, 1)
        return p, q, term(lo) * p
    mid = (lo + hi) // 2
    p1, q1, t1 = _rising_binomial_series(n, lo, mid, term, a, b)
    p2, q2, t2 = _rising_binomial_series(n, mid + 1, hi, term, a, b)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def restricted_subtractive(n: int, s: int) -> int:
    """Number of [s]-restricted parking functions on n cars:

        s**n - sum_{i=0}^{s-1} C(n,i) * (i+1)**(i-1) * (s-i-1)**(n-i)

    obtained by subtracting the non-parking lists, classified by the first
    unoccupied spot.  The term i = s-1 holds 0**(n-s+1) and is left out.
    Each other term's two powers come from one :func:`_power_product`
    chain, and the binomial weights are combined by binary splitting
    (:func:`_rising_binomial_series`), whose T / Q must divide exactly,
    under the guard ``exceptions._exact``.
    """
    n, s = _check_ns(n, s)
    _, q, t = _rising_binomial_series(  # (i+1)**(i-1) is 1**0 at i == 0
        n, 0, s - 2, lambda i: _power_product(i + 1, max(i - 1, 0), s - i - 1, n - i)
    )
    return s**n - _exact(t, q, f"binomial sum at n={n}, s={s}")


def _binomial_series(n: int, lo: int, hi: int, term) -> tuple:
    """(P, Q, T) of the terms i = hi, hi-1, ..., lo of sum C(n,i) * term(i),
    by binary splitting (Haible & Papanikolaou 1998).

    Walking down from C(n, n) = 1, C(n, i) = C(n, i+1) * p_i / q_i with
    p_i = i+1 and q_i = n-i, and p_n = q_n = 1.  P and Q are the products
    of the p_i and q_i over the range, and

        T = sum_i term(i) * (p_i * ... * p_hi) * (q_lo * ... * q_{i-1}),

    so the sum over lo <= i <= hi = n is T / Q.  Two adjacent ranges merge
    as T = T_1 * Q_2 + P_1 * T_2, upper range first, so each term is
    multiplied only by small factors and products of them, never by a
    full-size binomial.
    """
    if lo == hi:
        p, q = (1, 1) if hi == n else (hi + 1, n - hi)
        return p, q, term(hi) * p
    mid = (lo + hi) // 2
    p1, q1, t1 = _binomial_series(n, mid + 1, hi, term)
    p2, q2, t2 = _binomial_series(n, lo, mid, term)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def restricted_alternating(n: int, s: int) -> int:
    """The same count as :func:`restricted_subtractive` as an alternating sum:

        sum_{i=s}^{n} C(n,i) * (i+1)**(i-1) * (s-i-1)**(n-i)

    from the signed count of two-colored parking functions cancelled by the
    recoloring involution.  ``parkres verify formulas`` compares the two.
    Each term's two powers come from one :func:`_power_pair` chain, and the
    binomial weights are combined by binary splitting
    (:func:`_binomial_series`), whose T / Q must divide exactly, under
    the guard ``exceptions._exact``.
    """
    n, s = _check_ns(n, s)
    _, q, t = _binomial_series(
        n, s, n, lambda i: _power_pair(i + 1, i - 1, s - i - 1, n - i)
    )
    return _exact(t, q, f"binomial sum at n={n}, s={s}")


def prime_subtractive(n: int, s: int) -> int:
    """Number of [s]-restricted prime parking functions on n cars (s < n):

        s**n - (s-1)**n - sum_{i=1}^{s} C(n,i) * (i-1)**(i-1) * (s-i)**(n-i)

    subtracting the non-prime lists by the position of the first failure
    of the strict occupancy condition.  The term i = s holds 0**(n-s) and
    is left out; the others are summed, and guarded, as in
    :func:`restricted_subtractive`.
    """
    n, s = _check_ns(n, s, strict=True)
    _, q, t = _rising_binomial_series(
        n, 1, s - 1, lambda i: _power_product(i - 1, i - 1, s - i, n - i)
    )
    return s**n - (s - 1) ** n - _exact(t, q, f"binomial sum at n={n}, s={s}")


def prime_alternating(n: int, s: int) -> int:
    """The prime count as an alternating sum:

        sum_{i=s+1}^{n} C(n,i) * (i-1)**(i-1) * (s-i)**(n-i)

    ``parkres verify formulas`` compares it with :func:`prime_subtractive`.
    Each term's two powers come from one :func:`_power_pair` chain, and the
    binomial weights are combined by binary splitting
    (:func:`_binomial_series`), whose T / Q must divide exactly, under
    the guard ``exceptions._exact``.
    """
    n, s = _check_ns(n, s, strict=True)
    _, q, t = _binomial_series(
        n, s + 1, n, lambda i: _power_pair(i - 1, i - 1, s - i, n - i)
    )
    return _exact(t, q, f"binomial sum at n={n}, s={s}")


def catalan_triangle(n: int, k: int) -> int:
    """Entry (n, k) of the Catalan triangle, 0 <= k <= n-1:

        T(n, k) = C(n+k, k) * (n-k+1) / (n+1)

    First column 1, diagonal the Catalan numbers, and inner entries
    satisfying T(n, k) = T(n-1, k) + T(n, k-1).  Row n lists the orbit
    counts of [s]-restricted parking functions for s = k+1.
    """
    n, k = _ints(n, k)
    if n < 1 or not 0 <= k <= n - 1:
        raise DomainError(f"triangle entry ({n}, {k}) out of range")
    return comb(n + k, k) * (n - k + 1) // (n + 1)


def catalan_number(n: int) -> int:
    """The n-th Catalan number (diagonal of the triangle)."""
    n = _check_n(n)
    return catalan_triangle(n, n - 1)


def _binomial_coeffs(n: int, c: int) -> list:
    # The coefficients of (x + c)**n, lowest degree first, by the binomial
    # theorem: C(n, j) * c**(n-j) at x**j, each from the one above it.
    coeffs = [1]
    for j in range(n, 0, -1):
        coeffs.append(coeffs[-1] * j * c // (n - j + 1))
    coeffs.reverse()
    return coeffs


class Coefficients(tuple):
    """A polynomial's integer coefficients, lowest degree first, with no
    trailing zero.  It is a plain tuple, but for the three ways the
    benchmark in ``perfbench`` reads and corrupts the ones enumerators: a
    coefficient past the degree reads 0, a call evaluates at a point, and
    adding an int shifts the constant coefficient."""

    __slots__ = ()

    def coefficient(self, k: int) -> int:
        return self[k] if 0 <= k < len(self) else 0

    def __call__(self, x):
        """The value at ``x`` by Horner's rule."""
        value = 0
        for c in reversed(self):
            value = value * x + c
        return value

    def __add__(self, other):
        if isinstance(other, int):
            return Coefficients((self[0] + other,) + self[1:])
        return super().__add__(other)


def ones_poly_total(n: int) -> Coefficients:
    """Coefficients, lowest degree first, of the ones enumerator of all
    parking functions on n cars (s = n), x*(x+n)**(n-1), whose x**(j+1)
    has C(n-1, j) * n**(n-1-j) by the binomial theorem."""
    n = _check_n(n)
    return Coefficients((0,) + tuple(comb(n - 1, j) * n ** (n - 1 - j) for j in range(n)))


# Both ones enumerators below are monic of degree n: every term has lower
# degree than the leading one, (s-1+x)**n in the subtractive sum and
# x*(x+n)**(n-1) in the alternating one.  So their n+1 coefficients end in
# 1 and need no trimming.
#
# Term i of either sum has at x**j the coefficient
# t_j = scale_i * C(i-1, j-1) * i**(i-j), where scale_i = C(n,i) * (s-i-1)**(n-i)
# is t_i (and the constant at i = 0).  Each lower one is
# t_j = t_{j+1} * i*j / (i-j), an exact division by a small integer, so no
# coefficient costs a full-size product.


def ones_poly_subtractive(n: int, s: int) -> Coefficients:
    """Coefficients, lowest degree first, of the generating polynomial of
    [s]-restricted parking functions by the number of cars preferring
    spot 1:

        (s-1+x)**n - sum_{i=0}^{s-1} C(n,i) * x(x+i)**(i-1) * (s-i-1)**(n-i)

    C(n, i) is walked up from C(n, 0), and each term's coefficients down
    from x**i (see above)."""
    n, s = _check_ns(n, s)
    total = _binomial_coeffs(n, s - 1)
    c = 1  # C(n, i), walked up from C(n, 0)
    for i in range(s - 1):  # the term i = s-1 has the factor 0**(n-s+1) = 0
        t = c * (s - i - 1) ** (n - i)
        total[i] -= t
        for j in range(i - 1, 0, -1):
            t = t * (i * j) // (i - j)
            total[j] -= t
        c = c * (n - i) // (i + 1)
    return Coefficients(total)


def ones_poly_alternating(n: int, s: int) -> Coefficients:
    """The same enumerator's coefficients as an alternating sum:

        sum_{i=s}^{n} C(n,i) * x(x+i)**(i-1) * (s-i-1)**(n-i)

    C(n, i) is walked down from C(n, n), and each term's coefficients down
    from x**i, in a loop of its own.  ``parkres verify formulas`` compares
    it with :func:`ones_poly_subtractive`.
    """
    n, s = _check_ns(n, s)
    total = [0] * (n + 1)
    c = 1  # C(n, i), walked down from C(n, n)
    for i in range(n, s - 1, -1):
        t = c * (s - i - 1) ** (n - i)
        total[i] += t
        for j in range(i - 1, 0, -1):
            t = t * (i * j) // (i - j)
            total[j] += t
        c = c * i // (n - i + 1)
    return Coefficients(total)


class Family(NamedTuple):
    """A count kind: ``label`` names its check, which the ``verify`` suite
    ``suite`` runs; ``forms`` maps each restriction shape it is counted on
    to its closed forms there, ``(method, form, cost)``, with ``form(n,
    *values)`` the count and ``cost(n, *values)`` the terms it sums (0: no
    value there); ``count(oracles, n, spots, *values)`` is the brute-force
    count, given :mod:`parkres.brute` as ``oracles``, and ``steps`` its
    bound in ``unit`` steps, which a budget holds."""

    label: str
    forms: dict
    count: Callable
    suite: str = "formulas"
    steps: Callable = lambda oracles, n, spots, *values: oracles.walk_steps(n, spots)
    unit: str = "walk"


def _segment(total, subtractive, alternating, strict: int = 0) -> tuple:
    """A kind's forms on [s], of (n, s): the total at s = n, and the
    subtractive sum of s terms against the alternating one of n - s + 1
    (n - s when ``strict``: the pair then has no value at s = n)."""
    return (
        ("total", total, lambda n, s: int(s == n)),
        ("subtractive", subtractive, lambda n, s: s if s + strict <= n else 0),
        ("alternating", alternating, lambda n, s: n - s + 1 - strict),
    )


# Each form calls its function by its name here when it runs, so that a
# function patched here (by a test or a tracer) is the one that runs.
_PF = _segment(lambda n, s: pf_total(n), lambda n, s: restricted_subtractive(n, s),
               lambda n, s: restricted_alternating(n, s))
_PPF = _segment(lambda n, s: ppf_total(n), lambda n, s: prime_subtractive(n, s),
                lambda n, s: prime_alternating(n, s), strict=1)
_ONES = _segment(lambda n, s: ones_poly_total(n), lambda n, s: ones_poly_subtractive(n, s),
                 lambda n, s: ones_poly_alternating(n, s))
_MODULAR = (  # the recursion solves the n + 1 lengths 0..n
    ("power", lambda n, g, s, k: mod_count_k1(g, s), lambda n, g, s, k: int(k == 1 and g * s >= 2)),
    ("recursion", lambda n, g, s, k: mod_count(g, s, k), lambda n, g, s, k: n + 1),
)
_TRIANGLE = (("triangle", lambda n, s: catalan_triangle(n, s - 1), lambda n, s: 1),)

# Every count kind, by the name that ``count`` and :func:`routes` take: the
# minimum-defect counts on [s] are pf's, by the paper's theorem; the orbits
# are those of the car-permuting action, counted by a running sum; and ones
# are the enumerator's coefficients by the cars preferring spot 1.
FAMILIES = {
    "pf": Family("restricted", {"segment": _PF, "set": (), "modular": _MODULAR},
                 lambda oracles, n, spots, *values: oracles.count_restricted(n, spots)),
    "ppf": Family("prime", {"segment": _PPF, "set": (), "modular": ()},
                  lambda oracles, n, spots, *values: oracles.count_prime_restricted(n, spots)),
    "defect": Family("min-defect", {"segment": _PF},
                     lambda oracles, n, spots, s: oracles.count_min_defect(n, s)),
    "orbits": Family("orbit", {"segment": _TRIANGLE},
                     lambda oracles, n, spots, s: oracles.count_nondecreasing_restricted(n, s),
                     "orbits", lambda oracles, n, spots, s: oracles.orbit_steps(n, s), "recurrence"),
    "ones": Family("ones", {"segment": _ONES},
                   lambda oracles, n, spots, s: (0,) + oracles.ones_distribution(n, s)),
}


def routes(kind: str, restriction: dict, n: int, budget=None) -> dict:
    """Zero-argument calls by method that count ``kind`` on ``restriction``
    (as ``count --format json`` reports it) with n cars, by its entry of
    :data:`FAMILIES`: the forms with a value here cheapest first (declared
    order on a tie; none for [s] outside 1..n), then ``brute``, the oracle
    on the spots of :func:`brute.restriction_spots`, which raises
    :class:`BudgetExceeded` if its steps may exceed ``budget`` (None: no
    bound).  An unknown kind or restriction, a shape the kind is not counted
    on, or a budget not a number >= 0 raises :class:`DomainError` at the call."""
    if not isinstance(kind, str) or kind not in FAMILIES:
        raise DomainError(f"kind must be one of {', '.join(FAMILIES)}, got {kind!r}")
    family = FAMILIES[kind]
    shape, n, values = _check_request(restriction, n)
    if shape not in family.forms:
        shapes = " or ".join(family.forms)
        raise DomainError(f"{kind} counts need a {shapes} restriction, got {shape}")
    if budget is not None:
        _check_budget(budget)

    def oracle():
        from . import brute  # only when called: a table of two forms never loads brute

        spots = brute.restriction_spots(restriction, n)
        if budget is not None and (steps := family.steps(brute, n, spots, *values)) > budget:
            raise BudgetExceeded(f"{steps} {family.unit} steps exceed --budget {budget}")
        return family.count(brute, n, spots, *values)

    forms = () if shape == "segment" and not 1 <= values[0] <= n else family.forms[shape]
    costed = [(cost(n, *values), method, form) for method, form, cost in forms]
    costed.sort(key=itemgetter(0))
    found = {method: partial(form, n, *values) for cost, method, form in costed if cost}
    return {**found, "brute": oracle}


def _checked(kind: str, n: int, s: int, mismatches: list):
    """The [s]-restricted ``kind`` count on n cars by its first route, checked
    against the second: a form, or the oracle where the first form is alone
    (the triangle, the ppf diagonal); a mismatch is appended to ``mismatches``."""
    (first, form), (second, other) = list(routes(kind, {"kind": "segment", "s": s}, n).items())[:2]
    value, check = form(), other()
    if check != value:
        mismatches.append(f"n={n}, s={s}: {first} {value}, {second} {check}")
    return value


def _grid_table(kind: str, column, n_max: int) -> tuple:
    """The [s]-restricted ``kind`` counts: row n holds them at s = 1..n,
    each by :func:`_checked`, under the header ``column(s)``."""
    n_max = _check_n(n_max, "--n-max")
    header = ["n"] + [column(s) for s in range(1, n_max + 1)]
    rows, mismatches = [], []
    for n in range(1, n_max + 1):
        row = [n] + [_checked(kind, n, s, mismatches) for s in range(1, n + 1)]
        rows.append(row + [""] * (n_max - n))
    return header, rows, mismatches


def _ones_table(n, s):
    n, s = _check_ns(n, s)  # [s] outside 1..n has no form
    mismatches = []
    row = list(_checked("ones", n, s, mismatches))
    return [f"x^{k}" for k in range(n + 1)], [row], mismatches


# The families of ``parkres table``, by name: each maps the flags it reads
# to their defaults (None: required), and its builder takes their values by
# keyword (``--n-max`` as ``n_max``) and returns ``(header, rows,
# mismatches)``, each mismatch a value whose second route (a form, or the
# oracle where a cell has one form) disagrees.  The triangle's column k
# holds the orbits on [s] with s = k+1.
TABLES = {
    "pf-restricted": ({"--n-max": 8}, partial(_grid_table, "pf", "s={}".format)),
    "ppf-restricted": ({"--n-max": 8}, partial(_grid_table, "ppf", "s={}".format)),
    "catalan-triangle": ({"--n-max": 8}, partial(_grid_table, "orbits", lambda s: f"k={s - 1}")),
    "ones": ({"--n": None, "--s": None}, _ones_table),
}


class AbelCheck(NamedTuple):
    equal: bool
    lhs: Fraction
    rhs: Fraction


def abel_check(n: int, x, y) -> AbelCheck:
    """Evaluate both sides of Abel's binomial identity at exact rationals
    x and y, each an int or a :class:`~fractions.Fraction`:

        (x + y + n)**n == sum_{i=0}^{n} C(n,i) * x(x+i)**(i-1) * (y+n-i)**(n-i)

    The i == 0 factor x*(x+0)**(-1) is taken to be 1, which removes the
    singularity at x == 0.  Returns the equality flag and both values.

    The left side is a :class:`~fractions.Fraction` power.  The right side
    is summed in integers: with x = p/q and y = u/v in lowest terms, term
    i is C(n,i) * (v/q)**i * X_i / v**n, where

        X_i = p(p+iq)**(i-1) * (u+(n-i)v)**(n-i)

    ((u+nv)**n at i == 0) comes from one :func:`_power_pair` chain.  The
    weights C(n,i) * (v/q)**i are walked up from i == 0 by the ratios
    (n-i+1)v / (iq) and combined by binary splitting
    (:func:`_rising_binomial_series`), so each X_i is multiplied only by
    small factors and products of them, and the sum T / Q gives the right
    side T / (Q * v**n), reduced to one Fraction at the end.
    """
    from fractions import Fraction  # only here, to keep it out of every CLI start

    n = _check_n(n)
    x, y = _rationals(x, y)
    lhs = (x + y + n) ** n
    p, q = x.numerator, x.denominator
    u, v = y.numerator, y.denominator

    def leaf(i):  # X_i, whose factor x(x+i)**(i-1) is 1 at i == 0
        if i == 0:
            return (u + n * v) ** n
        return p * _power_pair(p + i * q, i - 1, u + (n - i) * v, n - i)

    _, den, t = _rising_binomial_series(n, 0, n, leaf, v, q)
    rhs = Fraction(t, den * v**n)
    return AbelCheck(lhs == rhs, lhs, rhs)


def max_run_length(sigma: Sequence[int], i: int) -> int:
    """Length of the longest contiguous window of ``sigma`` ending at
    position ``i`` (1-based) whose maximum is ``sigma[i-1]``."""
    sigma = _check_permutation(sigma)
    (i,) = _ints(i)
    n = len(sigma)
    if not 1 <= i <= n:
        raise DomainError(f"position {i} outside 1..{n}")
    return _run_length(sigma, i)


def _run_length(sigma: tuple, i: int) -> int:
    # back from position i to just after the last larger entry, or to 1
    top = sigma[i - 1]
    return next((i - j for j in range(i - 1, 0, -1) if sigma[j - 1] > top), i)


def fiber_size_formula(sigma: Sequence[int], s: int) -> int:
    """Number of [s]-restricted parking functions with parking outcome
    ``sigma``:

        prod_{i=1}^{n} max(0, run_i - max(0, i - s))

    where run_i is :func:`max_run_length`.  Car sigma_i parked in spot i
    may have preferred any spot of the longest window ending at i that it
    dominates, minus the spots beyond s.
    """
    sigma = _check_permutation(sigma)
    n, s = _check_ns(len(sigma), s)
    total = 1
    for i in range(1, n + 1):
        choices = _run_length(sigma, i) - max(0, i - s)
        if choices <= 0:
            return 0
        total *= choices
    return total


def mod_count_k1(g: int, s: int) -> int:
    """Number of parking functions of length g*s - 1 whose preferences are
    limited to the first spot of each of s rows of g spots: s**(g*s - 2).
    That is :func:`mod_count` at k = 1, with at least one car."""
    g, s, _ = _check_gsk(g, s, 1, strict=True)
    return s ** (g * s - 2)


_MOD_TABLES: dict = {}  # g -> [N, T columns by gap count, binomial row], see _mod_count


def mod_count(g: int, s: int, k: int) -> int:
    """Number of parking functions of length m = g*s - k with preferences
    limited to the spots that are 1 mod g.

    Call this count N(m).  Classifying the s**m preference lists of m cars
    on a circular street of s rows of g spots by their gap decomposition
    gives the circular-street relation

        s**m = sum_{n>=1} (s/n) * sum_{lam, mu} multinomial(m; g*mu - lam)
                                              * prod_i N(g*mu_i - lam_i),

    where lam runs over compositions of k and mu over compositions of s,
    both of length n: block i holds lam_i empty spots and mu_i rows.
    Blocks that would hold g*mu_i - lam_i <= 0 cars cannot arise from
    maximal empty runs and are left out.  The n == 1 term is s*N(m), and
    the relation is solved for it.

    The summand does not change under a cyclic rotation of the blocks, and
    the row count mu_1 of the first block sums to s over the n rotations,
    so the weight s/n may be replaced by mu_1.  Splitting off the first
    block (a1 gaps, b1 rows) then gives

        s**m = sum_{a1, b1} b1 * C(m, g*b1 - a1) * N(g*b1 - a1) * T(k - a1, s - b1)

    with the block table T(a, b): the ordered block sequences with a gaps
    and b rows in all, each block weighted by its multinomial and N factor,

        T(0, 0) = 1,
        T(a, b) = sum_{a1, b1} C(g*b - a, g*b1 - a1) * N(g*b1 - a1) * T(a - a1, b - b1).

    N(m) depends on g and m only, so every length L = 1, ..., m is solved
    on the smallest street that holds L cars: L//g + 1 rows, leaving
    1 to g gaps.  There every first block has a1 < g gaps, so T is needed
    only in the columns a = 1, ..., g-1, and length L adds one entry to
    them, T(gaps, rows), when it leaves fewer than g gaps.  Both are filled
    by increasing length, all in integers, from fewer than L terms at
    length L, so N(m) costs O(m**2) big-integer products whatever k is.
    One table per g keeps N, the T columns and the binomial row C(L, .)
    and grows as longer lengths are asked for.  A length of 0
    (k == g*s) counts as 1, the empty list.  Each length's division by its
    row count is guarded by ``exceptions._exact``: a remainder or a negative
    count would be a bug (the result is provably a nonnegative integer), and
    the table for g is dropped.
    """
    g, s, k = _check_gsk(g, s, k)
    return _mod_count(g, g * s - k)


def _mod_count(g: int, m: int) -> int:
    table = _MOD_TABLES.get(g)
    if table is None:
        # N(0) = 1; T(a, b) at blocks[a][b], a column made when first
        # filled, with T(a, 0) = 0; C(0, .)
        table = _MOD_TABLES[g] = [[1], {}, [1]]
    counts, blocks, row = table
    try:
        for length in range(len(counts), m + 1):
            row = [1, *map(add, row, row[1:]), 1]
            rows, gaps = length // g + 1, g - length % g
            plain = weighted = 0
            # on one row a first block leaves no rows behind: nothing to sum
            for a1 in range(1, gaps if rows > 1 else 1):
                # b1 = 1, ..., rows - 1: parts g*b1 - a1 against T(gaps - a1, rows - b1)
                part = g - a1
                weights = map(mul, row[part::g], counts[part::g])
                terms = list(map(mul, weights, blocks[gaps - a1][rows - 1:0:-1]))
                plain += sum(terms)
                weighted += sum(map(mul, terms, range(1, rows)))
            value = _exact(rows**length - weighted, rows, f"count at g={g}, s={rows}, k={gaps}")
            counts.append(value)
            if gaps < g:
                blocks.setdefault(gaps, [0]).append(value + plain)
            table[2] = row
    except BaseException:
        # a length left half written would corrupt every later count for g
        del _MOD_TABLES[g]
        raise
    return counts[m]
