"""Exact closed forms, recurrences and polynomial identities.

Each count that also has a brute-force oracle in :mod:`parkres.brute`
is computed here from a formula alone; agreement between the two routes is
enforced by the verification suites, never assumed.  :func:`routes` names,
for one count request, its closed forms and the oracle that checks them;
no form calls into :mod:`parkres.brute`, which is imported only when that
oracle runs.  All arithmetic is exact: Python ints, :class:`fractions.Fraction`,
and the ones enumerators' coefficient tuples of ints, summed in place.

Conventions used throughout, chosen so every identity holds verbatim:
0**0 == 1; the factor (i+1)**(i-1) at i == 0 is 1; the factor x*(x+i)**(i-1)
at i == 0 is the constant 1 (which also covers x == 0).
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .exceptions import (
    BudgetExceeded,
    DomainError,
    NonIntegerIntermediate,
    _check_gsk,
    _check_n,
    _check_ns,
    _check_permutation,
    _check_request,
    _ints,
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
    (:func:`_rising_binomial_series`), whose T / Q must divide exactly; a
    remainder raises :class:`NonIntegerIntermediate`.
    """
    n, s = _check_ns(n, s)
    _, q, t = _rising_binomial_series(  # (i+1)**(i-1) is 1**0 at i == 0
        n, 0, s - 2, lambda i: _power_product(i + 1, max(i - 1, 0), s - i - 1, n - i)
    )
    subtracted, remainder = divmod(t, q)
    if remainder:
        raise NonIntegerIntermediate(f"binomial sum not integral at n={n}, s={s}")
    return s**n - subtracted


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
    (:func:`_binomial_series`), whose T / Q must divide exactly; a
    remainder raises :class:`NonIntegerIntermediate`.
    """
    n, s = _check_ns(n, s)
    _, q, t = _binomial_series(
        n, s, n, lambda i: _power_pair(i + 1, i - 1, s - i - 1, n - i)
    )
    total, remainder = divmod(t, q)
    if remainder:
        raise NonIntegerIntermediate(f"binomial sum not integral at n={n}, s={s}")
    return total


def prime_subtractive(n: int, s: int) -> int:
    """Number of [s]-restricted prime parking functions on n cars (s < n):

        s**n - (s-1)**n - sum_{i=1}^{s} C(n,i) * (i-1)**(i-1) * (s-i)**(n-i)

    subtracting the non-prime lists by the position of the first failure
    of the strict occupancy condition.  The term i = s holds 0**(n-s) and
    is left out; the others are summed as in
    :func:`restricted_subtractive`.
    """
    n, s = _check_ns(n, s, strict=True)
    _, q, t = _rising_binomial_series(
        n, 1, s - 1, lambda i: _power_product(i - 1, i - 1, s - i, n - i)
    )
    subtracted, remainder = divmod(t, q)
    if remainder:
        raise NonIntegerIntermediate(f"binomial sum not integral at n={n}, s={s}")
    return s**n - (s - 1) ** n - subtracted


def prime_alternating(n: int, s: int) -> int:
    """The prime count as an alternating sum:

        sum_{i=s+1}^{n} C(n,i) * (i-1)**(i-1) * (s-i)**(n-i)

    ``parkres verify formulas`` compares it with :func:`prime_subtractive`.
    Each term's two powers come from one :func:`_power_pair` chain, and the
    binomial weights are combined by binary splitting
    (:func:`_binomial_series`), whose T / Q must divide exactly; a
    remainder raises :class:`NonIntegerIntermediate`.
    """
    n, s = _check_ns(n, s, strict=True)
    _, q, t = _binomial_series(
        n, s + 1, n, lambda i: _power_pair(i - 1, i - 1, s - i, n - i)
    )
    total, remainder = divmod(t, q)
    if remainder:
        raise NonIntegerIntermediate(f"binomial sum not integral at n={n}, s={s}")
    return total


def routes(kind: str, restriction: dict, n: int) -> tuple:
    """``(forms, oracle)``: the routes that count ``kind`` on
    ``restriction`` with n cars.  ``count``, ``table`` and ``verify`` all
    read it, so a new count family is one entry here.

    The kinds are "pf" and "ppf"; and, on a segment [s] alone, "defect"
    (the functions [n] -> [s] of minimum defect n - s), "orbits" (of the
    car-permuting action on the [s]-restricted parking functions) and
    "ones" (the coefficients of :func:`ones_poly_subtractive`).  Any other
    kind, or another restriction for the last three, raises
    :class:`DomainError` at the call.

    ``forms`` holds the closed forms cheapest first, the order in which
    ``count --method auto`` tries them, keyed by the method name its JSON
    reports; each value computes the count when called, through the
    form's name in this module.  The cost of a form is the number of terms
    it sums: one for the total, the power and the triangle entry; s for
    the subtractive form against n - s + 1 for the alternating one (n - s
    for ppf), ``subtractive`` first on a tie.  ``oracle(budget=None)`` is the
    brute-force count of ``kind`` in :mod:`parkres.brute` on the request's
    own spots (:func:`brute.restriction_spots`), looked up there when
    called.  Given a budget, it raises :class:`BudgetExceeded` when its
    walk may take more steps (:func:`brute.walk_steps`, which checks the
    spots first, so a bad spot is named at any budget); the orbit count
    is held to the steps of its own recurrence (:func:`brute.orbit_steps`).

    ``restriction`` is the object ``count --format json`` reports, of kind
    segment (with ``s``), set (with ``elements``) or modular (with ``g``,
    ``s`` and ``k``, and n = g*s - k); any other raises
    :class:`DomainError` at the call.  [s] with 1 <= s <= n has the
    subtractive and alternating pair, and at s = n also the total, for
    pf, ones and defect (whose counts are pf's, by the paper's theorem);
    for ppf the pair holds only while s < n, and at s = n its count is the
    total.  Orbits have the Catalan triangle entry.  A modular pf has the
    recursion, and at k = 1 with g*s >= 2 also the power s**(g*s - 2).  An
    explicit set, a modular ppf and every other (n, s) have no form, and
    are counted by the oracle alone.
    """
    counts = {  # each kind's brute-force count, given brute and the request's spots
        "pf": lambda brute, spots: brute.count_restricted(n, spots),
        "ppf": lambda brute, spots: brute.count_prime_restricted(n, spots),
        "defect": lambda brute, spots: brute.count_min_defect(n, *values),
        "orbits": lambda brute, spots: brute.count_nondecreasing_restricted(n, *values),
        "ones": lambda brute, spots: (0,) + brute.ones_distribution(n, *values),
    }
    if not isinstance(kind, str) or kind not in counts:
        raise DomainError(f"kind must be one of {', '.join(counts)}, got {kind!r}")
    shape, n, values = _check_request(restriction, n)
    if shape != "segment" and kind not in ("pf", "ppf"):
        raise DomainError(f"{kind} counts need a segment restriction, got {shape}")
    count = counts[kind]

    def oracle(budget=None):
        from . import brute  # only when called: table loads formulas but never brute

        spots = brute.restriction_spots(restriction, n)
        if budget is not None:
            if kind == "orbits":  # a running-sum recurrence, not the parking walk
                steps, name = brute.orbit_steps(n, *values), "recurrence"
            else:
                steps, name = brute.walk_steps(n, spots), "walk"
            if steps > budget:
                raise BudgetExceeded(f"{steps} {name} steps exceed --budget {budget}")
        return count(brute, spots)

    forms = {}
    if shape == "modular" and kind == "pf":
        g, s, k = values
        if k == 1 and g * s >= 2:
            forms["power"] = lambda: mod_count_k1(g, s)
        forms["recursion"] = lambda: mod_count(g, s, k)
    if shape != "segment" or not 1 <= values[0] <= n:
        return forms, oracle
    (s,) = values
    if kind == "orbits":
        return {"triangle": lambda: catalan_triangle(n, s - 1)}, oracle
    if kind == "ppf":
        if s == n:
            return {"total": lambda: ppf_total(n)}, oracle
        pair = (lambda: prime_subtractive(n, s), lambda: prime_alternating(n, s))
    elif kind == "ones":
        total = lambda: ones_poly_total(n)
        pair = (lambda: ones_poly_subtractive(n, s), lambda: ones_poly_alternating(n, s))
    else:  # pf, and defect, whose counts on [s] are pf's
        total = lambda: pf_total(n)
        pair = (lambda: restricted_subtractive(n, s), lambda: restricted_alternating(n, s))
    if s == n:
        forms["total"] = total
    terms = list(zip(("subtractive", "alternating"), pair))
    forms.update(terms if s <= n - s + (kind != "ppf") else reversed(terms))
    return forms, oracle


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


def _checked(kind: str, n: int, s: int, mismatches: list):
    """The [s]-restricted ``kind`` count on n cars by the first form
    :func:`routes` gives, checked against the second (the ppf diagonal has
    only the total); a disagreement is appended to ``mismatches``."""
    (first, form), *rest = routes(kind, {"kind": "segment", "s": s}, n)[0].items()
    value = form()
    for second, other in rest[:1]:
        check = other()
        if check != value:
            mismatches.append(f"n={n}, s={s}: {first} {value}, {second} {check}")
    return value


def _restricted_table(kind: str, n_max: int):
    """The [s]-restricted ``kind`` table: row n holds the counts at
    s = 1..n, each by :func:`_checked`."""
    header = ["n"] + [f"s={s}" for s in range(1, n_max + 1)]
    rows, mismatches = [], []
    for n in range(1, n_max + 1):
        row = [n] + [_checked(kind, n, s, mismatches) for s in range(1, n + 1)]
        rows.append(row + [""] * (n_max - n))
    return header, rows, mismatches


def _catalan_table(n_max):
    header = ["n"] + [f"k={k}" for k in range(n_max)]
    rows = [
        [n] + [catalan_triangle(n, k) for k in range(n)] + [""] * (n_max - n)
        for n in range(1, n_max + 1)
    ]
    return header, rows, []


def _ones_table(n, s):
    n, s = _check_ns(n, s)  # [s] outside 1..n has no form
    mismatches = []
    row = list(_checked("ones", n, s, mismatches))
    return [f"x^{k}" for k in range(n + 1)], [row], mismatches


# The families of ``parkres table``, by name.  Each maps the flags it
# reads to their defaults (None: required), and its builder takes their
# values by keyword (``--n-max`` as ``n_max``) and returns ``(header,
# rows, mismatches)``, each mismatch a value whose second route disagrees:
# every value has one but the Catalan triangle's and the ppf diagonal's.
TABLES = {
    "pf-restricted": ({"--n-max": 8}, lambda n_max: _restricted_table("pf", n_max)),
    "ppf-restricted": ({"--n-max": 8}, lambda n_max: _restricted_table("ppf", n_max)),
    "catalan-triangle": ({"--n-max": 8}, _catalan_table),
    "ones": ({"--n": None, "--s": None}, _ones_table),
}


class AbelCheck(NamedTuple):
    equal: bool
    lhs: Fraction
    rhs: Fraction


def abel_check(n: int, x, y) -> AbelCheck:
    """Evaluate both sides of Abel's binomial identity at exact rationals:

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
    x = Fraction(x)
    y = Fraction(y)
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


_MOD_MEMO: dict = {}  # (g, m) -> N(m), the count of length m for row size g
_BLOCK_MEMO: dict = {}  # (g, a, b) -> T(a, b), the block table


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

    Both are filled bottom-up by increasing length g*b - a, all in
    integers, so N(m) costs O(k**2 * s**2) big-integer products; the
    memos are kept per g.  A length of 0 (k == g*s) counts as 1, the
    empty list.  A remainder not divisible by s, or a negative count,
    raises :class:`NonIntegerIntermediate` (it would indicate a bug, the
    result is provably a nonnegative integer).
    """
    return _mod_count(*_check_gsk(g, s, k))


def _mod_count(g: int, s: int, k: int) -> int:
    m = g * s - k
    if m == 0:
        return 1
    cached = _MOD_MEMO.get((g, m))
    if cached is not None:
        return cached
    # An entry of length L needs only shorter entries, and T(a, b) also
    # N(L) itself, so fill by length: N(L) first, solved at the fewest rows
    # that hold L (at most g gaps), then T at every (gaps, rows) of length L
    # that a solve here or there splits off.
    gaps = max(k, g)
    for length in range(1, m):
        if (g, length) not in _MOD_MEMO:
            rows = length // g + 1
            _MOD_MEMO[(g, length)] = _solve(g, rows, g * rows - length)
        for b in range(1, s):
            a = g * b - length
            if 1 <= a < gaps and (g, a, b) not in _BLOCK_MEMO:
                _BLOCK_MEMO[(g, a, b)] = _MOD_MEMO[(g, length)] + _split(g, a, b, False)
    value = _solve(g, s, k)
    _MOD_MEMO[(g, m)] = value
    return value


def _solve(g: int, s: int, k: int) -> int:
    """N(g*s - k) from the relation at (g, s, k); needs every shorter entry."""
    m = g * s - k
    remainder = s**m - _split(g, k, s, True)
    if remainder % s:
        raise NonIntegerIntermediate(
            f"total not divisible by s={s} at g={g}, s={s}, k={k}"
        )
    value = remainder // s
    if value < 0:
        raise NonIntegerIntermediate(f"negative count at g={g}, s={s}, k={k}")
    return value


def _split(g: int, a: int, b: int, weighted: bool) -> int:
    """Sum over the first block (a1, b1) of the sequences with a gaps and
    b rows that have more blocks after it, weighted by b1 if asked."""
    length = g * b - a
    total = 0
    for b1 in range(1, b):
        # the first block and the rest must both hold at least one car
        for a1 in range(max(1, a - g * (b - b1) + 1), min(a, g * b1)):
            part = g * b1 - a1
            term = comb(length, part) * _MOD_MEMO[(g, part)] * _BLOCK_MEMO[(g, a - a1, b - b1)]
            total += b1 * term if weighted else term
    return total
