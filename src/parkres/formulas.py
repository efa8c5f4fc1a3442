"""Exact closed forms, recurrences and polynomial identities.

Each count that also has a brute-force oracle in :mod:`parkres.brute`
is computed here from a formula alone; agreement between the two routes is
enforced by the verification suites, never assumed.  All arithmetic is
exact (Python ints, :class:`fractions.Fraction`, :class:`IntPolynomial`).

Conventions used throughout, chosen so every identity holds verbatim:
0**0 == 1; the factor (i+1)**(i-1) at i == 0 is 1; the factor x*(x+i)**(i-1)
at i == 0 is the constant 1 (which also covers x == 0).
"""

from __future__ import annotations

from math import comb, factorial
from operator import index
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .exceptions import DomainError, NonIntegerIntermediate
from .polynomial import ONE, IntPolynomial

if TYPE_CHECKING:
    from fractions import Fraction


def _ints(*values) -> tuple:
    """The arguments as Python ints; a float, even a whole one, or any
    other non-integer raises :class:`DomainError`."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise DomainError(f"need integer arguments, got {values!r}") from None


def pf_total(n: int) -> int:
    """Number of parking functions on n cars: (n+1)**(n-1)."""
    (n,) = _ints(n)
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    return (n + 1) ** (n - 1)


def ppf_total(n: int) -> int:
    """Number of prime parking functions on n cars: (n-1)**(n-1).

    For n == 1 this is 0**0 == 1, matching the single prime list (1,).
    """
    (n,) = _ints(n)
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    return (n - 1) ** (n - 1)


def _check_ns(n: int, s: int) -> tuple:
    n, s = _ints(n, s)
    if not 1 <= s <= n:
        raise DomainError(f"need 1 <= s <= n, got s={s}, n={n}")
    return n, s


def restricted_subtractive(n: int, s: int) -> int:
    """Number of [s]-restricted parking functions on n cars:

        s**n - sum_{i=0}^{s-1} C(n,i) * (i+1)**(i-1) * (s-i-1)**(n-i)

    obtained by subtracting the non-parking lists, classified by the first
    unoccupied spot.
    """
    n, s = _check_ns(n, s)
    total = s**n
    c = 1  # C(n, i), walked up from C(n, 0)
    for i in range(s):
        pf_i = 1 if i == 0 else (i + 1) ** (i - 1)
        total -= c * pf_i * (s - i - 1) ** (n - i)
        c = c * (n - i) // (i + 1)
    return total


def restricted_alternating(n: int, s: int) -> int:
    """The same count as :func:`restricted_subtractive` as an alternating sum:

        sum_{i=s}^{n} C(n,i) * (i+1)**(i-1) * (s-i-1)**(n-i)

    from the signed count of two-colored parking functions cancelled by the
    recoloring involution.  ``parkres verify formulas`` compares the two.
    """
    n, s = _check_ns(n, s)
    total = 0
    c = 1  # C(n, i), walked down from C(n, n)
    for i in range(n, s - 1, -1):
        total += c * (i + 1) ** (i - 1) * (s - i - 1) ** (n - i)
        c = c * i // (n - i + 1)
    return total


def prime_subtractive(n: int, s: int) -> int:
    """Number of [s]-restricted prime parking functions on n cars (s < n):

        s**n - (s-1)**n - sum_{i=1}^{s} C(n,i) * (i-1)**(i-1) * (s-i)**(n-i)

    subtracting the non-prime lists by the position of the first failure
    of the strict occupancy condition.
    """
    n, s = _ints(n, s)
    if not 1 <= s < n:
        raise DomainError(f"need 1 <= s < n, got s={s}, n={n}")
    total = s**n - (s - 1) ** n
    c = n  # C(n, i), walked up from C(n, 1)
    for i in range(1, s + 1):
        total -= c * (i - 1) ** (i - 1) * (s - i) ** (n - i)
        c = c * (n - i) // (i + 1)
    return total


def prime_alternating(n: int, s: int) -> int:
    """The prime count as an alternating sum:

        sum_{i=s+1}^{n} C(n,i) * (i-1)**(i-1) * (s-i)**(n-i)

    ``parkres verify formulas`` compares it with :func:`prime_subtractive`.
    """
    n, s = _ints(n, s)
    if not 1 <= s < n:
        raise DomainError(f"need 1 <= s < n, got s={s}, n={n}")
    total = 0
    c = 1  # C(n, i), walked down from C(n, n)
    for i in range(n, s, -1):
        total += c * (i - 1) ** (i - 1) * (s - i) ** (n - i)
        c = c * i // (n - i + 1)
    return total


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
    (n,) = _ints(n)
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    return catalan_triangle(n, n - 1)


def _binomial_coeffs(n: int, c: int) -> list:
    # The coefficients of (x + c)**n, lowest degree first, by the binomial
    # theorem: C(n, j) * c**(n-j) at x**j, each from the one above it.
    coeffs = [1]
    for j in range(n, 0, -1):
        coeffs.append(coeffs[-1] * j * c // (n - j + 1))
    coeffs.reverse()
    return coeffs


def _ones_factor(i: int) -> IntPolynomial:
    # x*(x+i)**(i-1), which counts parking functions of length i by their
    # number of 1 entries.  The empty product at i == 0 is 1.
    if i == 0:
        return ONE
    return IntPolynomial([0] + _binomial_coeffs(i - 1, i))


def ones_poly_subtractive(n: int, s: int) -> IntPolynomial:
    """Generating polynomial of [s]-restricted parking functions by the
    number of cars preferring spot 1:

        (s-1+x)**n - sum_{i=0}^{s-1} C(n,i) * x(x+i)**(i-1) * (s-i-1)**(n-i)
    """
    n, s = _check_ns(n, s)
    total = IntPolynomial(_binomial_coeffs(n, s - 1))
    c = 1  # C(n, i), walked up from C(n, 0)
    for i in range(s):
        total = total - c * (s - i - 1) ** (n - i) * _ones_factor(i)
        c = c * (n - i) // (i + 1)
    return total


def ones_poly_alternating(n: int, s: int) -> IntPolynomial:
    """The same enumerator as an alternating sum:

        sum_{i=s}^{n} C(n,i) * x(x+i)**(i-1) * (s-i-1)**(n-i)

    ``parkres verify abel`` compares it with :func:`ones_poly_subtractive`.
    """
    n, s = _check_ns(n, s)
    total = IntPolynomial()
    c = 1  # C(n, i), walked down from C(n, n)
    for i in range(n, s - 1, -1):
        total = total + c * (s - i - 1) ** (n - i) * _ones_factor(i)
        c = c * i // (n - i + 1)
    return total


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
    is summed in integers over the common denominator q**n * v**n, where
    x = p/q and y = u/v in lowest terms: term i is

        C(n,i) * p(p+iq)**(i-1) * q**(n-i) * (u+(n-i)v)**(n-i) * v**i

    (q**n * (u+nv)**n at i == 0), and the total is reduced to one
    Fraction at the end.
    """
    from fractions import Fraction  # only here, to keep it out of every CLI start

    (n,) = _ints(n)
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    x = Fraction(x)
    y = Fraction(y)
    lhs = (x + y + n) ** n
    p, q = x.numerator, x.denominator
    u, v = y.numerator, y.denominator
    w = q**n  # C(n, i) * q**(n-i) * v**i, walked up from i == 0
    total = w * (u + n * v) ** n
    for i in range(1, n + 1):
        w = w * (n - i + 1) * v // (i * q)
        total += w * p * (p + i * q) ** (i - 1) * (u + (n - i) * v) ** (n - i)
    rhs = Fraction(total, (q * v) ** n)
    return AbelCheck(lhs == rhs, lhs, rhs)


def _check_permutation(sigma: Sequence[int]) -> int:
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise DomainError(f"{tuple(sigma)} is not a permutation of 1..{n}")
    return n


def max_run_length(sigma: Sequence[int], i: int) -> int:
    """Length of the longest contiguous window of ``sigma`` ending at
    position ``i`` (1-based) whose maximum is ``sigma[i-1]``."""
    n = _check_permutation(sigma)
    (i,) = _ints(i)
    if not 1 <= i <= n:
        raise DomainError(f"position {i} outside 1..{n}")
    top = sigma[i - 1]
    length = 0
    for j in range(i - 1, -1, -1):
        if sigma[j] > top:
            break
        length += 1
    return length


def fiber_size_formula(sigma: Sequence[int], s: int) -> int:
    """Number of [s]-restricted parking functions with parking outcome
    ``sigma``:

        prod_{i=1}^{n} max(0, run_i - max(0, i - s))

    where run_i is :func:`max_run_length`.  Car sigma_i parked in spot i
    may have preferred any spot of the longest window ending at i that it
    dominates, minus the spots beyond s.
    """
    n = _check_permutation(sigma)
    (s,) = _ints(s)
    if not 1 <= s <= n:
        raise DomainError(f"need 1 <= s <= n, got s={s}, n={n}")
    total = 1
    for i in range(1, n + 1):
        choices = max_run_length(sigma, i) - max(0, i - s)
        if choices <= 0:
            return 0
        total *= choices
    return total


def compositions(total: int, num_parts: int) -> Iterator[tuple]:
    """All compositions of ``total`` into exactly ``num_parts`` positive
    parts, in lexicographic order."""
    total, num_parts = _ints(total, num_parts)
    if num_parts < 1 or total < num_parts:
        raise DomainError(
            f"cannot compose {total} into {num_parts} positive parts"
        )

    return _compositions(total, num_parts)


def _compositions(total: int, num_parts: int) -> Iterator[tuple]:
    if num_parts == 1:
        yield (total,)
        return
    for first in range(1, total - num_parts + 2):
        for rest in _compositions(total - first, num_parts - 1):
            yield (first,) + rest


def multinomial(n: int, parts: Sequence[int]) -> int:
    """Number of ways to split n labelled items into blocks of the given
    sizes.  Parts must be nonnegative and sum to n."""
    n, *parts = _ints(n, *parts)
    if any(p < 0 for p in parts):
        raise DomainError(f"negative part in {tuple(parts)}")
    if sum(parts) != n:
        raise DomainError(f"parts {tuple(parts)} do not sum to {n}")
    result = factorial(n)
    for p in parts:
        result //= factorial(p)
    return result


def mod_count_k1(g: int, s: int) -> int:
    """Number of parking functions of length g*s - 1 whose preferences are
    limited to the first spot of each of s rows of g spots: s**(g*s - 2)."""
    g, s = _ints(g, s)
    if g < 1 or s < 1 or g * s < 2:
        raise DomainError(f"need g, s >= 1 and g*s >= 2, got g={g}, s={s}")
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
    g, s, k = _ints(g, s, k)
    if g < 1 or s < 1 or not 1 <= k <= g * s:
        raise DomainError(f"need g, s >= 1 and 1 <= k <= g*s, got {g}, {s}, {k}")
    return _mod_count(g, s, k)


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
