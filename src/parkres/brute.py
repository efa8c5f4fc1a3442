"""Exhaustive oracles over restricted preference spaces.

Everything here is decided by enumeration or by direct simulation.  The
counters visit one sorted list per orbit of the car-permuting action and
weight it by the orbit size (see :mod:`parkres._kernels_py`); the
``enum_*`` streams walk every list in lexicographic order, pruning only
prefixes that provably fail; the fiber oracle parks every list.  These
are the trusted, independent counterparts of the closed forms in
:mod:`parkres.formulas`; the two are never allowed to share a code path.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product
from typing import Iterable, Iterator, Sequence

from . import core
from . import _kernels_py as kernels
from .exceptions import DomainError, EmptyRestriction


def normalize_restriction(n: int, allowed: Iterable[int]) -> tuple:
    """Sorted tuple of the allowed spots, checked to lie inside [1, n]."""
    elems = tuple(sorted(set(allowed)))
    if elems and not (1 <= elems[0] and elems[-1] <= n):
        raise DomainError(f"restriction {elems} not contained in 1..{n}")
    return elems


def _stream(n: int, allowed: tuple, strict: bool) -> Iterator[tuple]:
    counts = [0] * (n + 1)
    buf = [0] * n

    def feasible(placed: int) -> bool:
        r = n - placed
        running = 0
        for i in range(1, n + 1):
            running += counts[i]
            need = i + 1 if (strict and i < n) else i
            if running + r < need:
                return False
            if running == placed:
                return True
        return True

    def go(pos: int) -> Iterator[tuple]:
        last = pos + 1 == n
        for v in allowed:
            counts[v] += 1
            buf[pos] = v
            if feasible(pos + 1):
                if last:
                    yield tuple(buf)
                else:
                    yield from go(pos + 1)
            counts[v] -= 1

    return go(0)


def enum_restricted(n: int, allowed: Iterable[int]) -> Iterator[tuple]:
    """Yield the parking functions with all preferences in ``allowed``,
    in lexicographic order."""
    if n == 0:
        yield ()
        return
    elems = normalize_restriction(n, allowed)
    if not elems:
        raise EmptyRestriction("no allowed preferences with cars present")
    yield from _stream(n, elems, strict=False)


def enum_prime_restricted(n: int, allowed: Iterable[int]) -> Iterator[tuple]:
    """Yield the prime parking functions with preferences in ``allowed``,
    in lexicographic order."""
    if n == 0:
        yield ()
        return
    elems = normalize_restriction(n, allowed)
    if not elems:
        raise EmptyRestriction("no allowed preferences with cars present")
    yield from _stream(n, elems, strict=True)


def count_restricted(n: int, allowed: Iterable[int]) -> int:
    """Number of parking functions with all preferences in ``allowed``,
    counted by enumeration without materializing the set."""
    if n == 0:
        return 1
    elems = normalize_restriction(n, allowed)
    if not elems:
        raise EmptyRestriction("no allowed preferences with cars present")
    return kernels.count_parking(n, elems, False)


def count_prime_restricted(n: int, allowed: Iterable[int]) -> int:
    """Number of prime parking functions with preferences in ``allowed``."""
    if n == 0:
        return 1
    elems = normalize_restriction(n, allowed)
    if not elems:
        return 0
    return kernels.count_parking(n, elems, True)


def count_nondecreasing_restricted(n: int, s: int) -> int:
    """Number of non-decreasing [s]-restricted parking functions.

    These are one per orbit of the car-permuting action, so this is the
    orbit count.
    """
    if not 1 <= s <= n:
        raise DomainError(f"need 1 <= s <= n, got s={s}, n={n}")
    total = 0
    for tup in combinations_with_replacement(range(1, s + 1), n):
        if all(v <= i for i, v in enumerate(tup, 1)):
            total += 1
    return total


def ones_distribution(n: int, s: int) -> tuple:
    """Counts (c_1, ..., c_n) of [s]-restricted parking functions with
    exactly i cars preferring spot 1.

    No parking function avoids spot 1, so the implicit c_0 is always 0.
    """
    if not 1 <= s <= n:
        raise DomainError(f"need 1 <= s <= n, got s={s}, n={n}")
    census = kernels.ones_census(n, s)
    if census[0] != 0:
        raise AssertionError("parking function with no car preferring spot 1")
    return tuple(census[1:])


def fiber_size_bruteforce(sigma: Sequence[int], s: int) -> int:
    """Number of [s]-restricted parking functions whose outcome is the
    permutation ``sigma`` (one-line notation, spot -> car)."""
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise DomainError(f"{tuple(sigma)} is not a permutation of 1..{n}")
    if not 1 <= s <= n:
        raise DomainError(f"need 1 <= s <= n, got s={s}, n={n}")
    target = tuple(sigma)
    total = 0
    for prefs in product(range(1, s + 1), repeat=n):
        result = core.park(prefs, n)
        if not result.unparked and result.occupancy == target:
            total += 1
    return total


def count_min_defect(n: int, s: int) -> int:
    """Number of preference functions [n] -> [s] with the smallest possible
    defect n - s, decided by simulation."""
    if not 1 <= s <= n:
        raise DomainError(f"need 1 <= s <= n, got s={s}, n={n}")
    return kernels.count_min_defect(n, s)
