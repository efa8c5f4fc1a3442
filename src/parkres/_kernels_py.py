"""Counting kernels: one sorted preference list per orbit.

Every statistic computed here is unchanged when the cars are reordered:
whether every car parks (and whether the list is prime), how many cars
prefer spot 1, how many cars park on fewer spots than cars, and which
spots of a circular street stay empty.  So each kernel visits one
non-decreasing list per orbit of the car-permuting action and adds the
orbit size n!/prod(c_v!), where c_v is the number of entries equal to v.

The parking counters decide an orbit by the occupancy condition (at least
i entries <= i, for every i) and prune a prefix as soon as it fails;
pruning only discards orbits that provably fail, so counts equal those of
the unpruned enumeration.  The min-defect and circular kernels decide
each orbit by running the parking walk on its sorted list.  Orbit sizes
are computed here from factorials and share no code with
:mod:`parkres.formulas`, whose closed forms these kernels check.
"""

from __future__ import annotations

from math import factorial

from .exceptions import NotBlockAligned


def _orbits(n: int, values: tuple, need: tuple):
    """Yield ``(counts, size)`` for each multiset of n entries from ``values``.

    ``counts[j]`` is how many entries equal ``values[j]`` and ``size`` is
    the number of lists with those entries, n!/prod(counts[j]!).  A
    multiset is skipped when, for some j, fewer than ``need[j]`` (at most
    n) of its entries are <= ``values[j]``; the test runs as each count is
    chosen, so a failing prefix is cut with everything that extends it.
    """
    fact = [factorial(i) for i in range(n + 1)]
    last = len(values) - 1
    counts = [0] * len(values)

    def go(j: int, placed: int, denom: int):
        rest = n - placed
        low = rest if j == last else max(0, need[j] - placed)
        for c in range(low, rest + 1):
            counts[j] = c
            if j == last:
                yield tuple(counts), fact[n] // (denom * fact[c])
            else:
                yield from go(j + 1, placed + c, denom * fact[c])

    return go(0, 0, 1)


def _occupancy_need(n: int, allowed: tuple, strict: bool) -> tuple:
    """Bounds for :func:`_orbits` from the occupancy condition.

    Entry j is the fewest entries <= ``allowed[j]`` a parking list has:
    each i from ``allowed[j]`` up to the next allowed value needs at least
    i entries <= i (more than i when ``strict`` and i < n).
    """
    return tuple(min(v, n) if strict else v - 1 for v in allowed[1:]) + (n,)


def count_parking(n: int, allowed: tuple, strict: bool = False) -> int:
    """Count lists over ``allowed``^n in which every car parks.

    With ``strict`` the count is of prime lists instead (more than i
    entries <= i for all i < n).  ``allowed`` must be sorted, within
    [1, n]; the empty list of length 0 counts once.
    """
    if n == 0:
        return 1
    if not allowed or allowed[0] != 1:
        return 0  # spot 1 is never preferred
    need = _occupancy_need(n, allowed, strict)
    return sum(size for _, size in _orbits(n, allowed, need))


def ones_census(n: int, s: int) -> list:
    """Counts of [s]-restricted parking functions by number of 1 entries.

    Returns a list of length n + 1 indexed by how many cars prefer spot 1.
    """
    if n == 0:
        return [1]
    values = tuple(range(1, s + 1))
    tally = [0] * (n + 1)
    for counts, size in _orbits(n, values, _occupancy_need(n, values, False)):
        tally[counts[0]] += size
    return tally


def count_min_defect(n: int, s: int) -> int:
    """Count functions [n] -> [s] that leave only n - s cars unparked.

    Decided by simulating the parking procedure on each orbit's sorted
    list, so it is independent of the occupancy-condition counters above.
    """
    if n == 0:
        return 1
    total = 0
    for counts, size in _orbits(n, tuple(range(1, s + 1)), (0,) * s):
        occ = bytearray(s + 1)
        parked = 0
        for p, c in enumerate(counts, 1):
            for _ in range(c):
                t = p
                while t <= s and occ[t]:
                    t += 1
                if t <= s:
                    occ[t] = 1
                    parked += 1
        if parked == s:
            total += size
    return total


def class_from_mask(mask: int, length: int, g: int):
    """Decompose a circular empty-spot pattern into (gap sizes, block sizes).

    ``mask`` has bit i set when 0-based spot i is empty.  Reading starts at
    the anchor: the smallest-indexed occupied spot that immediately follows
    an empty one.  Blocks pair each filled run with the gap after it; every
    block length must be divisible by ``g`` (rows of g spots), otherwise
    :class:`NotBlockAligned` is raised.

    Returns ``(lam, mu, anchor)`` with ``lam`` the gap sizes, ``mu`` the
    block lengths divided by g, and ``anchor`` the 0-based start spot.
    """
    if mask == 0:
        raise NotBlockAligned("no empty spots: nothing to decompose")
    if mask == (1 << length) - 1:  # no cars at all: one all-empty block
        if length % g:
            raise NotBlockAligned(f"empty circle of length {length} with row size {g}")
        return (length,), (length // g,), 0
    anchor = -1
    for b in range(length):
        if not (mask >> b) & 1 and (mask >> ((b - 1) % length)) & 1:
            anchor = b
            break
    # Both empty and occupied spots exist, so the anchor does too and every
    # run below terminates at a spot of the opposite kind.
    if anchor % g:
        raise NotBlockAligned(
            f"gap ends at spot {anchor} (0-based), not before a row start"
        )
    lam = []
    mu = []
    t = anchor
    consumed = 0
    while consumed < length:
        filled = 0
        while not (mask >> t) & 1:
            filled += 1
            t = (t + 1) % length
        gap = 0
        while (mask >> t) & 1:
            gap += 1
            t = (t + 1) % length
        block = filled + gap
        if block % g:
            raise NotBlockAligned(
                f"block of length {block} not divisible by row size {g}"
            )
        lam.append(gap)
        mu.append(block // g)
        consumed += block
    return tuple(lam), tuple(mu), anchor


def canonical_class(lam: tuple, mu: tuple) -> tuple:
    """Lexicographically minimal cyclic rotation of the paired sequence."""
    pairs = tuple(zip(lam, mu))
    n = len(pairs)
    best = min(pairs[r:] + pairs[:r] for r in range(n))
    return tuple(p[0] for p in best), tuple(p[1] for p in best)


def modular_census(g: int, s: int, k: int) -> dict:
    """Classify all circular preference lists by their gap decomposition.

    Simulates one sorted list per orbit of ``g*s - k`` cars on a circular
    street of ``g*s`` spots, preferences limited to the first spot of each
    row, and tallies the orbit sizes by the resulting (gap sizes, block
    sizes) class, canonicalized up to cyclic rotation.  Returns
    ``{(lam, mu): count}``; the counts sum to s**(g*s - k).
    """
    length = g * s
    spots = tuple(d * g for d in range(s))
    census: dict = {}
    for counts, size in _orbits(length - k, spots, (0,) * s):
        occ = bytearray(length)
        for p, c in zip(spots, counts):
            for _ in range(c):
                t = p
                while occ[t]:
                    t = (t + 1) % length
                occ[t] = 1
        mask = sum(1 << i for i, taken in enumerate(occ) if not taken)
        lam, mu, _ = class_from_mask(mask, length, g)
        key = canonical_class(lam, mu)
        census[key] = census.get(key, 0) + size
    return census
