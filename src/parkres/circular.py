"""Circular streets with row-restricted preferences.

A circular street of g*s spots is organized into s rows of g spots; cars
may only prefer the first spot of a row (spots 1, g+1, ..., g(s-1)+1) and
roll clockwise, wrapping around, until they find an empty spot.  With at
most as many cars as spots everyone parks, and the empty spots always end
immediately before a row start, so the occupancy decomposes into blocks of
whole rows.  A row that only its first spot feeds behaves like one spot
holding g cars, so :func:`modular_census` parks one sorted list per
orbit a row at a time.  All rows are alike, so rotating a list's row
counts rotates its fill; the census parks one list per rotation class
and weights it by the class size, and so classifies every preference
list by that decomposition.  The tally yields the counting relation
checked by :func:`verify_relation`.
"""

from __future__ import annotations

from math import comb, factorial
from operator import add
from typing import Iterator, NamedTuple, Sequence

from .brute import count_restricted
from .exceptions import (
    BadModularPreference,
    BudgetExceeded,
    DomainError,
    NonIntegerIntermediate,
    NotBlockAligned,
    _check_gsk,
    _int_tuple,
    _ints,
)


def preferred_spots(g: int, s: int) -> tuple:
    """The s row-start spots 1, g+1, ..., g(s-1)+1."""
    g, s = _ints(g, s)
    if g < 1 or s < 1:
        raise DomainError(f"need g, s >= 1, got g={g}, s={s}")
    return tuple(1 + j * g for j in range(s))


class CircularState(NamedTuple):
    """Occupancy of a circular street after all cars have parked."""

    g: int
    s: int
    prefs: tuple
    occupancy: tuple  # spot -> 1-based car index or None, length g*s

    @property
    def spots(self) -> int:
        return self.g * self.s

    @property
    def empty_spots(self) -> tuple:
        """1-based indices of the unoccupied spots."""
        return tuple(i + 1 for i, car in enumerate(self.occupancy) if car is None)

    @property
    def empty_count(self) -> int:
        return len(self.empty_spots)


def circular_park(prefs: Sequence[int], g: int, s: int) -> CircularState:
    """Park ``prefs`` on the circular street; every car parks."""
    spots = set(preferred_spots(g, s))
    (g, s), prefs = _ints(g, s), _int_tuple(prefs)
    length = g * s
    if len(prefs) > length:
        raise DomainError(f"{len(prefs)} cars exceed {length} spots")
    for car, p in enumerate(prefs, 1):
        if p not in spots:
            raise BadModularPreference(
                f"car {car} prefers spot {p}, not a row start of g={g}, s={s}"
            )
    occupancy = [None] * length
    for car, p in enumerate(prefs, 1):
        t = p - 1
        while occupancy[t] is not None:
            t = (t + 1) % length
        occupancy[t] = car
    return CircularState(g, s, prefs, tuple(occupancy))


class Decomposition(NamedTuple):
    lam: tuple  # gap sizes in cyclic order from the anchor
    mu: tuple   # row counts of the (filled run + gap) blocks
    anchor: int  # 1-based spot where the first block starts


def _blocks(fill: tuple, g: int) -> tuple:
    """``(lam, mu, anchor)`` of a street whose row r holds ``fill[r]``
    cars from its first spot on.

    A block starts at a row that holds a car after a row with an empty
    spot; the anchor is the first such row, 0-based, and each block runs
    to the next start, wrapping around.  ``lam`` holds each block's empty
    spots and ``mu`` its rows.  A street with no cars is one block.
    """
    s = len(fill)
    for anchor in range(s):
        if fill[anchor] and fill[anchor - 1] < g:
            break
    else:
        return (g * s,), (s,), 0
    lam, mu = [], []
    gap = rows = 0
    before = g  # so that the anchor row closes no block
    for cars in fill[anchor:] + fill[:anchor]:
        if cars and before < g:
            lam.append(gap)
            mu.append(rows)
            gap = rows = 0
        gap += g - cars
        rows += 1
        before = cars
    lam.append(gap)
    mu.append(rows)
    return tuple(lam), tuple(mu), anchor


def decompose(state: CircularState) -> Decomposition:
    """Split the circle into (filled run, gap) blocks.

    Blocks are read clockwise from the anchor: the smallest-indexed
    occupied spot directly following a gap.  Gap sizes sum to the number
    of empty spots, block row counts sum to s.  Requires at least one
    empty spot.  Every row must fill from its first spot, as the parking
    procedure fills it; a row with a car after an empty spot raises
    :class:`NotBlockAligned`.
    """
    if state.empty_count == 0:
        raise DomainError("no empty spots: nothing to decompose")
    g = state.g
    fill = []
    for start in range(0, state.spots, g):
        row = state.occupancy[start : start + g]
        cars = g - row.count(None)
        if None in row[:cars]:
            raise NotBlockAligned(f"row from spot {start + 1} holds a car after an empty spot")
        fill.append(cars)
    lam, mu, anchor = _blocks(tuple(fill), g)
    return Decomposition(lam, mu, anchor * g + 1)


def linearize(state: CircularState):
    """Cut the circle into a straight street, if the gap allows it.

    When the empty spots form one contiguous run, rotating the street so
    that run sits at the end turns the preferences into a parking function
    of length spots - gap over the row starts; the rotated list is
    returned.  With several gaps (or none) there is no such cut and None
    is returned.  A street with no cars linearizes to the empty list.
    """
    if not state.prefs:
        return ()
    if state.empty_count == 0:
        return None
    parts = decompose(state)
    if len(parts.lam) != 1:
        return None
    anchor = parts.anchor
    length = state.spots
    return tuple((p - anchor) % length + 1 for p in state.prefs)


class ClassRow(NamedTuple):
    """Observed vs. expected tally for one decomposition class."""

    lam: tuple
    mu: tuple
    observed: int
    expected: int

    @property
    def ok(self) -> bool:
        return self.observed == self.expected


class RelationReport(NamedTuple):
    """Per-class verification of the circular counting relation."""

    g: int
    s: int
    k: int
    total: int  # s**(g*s - k), the number of classified lists
    rows: tuple = ()

    @property
    def ok(self) -> bool:
        return (
            all(row.ok for row in self.rows)
            and sum(row.observed for row in self.rows) == self.total
            and sum(row.expected for row in self.rows) == self.total
        )


def canonical_class(lam: tuple, mu: tuple) -> tuple:
    """Lexicographically minimal cyclic rotation of the paired sequence."""
    pairs = tuple(zip(lam, mu))
    n = len(pairs)
    best = min(pairs[r:] + pairs[:r] for r in range(n))
    return tuple(p[0] for p in best), tuple(p[1] for p in best)


def _binomial_rows(n: int) -> list:
    """Rows 0..n of Pascal's triangle: ``rows[r][c]`` is C(r, c)."""
    rows = [[1]]
    for _ in range(n):
        row = rows[-1]
        rows.append([1, *map(add, row, row[1:]), 1])
    return rows


def _necklace_counts(m: int, s: int) -> Iterator[tuple]:
    """Yield ``(counts, weight)`` for each rotation class of the ways to
    put m cars into s rows.

    ``counts`` is the class's lexicographically largest rotation, so its
    first count c_0 is its largest: the walk cuts every branch in which a
    later count exceeds c_0 (or the rows left cannot hold the cars left
    at c_0 each), and a leaf is compared only with the rotations that
    start at another count equal to c_0.  ``weight`` is the period (the
    number of distinct rotations) times the orbit size m!/prod(c_r!), so
    the weights sum to s**m.  The orbit size is carried down the walk as
    a product of binomials C(rest, c_r).
    """
    if s == 1:
        yield (m,), 1
        return
    rows = _binomial_rows(m)
    if s == 2:
        for top in range(-(-m // 2), m + 1):
            counts = (top, m - top)
            yield counts, _largest_period(counts, top) * rows[m][top]
        return
    counts = [0] * s
    for top in range(-(-m // s), m + 1):
        counts[0] = top
        yield from _necklace_walk(s, top, rows, counts, 1, m - top, rows[m][top])


def _necklace_walk(s, top, rows, counts, j, rest, size):
    # counts[:j] are chosen with none above counts[0] = top, ``rest`` cars
    # are left and ``size`` counts their orders so far; the last row takes
    # what is left
    row = rows[rest]
    low = max(0, rest - top * (s - j - 1))
    high = min(top, rest)
    if j + 2 < s:
        for c in range(low, high + 1):
            counts[j] = c
            yield from _necklace_walk(s, top, rows, counts, j + 1, rest - c, size * row[c])
        return
    for c in range(low, high + 1):
        counts[j] = c
        counts[j + 1] = rest - c
        t = tuple(counts)
        period = s if t.count(top) == 1 else _largest_period(t, top)
        if period:
            yield t, period * size * row[c]


def _largest_period(counts: tuple, top: int) -> int:
    """The period of ``counts`` if no rotation of it is larger, else 0.

    Only a rotation that starts at another count equal to the first,
    ``top``, can be as large; the first of them that is at least
    ``counts`` decides.
    """
    for r in range(1, len(counts)):
        if counts[r] == top:
            turned = counts[r:] + counts[:r]
            if turned >= counts:
                return r if turned == counts else 0
    return len(counts)


def modular_census(g: int, s: int, k: int) -> dict:
    """Classify all circular preference lists by their gap decomposition.

    Parks one sorted list of ``g*s - k`` cars on a circular street of
    ``g*s`` spots, preferences limited to the first spot of each row, for
    each rotation class of row counts, a row at a time: a row fills from
    its first spot, so it holds min(g, its own cars plus the overflow of
    the row before) and passes the rest on.  With fewer cars than spots
    some row overflows nothing, so one lap from no overflow settles what
    wraps into row 0 and a second lap gives every row's fill.  Which
    spots stay empty does not depend on the order the cars arrive in, so
    the sorted list stands for its whole orbit; and since all rows are
    alike, rotating the row counts rotates the fill and keeps its class,
    so one count vector (the largest rotation, from
    :func:`_necklace_counts`) stands for all its rotations, weighted by
    their number times the orbit size.  That visits about 1/s of the
    C(g*s-k+s-1, s-1) orbits.  The weights are tallied by fill, and each
    distinct fill is classified once by its (gap sizes, block sizes),
    read from the row fills by :func:`_blocks` and canonicalized up to
    cyclic rotation.  Returns ``{(lam, mu): count}``; the counts sum to
    s**(g*s - k).  Needs g, s >= 1 and 1 <= k <= g*s.
    """
    g, s, k = _check_gsk(g, s, k)
    fills: dict = {}
    for counts, weight in _necklace_counts(g * s - k, s):
        over = 0
        for c in counts:
            over = over + c - g if over + c > g else 0
        fill = []
        for c in counts:
            over += c
            if over > g:
                fill.append(g)
                over -= g
            else:
                fill.append(over)
                over = 0
        fill = tuple(fill)
        fills[fill] = fills.get(fill, 0) + weight
    census: dict = {}
    for fill, weight in fills.items():
        lam, mu, _ = _blocks(fill, g)
        key = canonical_class(lam, mu)
        census[key] = census.get(key, 0) + weight
    return census


def compositions(total: int, num_parts: int) -> Iterator[tuple]:
    """All compositions of ``total`` into exactly ``num_parts`` positive
    parts, in lexicographic order."""
    total, num_parts = _ints(total, num_parts)
    if num_parts < 1 or total < num_parts:
        raise DomainError(
            f"cannot compose {total} into {num_parts} positive parts"
        )
    return _compositions(total, (total,) * num_parts)


def _compositions(total: int, caps: tuple) -> Iterator[tuple]:
    """The compositions of ``total`` with part i in 1..caps[i], in
    lexicographic order.  Each part is kept within what the parts after it
    can take and leave, so every branch reaches a composition."""
    if len(caps) == 1:
        if 1 <= total <= caps[0]:
            yield (total,)
        return
    after = caps[1:]
    for first in range(max(1, total - sum(after)), min(caps[0], total - len(after)) + 1):
        for rest in _compositions(total - first, after):
            yield (first,) + rest


def multinomial(n: int, parts: Sequence[int]) -> int:
    """Number of ways to split n labelled items into blocks of the given
    sizes.  Parts must be nonnegative and sum to n."""
    (n,), parts = _ints(n), _int_tuple(parts)
    if any(p < 0 for p in parts):
        raise DomainError(f"negative part in {parts}")
    if sum(parts) != n:
        raise DomainError(f"parts {parts} do not sum to {n}")
    result = factorial(n)
    for p in parts:
        result //= factorial(p)
    return result


def _least_period(pairs: tuple) -> int:
    """The period of ``pairs`` if no rotation of it is smaller, else 0.

    Only a rotation that starts at a pair no larger than the first can be
    as small; the first of them that is at most ``pairs`` decides.
    """
    first = pairs[0]
    for r in range(1, len(pairs)):
        if pairs[r] <= first:
            turned = pairs[r:] + pairs[:r]
            if turned <= pairs:
                return r if turned == pairs else 0
    return len(pairs)


def verify_relation(g: int, s: int, k: int, budget: int = 10**7) -> RelationReport:
    """Exhaustively check the circular counting relation for (g, s, k).

    Every one of the s**(g*s-k) circular preference lists is classified by
    its gap decomposition (up to rotation).  ``budget`` bounds the number
    of orbits of the car-permuting action, C(g*s-k+s-1, s-1); the census
    parks one sorted list per rotation class of those orbits' row counts,
    about 1/s of them.  For each class the observed tally is compared
    with the predicted one,

        (p*s/n) * multinomial(g*s-k; g*mu - lam) * prod_i N(g*mu_i - lam_i),

    where p is the primitive period of the class (the number of distinct
    layouts is p*s/n) and the per-segment counts N come from the
    brute-force oracle, so the check is independent of the closed-form
    recursion.  For each composition mu of s, the walk visits only the
    gap compositions lam of k with 1 <= lam_i <= g*mu_i - 1 (every block
    keeps a car), so it reaches no pair that is not a class, and each
    class is computed once, from the pair (lam, mu) that is its least
    rotation.  Summed over classes this is exactly the relation.
    """
    g, s, k = _check_gsk(g, s, k, strict=True)
    m = g * s - k
    total = s**m
    orbits = comb(m + s - 1, s - 1)
    if orbits > budget:
        raise BudgetExceeded(f"{orbits} orbits exceed budget {budget}")
    observed = modular_census(g, s, k)

    spots = preferred_spots(g, s)
    segment_cache: dict = {}

    def segment_count(seg_len: int) -> int:
        cached = segment_cache.get(seg_len)
        if cached is None:
            allowed = tuple(v for v in spots if v <= seg_len)
            cached = count_restricted(seg_len, allowed)
            segment_cache[seg_len] = cached
        return cached

    expected: dict = {}
    for n in range(1, min(k, s) + 1):
        for mu in compositions(s, n):
            # a block of mu_i rows keeps at least one car, so its gap is
            # at most g*mu_i - 1
            for lam in _compositions(k, tuple(g * b - 1 for b in mu)):
                pairs = tuple(zip(lam, mu))
                p = _least_period(pairs)
                if not p:
                    continue  # each class once, from its least rotation
                layouts, rest = divmod(p * s, n)
                if rest:
                    raise NonIntegerIntermediate(f"non-integer layout count for class {(lam, mu)}")
                parts = tuple(g * b - a for a, b in pairs)
                value = layouts * multinomial(m, parts)
                for seg in parts:
                    value *= segment_count(seg)
                expected[lam, mu] = value

    keys = sorted(set(observed) | set(expected))
    rows = tuple(
        ClassRow(lam, mu, observed.get((lam, mu), 0), expected.get((lam, mu), 0))
        for lam, mu in keys
    )
    return RelationReport(g, s, k, total, rows)
