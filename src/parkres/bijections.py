"""Executable bijections between restricted parking-function families.

Three constructions live here:

* the preference-shift pair taking prime parking functions with
  preferences in a set S to ordinary parking functions over a shifted set,
  and back;
* the order-preserving relabelling onto vector ("u-") parking functions;
* the sign-reversing involution on two-colored parking functions that
  cancels everything except the restricted lists.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from . import core
from .exceptions import (
    DomainError,
    ImageContainsLastSpot,
    InvalidColoring,
    MissingOne,
    NotInShiftedSet,
    NotPrime,
    NotRestricted,
    PreferenceOutOfRange,
    _check_restriction,
    _ints,
)


def shift_restriction(allowed: Iterable[int], n: int) -> tuple:
    """The preference set {1} + {i+1 : i in allowed, 1 < i < n}.

    Prime parking functions with preferences in ``allowed`` correspond to
    ordinary parking functions over this set, via the shift map below.
    Requires 1 in ``allowed``.
    """
    elems = _check_restriction(n, allowed)[1]
    if 1 not in elems:
        raise MissingOne(f"restriction {elems} must contain spot 1")
    shifted = {1} | {i + 1 for i in elems if 1 < i < n}
    return tuple(sorted(shifted))


def prime_to_restricted(prefs: Sequence[int], allowed: Iterable[int]) -> tuple:
    """Push a prime parking function with preferences in ``allowed``
    forward along the shift map (1 stays 1, anything else moves up one).

    The result is a parking function over ``shift_restriction(allowed, n)``.
    """
    n = len(prefs)
    elems = set(_check_restriction(n, allowed)[1])
    if any(p not in elems for p in prefs):
        raise NotRestricted(f"{tuple(prefs)} has preferences outside {sorted(elems)}")
    if not core.is_prime(prefs):
        raise NotPrime(f"{tuple(prefs)} fails the strict occupancy condition")
    if n > 1 and n in prefs:
        # unreachable for prime lists (spot 1 is preferred twice over);
        # checked anyway, so that a wrong prime test raises instead of
        # returning a list outside the shifted set
        raise ImageContainsLastSpot(f"prime list {tuple(prefs)} prefers spot {n}")
    return tuple(1 if p == 1 else p + 1 for p in prefs)


def restricted_to_prime(prefs: Sequence[int], allowed: Iterable[int]) -> tuple:
    """Inverse of :func:`prime_to_restricted`: pull a parking function over
    the shifted set back to a prime parking function over ``allowed``."""
    n = len(prefs)
    shifted = set(shift_restriction(allowed, n))
    if any(p not in shifted for p in prefs):
        raise NotInShiftedSet(
            f"{tuple(prefs)} has preferences outside {sorted(shifted)}"
        )
    if not core.is_parking_function(prefs):
        raise NotInShiftedSet(f"{tuple(prefs)} is not a parking function")
    return tuple(1 if p == 1 else p - 1 for p in prefs)


def u_vector(allowed: Iterable[int], n: int) -> tuple:
    """The non-decreasing bound vector u with u_i = |allowed ∩ [i]|."""
    elems = _check_restriction(n, allowed)[1]
    out = []
    count = 0
    idx = 0
    for i in range(1, n + 1):
        while idx < len(elems) and elems[idx] <= i:
            count += 1
            idx += 1
        out.append(count)
    return tuple(out)


def is_u_parking(prefs: Sequence[int], u: Sequence[int]) -> bool:
    """True iff the i-th smallest preference is at most u_i for all i; the
    entries of both are integers, and the preferences at least 1."""
    prefs, u = _ints(*prefs), _ints(*u)
    if len(prefs) != len(u):
        raise DomainError("preference list and bound vector differ in length")
    if min(prefs, default=1) < 1:
        raise PreferenceOutOfRange(f"preference {min(prefs)} in {prefs} is below spot 1")
    return all(p <= b for p, b in zip(sorted(prefs), u))


def to_u_parking(prefs: Sequence[int], allowed: Iterable[int]) -> tuple:
    """Relabel a parking function over ``allowed`` by the rank of each
    preference in ``allowed``.

    This is a bijection onto the u-parking functions for the bounds of
    :func:`u_vector`: relabelling is order-preserving, so the sorted-entry
    bounds translate exactly.
    """
    n = len(prefs)
    elems = _check_restriction(n, allowed)[1]
    rank = {v: r for r, v in enumerate(elems, 1)}
    if any(p not in rank for p in prefs):
        raise NotRestricted(f"{tuple(prefs)} has preferences outside {elems}")
    if not core.is_parking_function(prefs):
        raise NotRestricted(f"{tuple(prefs)} is not a parking function")
    return tuple(rank[p] for p in prefs)


class Color(Enum):
    INDIGO = "indigo"
    RED = "red"

    def flipped(self) -> "Color":
        return Color.RED if self is Color.INDIGO else Color.INDIGO


class _FixedPoint:
    def __repr__(self):
        return "FIXED_POINT"


#: Returned by :func:`involution` when the coloring cannot be recolored,
#: i.e. every preference already lies inside [s].
FIXED_POINT = _FixedPoint()


class _ColoredFields(NamedTuple):
    prefs: tuple
    colors: tuple
    s: int
    prime: bool = False


class ColoredPF(_ColoredFields):
    """A parking function with cars colored indigo or red.

    With i indigo cars, the indigo subsequence must itself be a parking
    function on i spots and every red preference must lie in the forbidden
    range above ``s`` (up to i+1, or up to i for the prime variant, whose
    indigo subsequence must be prime).  Such a list is automatically a
    parking function; these objects carry the signed count that the
    recoloring involution collapses onto the [s]-restricted lists.

    Every construction validates, :meth:`_make` and :meth:`_replace`
    included, and raises :class:`InvalidColoring` on a bad coloring.
    """

    __slots__ = ()

    def __new__(cls, prefs, colors, s, prime=False):
        prefs = tuple(prefs)
        colors = tuple(colors)
        if len(prefs) != len(colors):
            raise InvalidColoring("one color per car required")
        indigo = []
        red = []
        for p, c in zip(prefs, colors):
            if c is Color.INDIGO:
                indigo.append(p)
            elif c is Color.RED:
                red.append(p)
            else:
                raise InvalidColoring("colors must be Color.INDIGO or Color.RED")
        if s < 1:
            raise InvalidColoring(f"need s >= 1, got {s}")
        i = len(indigo)
        if i < s:
            raise InvalidColoring(f"{i} indigo cars, need at least s={s}")
        indigo = tuple(indigo)
        if any(not 1 <= p <= i for p in indigo):
            raise InvalidColoring(f"indigo preferences {indigo} not within 1..{i}")
        if prime:
            if not core.is_prime(indigo):
                raise InvalidColoring(f"indigo subsequence {indigo} is not prime")
            hi = i
        else:
            if not core.catalan_check(indigo):
                raise InvalidColoring(
                    f"indigo subsequence {indigo} is not a parking function"
                )
            hi = i + 1
        for p in red:
            if not s < p <= hi:
                raise InvalidColoring(f"red preference {p} outside {s + 1}..{hi}")
        return super().__new__(cls, prefs, colors, s, prime)

    @classmethod
    def _make(cls, iterable) -> "ColoredPF":
        return cls(*iterable)

    @property
    def indigo_count(self) -> int:
        return sum(1 for c in self.colors if c is Color.INDIGO)

    @property
    def red_count(self) -> int:
        return len(self.colors) - self.indigo_count

    @property
    def indigo_prefs(self) -> tuple:
        return tuple(
            p for p, c in zip(self.prefs, self.colors) if c is Color.INDIGO
        )

    @property
    def red_prefs(self) -> tuple:
        return tuple(p for p, c in zip(self.prefs, self.colors) if c is Color.RED)

    @property
    def sign(self) -> int:
        """(-1) to the number of red cars."""
        return -1 if self.red_count % 2 else 1

    def with_flipped(self, car: int) -> "ColoredPF":
        """Copy with the 1-based ``car``'s color flipped (revalidates)."""
        colors = list(self.colors)
        colors[car - 1] = colors[car - 1].flipped()
        return ColoredPF(self.prefs, tuple(colors), self.s, self.prime)

    @classmethod
    def from_indigo_cars(cls, prefs, indigo_cars, s, prime=False) -> "ColoredPF":
        """Build from the set of 1-based indigo car indices."""
        indigo = set(indigo_cars)
        colors = tuple(
            Color.INDIGO if car in indigo else Color.RED
            for car in range(1, len(tuple(prefs)) + 1)
        )
        return cls(tuple(prefs), colors, s, prime)


def involution(colored: ColoredPF):
    """Flip the color of the first car preferring the maximal spot.

    Applying it twice restores the input and each application flips the
    parity of the red count, so the signed count over all valid colorings
    collapses onto the fixed points: the all-indigo colorings whose
    preferences already sit inside [s].  For those, :data:`FIXED_POINT`
    is returned.
    """
    m = max(colored.prefs)
    if m <= colored.s:
        return FIXED_POINT
    car = colored.prefs.index(m) + 1
    return colored.with_flipped(car)
