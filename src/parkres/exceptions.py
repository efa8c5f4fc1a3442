"""Exception types raised by the library, and the argument checks that
raise :class:`DomainError`, each rule written once for every module.
Arguments are integers only: a float, even a whole one, or any other
non-integer raises :class:`DomainError`, as does an integer out of range.
A count request's restriction object is read here alone, so its closed
forms and its oracle count the same request."""

from operator import index


class ParkresError(Exception):
    """Base class for all library errors."""


class DomainError(ParkresError, ValueError):
    """Arguments lie outside an operation's domain."""


class PreferenceOutOfRange(ParkresError, ValueError):
    """A preference points at a spot outside the street."""


class NotAParkingFunction(ParkresError, ValueError):
    """An operation requiring every car to park was given a list that strands cars."""


class EmptyRestriction(DomainError):
    """An enumeration over an empty set of allowed preferences was requested."""


class MissingOne(DomainError):
    """The restriction set must contain spot 1 for this operation."""


class NotPrime(ParkresError, ValueError):
    """The list does not satisfy the strict occupancy condition."""


class NotRestricted(ParkresError, ValueError):
    """The list is not a parking function with preferences in the given set."""


class ImageContainsLastSpot(ParkresError, ValueError):
    """A supposedly prime list prefers the last spot, which is impossible."""


class NotInShiftedSet(ParkresError, ValueError):
    """The list is not a parking function over the shifted restriction set."""


class InvalidColoring(ParkresError, ValueError):
    """A two-colored list violates the indigo/red structure invariants."""


class BadModularPreference(ParkresError, ValueError):
    """A circular-street preference is not the first spot of a row."""


class NotBlockAligned(ParkresError):
    """A circular occupancy with a car after an empty spot of its row, so
    that a gap ends inside a row; this indicates a simulation bug, it
    cannot happen for states produced by the circular parking procedure."""


class NonIntegerIntermediate(ParkresError):
    """An exact rational computation that must produce an integer did not;
    indicates an implementation bug."""


class BudgetExceeded(ParkresError):
    """An exhaustive verification would enumerate more lists than allowed."""


def _ints(*values) -> tuple:
    """The arguments as Python ints; a float, even a whole one, or any
    other non-integer raises :class:`DomainError`."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise DomainError(f"need integer arguments, got {values!r}") from None


def _tuple(values) -> tuple:
    """``values`` as a tuple; a non-iterable raises :class:`DomainError`."""
    try:
        return tuple(values)
    except TypeError:
        raise DomainError(f"need an iterable, got {values!r}") from None


def _rationals(*values) -> tuple:
    """The arguments as Fractions; anything but an int or a Fraction raises :class:`DomainError`."""
    from fractions import Fraction  # only here, to keep it out of every CLI start

    if not all(isinstance(value, (int, Fraction)) for value in values):
        raise DomainError(f"need int or Fraction arguments, got {values!r}")
    return tuple(map(Fraction, values))


def _int_tuple(values) -> tuple:
    """The entries of the iterable ``values`` as :func:`_ints`; a
    non-iterable raises :class:`DomainError` too."""
    return _ints(*_tuple(values))


def _check_n(n: int) -> int:
    """``n`` as an int, at least 1."""
    (n,) = _ints(n)
    if n < 1:
        raise DomainError(f"need n >= 1, got n={n}")
    return n


def _check_ns(n: int, s: int, strict: bool = False) -> tuple:
    """(n, s) as ints with 1 <= s <= n (s < n when ``strict``)."""
    n, s = _ints(n, s)
    if not 1 <= s <= n - strict:
        raise DomainError(f"need 1 <= s {'<' if strict else '<='} n, got s={s}, n={n}")
    return n, s


def _check_gsk(g: int, s: int, k: int, strict: bool = False) -> tuple:
    """(g, s, k) as ints, with g, s >= 1 and 1 <= k <= g*s (k < g*s when
    ``strict``: at least one car)."""
    g, s, k = _ints(g, s, k)
    if g < 1 or s < 1 or not 1 <= k <= g * s - strict:
        bound = "<" if strict else "<="
        raise DomainError(f"need g, s >= 1 and 1 <= k {bound} g*s, got g={g}, s={s}, k={k}")
    return g, s, k


def _check_budget(budget):
    """Refuse a bound on brute-force work that is not an int or a float >= 0 (NaN is not)."""
    if not isinstance(budget, (int, float)) or not budget >= 0:
        raise DomainError(f"need a number >= 0 for the budget, got {budget!r}")


def _check_permutation(sigma) -> tuple:
    """``sigma`` as a tuple of ints, a permutation of 1..len(sigma)."""
    sigma = _int_tuple(sigma)
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise DomainError(f"{sigma} is not a permutation of 1..{n}")
    return sigma


def _check_restriction(n: int, allowed) -> tuple:
    """``n`` and the sorted, distinct allowed spots, as ints.

    n must be at least 0 and, when cars are present, every spot must lie
    inside [1, n].
    """
    try:
        n = index(n)
        elems = tuple(sorted(set(map(index, allowed))))
    except TypeError:
        raise DomainError(f"need integer arguments, got n={n!r}, allowed={allowed!r}") from None
    if n < 0:
        raise DomainError(f"need n >= 0, got n={n}")
    if n and elems and not (1 <= elems[0] and elems[-1] <= n):
        raise DomainError(f"restriction {elems} not contained in 1..{n}")
    return n, elems


def _check_spots(n: int, allowed) -> tuple:
    """:func:`_check_restriction`; cars with no spot raise :class:`EmptyRestriction`."""
    n, elems = _check_restriction(n, allowed)
    if n and not elems:
        raise EmptyRestriction("no allowed preferences with cars present")
    return n, elems


def _check_request(restriction: dict, n: int) -> tuple:
    """``(kind, n, values)`` for the restriction object of a count request
    on n cars, as ``count --format json`` reports it, reading only the
    keys of its kind: ``(s,)`` for a segment, the elements of a set, and
    ``(g, s, k)`` for a modular one, whose n must be g*s - k.  Any other
    kind, a missing key, or a restriction that is not a dict raises
    :class:`DomainError`; the oracles check the spots against n."""
    if not isinstance(restriction, dict):
        raise DomainError(f"a restriction is a dict, got {restriction!r}")
    kind = restriction.get("kind")
    try:
        if kind == "segment":
            values = _ints(restriction["s"])
        elif kind == "set":
            values = _int_tuple(restriction["elements"])
        elif kind == "modular":
            values = _check_gsk(restriction["g"], restriction["s"], restriction["k"])
        else:
            raise DomainError(f"restriction kind must be segment, set or modular, got {kind!r}")
    except KeyError as key:
        raise DomainError(f"{kind} restriction needs the key {key}") from None
    (n,) = _ints(n)
    if kind == "modular" and n != values[0] * values[1] - values[2]:
        raise DomainError(f"modular (g, s, k) = {values} has g*s - k cars, got n={n}")
    return kind, n, values
