"""Exception types raised by the library."""


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
