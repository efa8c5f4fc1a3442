"""Exact combinatorics of preference-restricted parking functions.

A parking function sends n cars down a one-way street of n spots; this
package works with the restricted variant where every preference must lie
in a prescribed set of spots.  It provides the parking procedure itself,
brute-force enumeration oracles, exact closed-form counts and recurrences,
executable bijections (including a sign-reversing involution on 2-colored
lists), circular-street machinery, and a CLI that cross-checks every
formula against enumeration.

Names resolve on first access: ``import parkres`` loads no submodule, and
reading ``parkres.park`` (or ``parkres.core``) imports :mod:`parkres.core`
then.  Each CLI call is a fresh process, so it pays only for the modules
its subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule and the public names it gives the package namespace.
_EXPORTS = {
    "bijections": (
        "FIXED_POINT", "Color", "ColoredPF", "involution", "is_u_parking",
        "prime_to_restricted", "restricted_to_prime", "shift_restriction",
        "to_u_parking", "u_vector",
    ),
    "brute": (
        "count_min_defect", "count_nondecreasing_restricted", "count_prime_restricted",
        "count_restricted", "enum_prime_restricted", "enum_restricted",
        "fiber_size_bruteforce", "ones_distribution",
    ),
    "circular": (
        "CircularState", "Decomposition", "RelationReport", "circular_park",
        "compositions", "decompose", "linearize", "multinomial", "preferred_spots",
        "verify_relation",
    ),
    "core": (
        "EMPTY", "ParkingResult", "catalan_check", "defect", "is_parking_function",
        "is_prime", "nondecreasing", "outcome_permutation", "park",
    ),
    "formulas": (
        "AbelCheck", "abel_check", "catalan_number", "catalan_triangle",
        "fiber_size_formula", "max_run_length", "mod_count", "mod_count_k1",
        "ones_poly_alternating", "ones_poly_subtractive", "ones_poly_total", "pf_total",
        "ppf_total", "prime_alternating", "prime_subtractive", "restricted_alternating",
        "restricted_subtractive", "routes",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
