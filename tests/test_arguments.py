"""Every public function of the library, called with one argument
replaced by a malformed value, returns or raises a ParkresError; a
``verify`` entry never returns a failing or vacuous check for one."""

import inspect
from collections.abc import Iterator
from itertools import islice

import pytest

from parkres import bijections, brute, circular, core, formulas, verify
from parkres.exceptions import ParkresError

MODULES = (core, brute, formulas, bijections, circular, verify)
MALFORMED = (None, "x", 2.5, -1, 0, [1, "a"])
COLORED = bijections.ColoredPF.from_indigo_cars((1, 3, 2, 2, 4), (1, 3, 4), s=2)
STATE = circular.circular_park((1, 3), 2, 2)

# Well-formed arguments of each public function, defaults included, so
# that every argument is swept; each call runs in milliseconds.
CALLS = {
    core.validate_prefs: ((1, 2), 2),
    core.park: ((1, 1), 2),
    core.defect: ((1, 1), 2),
    core.is_parking_function: ((1, 1),),
    core.catalan_check: ((1, 1),),
    core.nondecreasing: ((2, 1),),
    core.is_prime: ((1, 1),),
    core.is_u_parking: ((2, 1), (1, 2)),
    core.outcome_permutation: ((2, 1),),
    brute.restriction_spots: ({"kind": "segment", "s": 2}, 3),
    brute.walk_steps: (3, (1, 2)),
    brute.enum_restricted: (3, (1, 2)),
    brute.enum_prime_restricted: (3, (1, 2)),
    brute.count_restricted: (3, (1, 2)),
    brute.count_prime_restricted: (3, (1, 2)),
    brute.count_nondecreasing_restricted: (3, 2),
    brute.orbit_steps: (3, 2),
    brute.ones_distribution: (3, 2),
    brute.fiber_size_bruteforce: ((2, 1, 3), 2),
    brute.count_min_defect: (3, 2),
    formulas.pf_total: (3,),
    formulas.ppf_total: (3,),
    formulas.restricted_subtractive: (3, 2),
    formulas.restricted_alternating: (3, 2),
    formulas.prime_subtractive: (3, 2),
    formulas.prime_alternating: (3, 2),
    formulas.catalan_triangle: (3, 1),
    formulas.catalan_number: (3,),
    formulas.ones_poly_total: (3,),
    formulas.ones_poly_subtractive: (3, 2),
    formulas.ones_poly_alternating: (3, 2),
    formulas.routes: ("pf", {"kind": "segment", "s": 2}, 3, 100),
    formulas.abel_check: (3, 1, 2),
    formulas.max_run_length: ((2, 1, 3), 2),
    formulas.fiber_size_formula: ((2, 1, 3), 2),
    formulas.mod_count_k1: (2, 2),
    formulas.mod_count: (2, 2, 1),
    bijections.shift_restriction: ((1, 2), 3),
    bijections.prime_to_restricted: ((1, 1, 2), (1, 2)),
    bijections.restricted_to_prime: ((1, 1, 3), (1, 2)),
    bijections.u_vector: ((1, 3), 3),
    bijections.to_u_parking: ((1, 3, 1), (1, 3)),
    bijections.involution: (COLORED,),
    circular.preferred_spots: (2, 2),
    circular.circular_park: ((1, 3), 2, 2),
    circular.decompose: (STATE,),
    circular.linearize: (STATE,),
    circular.canonical_class: ((1, 2), (2, 1)),
    circular.modular_census: (2, 2, 1),
    circular.compositions: (4, 2),
    circular.multinomial: (3, (1, 2)),
    circular.verify_relation: (2, 2, 1, 100),
    verify.check_closed_forms: ("pf", 2),
    verify.check_families: ("orbits", 2),
    verify.check_abel: (1,),
    verify.check_fibers: (2,),
    verify.check_bijections: (2,),
    verify.iter_colorings: (3, 2, False),
    verify.check_involution: (2,),
    verify.check_modular: (1, 1),
    verify.suite_names: (),
    verify.run_suite: ("orbits", 2, None),
}


def _public(module):
    return [
        f for name, f in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(f) and f.__module__ == module.__name__
    ]


def _run(call, args):
    """The result of ``call(*args)``, with a stream drawn (up to 1000
    items) and each route of a route table called, so that a fault raised
    late still shows."""
    result = call(*args)
    if call is formulas.routes:
        return {method: route() for method, route in result.items()}
    if isinstance(result, Iterator):
        return list(islice(result, 1000))
    return result


def test_every_public_function_is_swept():
    # bijections.is_u_parking is core's, swept there
    assert {f for module in MODULES for f in _public(module)} == set(CALLS)


@pytest.mark.parametrize("call", list(CALLS), ids=lambda f: f"{f.__module__}.{f.__name__}")
def test_malformed_arguments_return_or_raise_a_library_error(call):
    args = CALLS[call]
    assert len(args) == len(inspect.signature(call).parameters)
    _run(call, args)  # the well-formed call runs
    for position in range(len(args)):
        for value in MALFORMED:
            swept = args[:position] + (value,) + args[position + 1:]
            try:
                result = _run(call, swept)
            except ParkresError:
                continue
            except Exception as err:
                pytest.fail(f"{swept} raised {type(err).__name__}: {err}")
            if call.__module__ == verify.__name__ and isinstance(result, list):
                # no failing or vacuous check stands for a refused argument
                bad = [c for c in result if isinstance(c, verify.Check) and not (c.ok and c.cases)]
                assert not bad, (swept, bad)
