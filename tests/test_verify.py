"""Every verify check fails, and names the case, when one route is wrong at
a single input; the CLI reports such a failure with exit code 3."""

import ast
import json
import time
from itertools import combinations
from operator import sub
from pathlib import Path

import pytest

from parkres import bijections, brute, circular, formulas, verify
from parkres.bijections import FIXED_POINT, Color
from parkres.cli import main
from parkres.exceptions import DomainError, NonIntegerIntermediate


# Each skew gets the route's value and the arguments it was called with.
def _plus_one(value, *args):
    return value + 1


def _bump_first(prefs, *args):
    return (prefs[0] + 1,) + tuple(prefs[1:])


def _full_period(period, rotated, *args):
    # a census leaf or a relation class weighted by all its rotations even
    # when fewer are distinct
    return len(rotated) if period else period


def _gap_cap_one_higher(walk, total, caps):
    # the gaps walked up to g*mu_i rather than g*mu_i - 1, so a block of
    # mu_i rows may keep no car
    for cuts in combinations(range(1, total), len(caps) - 1):
        lam = tuple(map(sub, cuts + (total,), (0,) + cuts))
        if all(a <= c + 1 for a, c in zip(lam, caps)):
            yield lam


def _count_late(tally, *args):
    # the ones tally started at two cars preferring spot 1
    return (0,) + tally[1:]


def _drop_last_term(series, n, lo, hi, term):
    # a splitting's (P, Q, T) without its term i = hi, which entered T times P
    p, q, t = series
    return p, q, t - term(hi) * p


# The first coloring on 2 cars with s = 1 that the involution recolors.
RECOLORED = next(
    colored
    for colored in verify.iter_colorings(2, 1)
    if bijections.involution(colored) is not FIXED_POINT
)

# (module, route, the arguments it gets wrong, how it goes wrong, the check
#  that must catch it, the CLI argv that runs that check, the case's name);
# the route is wrong wherever its arguments start with the given ones
CASES = [
    (
        formulas, "restricted_subtractive", (4, 2), _plus_one,
        lambda: verify.check_closed_forms("pf", 4), ["formulas", "--n-max", "4"], "n=4, s=2",
    ),
    (
        formulas, "prime_subtractive", (4, 2), _plus_one,
        lambda: verify.check_closed_forms("ppf", 4), ["formulas", "--n-max", "4"], "n=4, s=2",
    ),
    # the subtractive forms' splitting without its last term, over the
    # nonzero terms i = 0..2 of (5, 4) and i = 1..3 of the prime form: ranges
    # that no larger s splits off, so (5, 4) is the last case they break
    (
        formulas, "_rising_binomial_series", (5, 0, 2), _drop_last_term,
        lambda: verify.check_closed_forms("pf", 5), ["formulas", "--n-max", "5"], "n=5, s=4",
    ),
    (
        formulas, "_rising_binomial_series", (5, 1, 3), _drop_last_term,
        lambda: verify.check_closed_forms("ppf", 5), ["formulas", "--n-max", "5"], "n=5, s=4",
    ),
    # the pf total is a third form at s = n, compared with the first; the
    # ppf total is the only form there, so brute force checks it
    (
        formulas, "pf_total", (7,), _plus_one,
        lambda: verify.check_closed_forms("pf", 7), ["formulas", "--n-max", "7"], "n=7, s=7",
    ),
    (
        formulas, "ppf_total", (2,), _plus_one,
        lambda: verify.check_closed_forms("ppf", 3), ["formulas", "--n-max", "3"], "n=2, s=2",
    ),
    (
        brute, "ones_distribution", (3, 2), _count_late,
        lambda: verify.check_closed_forms("ones", 3), ["formulas", "--n-max", "3"], "n=3, s=2",
    ),
    (
        brute, "count_min_defect", (4, 2), _plus_one,
        lambda: verify.check_closed_forms("defect", 4), ["formulas", "--n-max", "4"], "n=4, s=2",
    ),
    (
        formulas, "fiber_size_formula", ((2, 1, 3), 2), _plus_one,
        lambda: verify.check_fibers(3), ["fibers", "--n-max", "3"], "sigma=(2, 1, 3), s=2",
    ),
    (
        formulas, "catalan_triangle", (3, 1), _plus_one,
        lambda: verify.check_closed_forms("orbits", 3), ["orbits", "--n-max", "3"], "n=3, s=2",
    ),
    (
        formulas, "ones_poly_subtractive", (4, 2), _bump_first,
        lambda: verify.check_closed_forms("ones", 4), ["formulas", "--n-max", "4"], "n=4, s=2",
    ),
    # the ones total is the first form at s = n, and the pair is checked
    # against it
    (
        formulas, "ones_poly_total", (4,), _bump_first,
        lambda: verify.check_closed_forms("ones", 4), ["formulas", "--n-max", "4"], "n=4, s=4",
    ),
    (
        formulas, "mod_count", (2, 3, 1), _plus_one,
        lambda: verify.check_modular(1000), ["modular", "--budget", "1000"],
        "g=2, s=3, k=1",
    ),
    # the power s**(g*s - 2) is a second form at k = 1, against the recursion
    (
        formulas, "mod_count_k1", (2, 3), _plus_one,
        lambda: verify.check_modular(1000), ["modular", "--budget", "1000"],
        "g=2, s=3, k=1",
    ),
    # every periodic row-count vector of the census over-weighted; (2, 4, 4)
    # has (1, 1, 1, 1) of period 1 and (2, 0, 2, 0) of period 2
    (
        circular, "_largest_period", (), _full_period,
        lambda: verify.check_modular(20000), ["modular", "--budget", "2e4"],
        "g=2, s=4, k=4",
    ),
    # the relation's expected side over pairs that are no class: a gap of
    # g*mu_i leaves a block no car, as at lam = (1, 1), mu = (1, 2), g = 1
    (
        circular, "_compositions", (), _gap_cap_one_higher,
        lambda: verify.check_modular(20000), ["modular", "--budget", "2e4"],
        "g=1, s=3, k=2",
    ),
    # every periodic relation class over-weighted; (1, 4, 2) has the class
    # lam = (1, 1), mu = (2, 2) of period 1
    (
        circular, "_least_period", (), _full_period,
        lambda: verify.check_modular(20000), ["modular", "--budget", "2e4"],
        "g=1, s=4, k=2",
    ),
    (
        bijections, "involution", (RECOLORED,), lambda out, *args: FIXED_POINT,
        lambda: verify.check_involution(2), ["involution", "--n-max", "2"], "n=2, s=1",
    ),
    (
        bijections, "to_u_parking", ((1, 1), (1, 2)), _bump_first,
        lambda: verify.check_bijections(2), ["bijections", "--n-max", "2"], "n=2, S=(1, 2)",
    ),
    # the bumped image lies outside the shifted set, so the inverse raises
    (
        bijections, "prime_to_restricted", ((1, 1), (1, 2)), _bump_first,
        lambda: verify.check_bijections(2), ["bijections", "--n-max", "2"], "n=2, S=(1, 2)",
    ),
]


@pytest.mark.parametrize(
    "module, route, bad_args, skew, run_check, argv, case",
    CASES,
    ids=[f"{c[0].__name__.split('.')[-1]}.{c[1]}" for c in CASES],
)
def test_mismatch_fails_and_names_the_case(
    monkeypatch, capsys, module, route, bad_args, skew, run_check, argv, case
):
    real = getattr(module, route)

    def wrong_once(*args):
        value = real(*args)
        return skew(value, *args) if args[: len(bad_args)] == bad_args else value

    monkeypatch.setattr(module, route, wrong_once)

    failing = [c for c in run_check() if not c.ok]
    assert failing, f"no check noticed {route} off at {bad_args}"
    # a modular check covers one (g, s, k), which its name gives
    assert any(case in f"{c.name}: {c.detail}" for c in failing), failing

    code = main(["verify", *argv])
    out, err = capsys.readouterr()
    assert code == 3
    assert "Traceback" not in err
    assert "FAIL" in out and case in out


def _untimed(checks):
    return [check._replace(elapsed_s=None) for check in checks]


def test_modular_process_pool_matches_serial():
    serial = verify.check_modular(20000)
    assert serial and all(c.ok for c in serial)
    assert _untimed(verify.check_modular(20000, threads=2)) == _untimed(serial)


def test_check_time_covers_its_cases(monkeypatch):
    # every check computes its cases inside the fold that times it: a
    # slowed oracle shows in the time of each check that calls it
    real = brute.count_restricted

    def slow(*args):
        time.sleep(0.02)
        return real(*args)

    monkeypatch.setattr(brute, "count_restricted", slow)
    (routes,) = [c for c in verify.check_closed_forms("pf", 2) if "routes agree" in c.name]
    modular = verify.check_modular(1)  # the s = 1 classes: one list each
    for check in [routes] + modular:
        assert check.ok and check.cases >= 1 and check.elapsed_s >= 0.02, check


def test_total_time_covers_its_closed_form(monkeypatch):
    # every form is computed inside the timed fold: the pf total, a form
    # at s = n, shows in the check that compares the forms
    real = formulas.pf_total

    def slow(n):
        time.sleep(0.02)
        return real(n)

    monkeypatch.setattr(formulas, "pf_total", slow)
    (check,) = [c for c in verify.check_closed_forms("pf", 2) if "agree" in c.name]
    assert check.ok and check.elapsed_s >= 0.02, check


def test_small_modular_budget_is_refused_before_any_suite(monkeypatch, capsys):
    def must_not_run(**kwargs):
        raise AssertionError("a suite ran before the budget was refused")

    for key in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, key, must_not_run)
    with pytest.raises(DomainError, match="the smallest needs 1"):
        verify.run_suite("all", budget=0)
    code = main(["verify", "all", "--budget", "0"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.startswith("error: ") and "budget 0" in err


def test_malformed_arguments_are_refused_before_any_suite(monkeypatch):
    ran = []
    for key in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, key, lambda **kwargs: ran.append(kwargs) or [])
    for name, kwargs in [
        ("orbits", {"n_max": 3.5}),
        ("all", {"n_max": "8"}),
        ("modular", {"budget": "x"}),
        ("all", {"budget": [10]}),
    ]:
        with pytest.raises(DomainError):
            verify.run_suite(name, **kwargs)
    assert ran == []
    verify.run_suite("modular", budget=1e7)  # a numeric budget need not be an int
    assert ran == [{"budget": 1e7}]


def test_suites_are_the_benchmark_cli_suites():
    # the benchmark's cli mix runs each suite by name from CLI_SUITES in
    # perfbench/workloads.py (read here, not imported): a suite renamed or
    # added must show here first
    source = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    (cli_suites,) = [
        node.value
        for node in ast.parse(source.read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["CLI_SUITES"]
    ]
    assert set(verify.suite_names()) - {"all"} == set(ast.literal_eval(cli_suites))


# Each check of ``verify all`` at its default bounds, by name and the cases
# it compares, as recorded before the family table of ``formulas`` took
# over the routes: 121 checks and 27,532 cases.
INVENTORY = Path(__file__).resolve().parent / "verify_all_inventory.json"


def test_verify_all_runs_the_recorded_checks(verify_all_checks):
    # a route, a case or a label that goes missing from a suite shows here,
    # even where every check that is left still passes
    want = json.loads(INVENTORY.read_text())
    assert (len(want), sum(cases for _, cases in want)) == (121, 27532)
    assert [[check.name, check.cases] for check in verify_all_checks] == want
    assert all(check.ok for check in verify_all_checks)


def test_unknown_suite_is_named():
    with pytest.raises(DomainError, match=r"unknown verify suite 'nope' \(known: abel, .*, all\)"):
        verify.run_suite("nope")


def test_a_check_that_compares_no_cases_fails():
    check = verify._check("nothing", iter(()))
    assert (check.ok, check.detail, check.cases) == (False, "compared no cases", 0)


def _raise_at_seven(real):
    def route(n, s):
        if n == 7:
            raise NonIntegerIntermediate(f"binomial sum not integral at n={n}, s={s}")
        return real(n, s)

    return route


def _all_red(real):
    # RECOLORED with every car red: no valid coloring, so building it raises
    def route(colored):
        if colored == RECOLORED:
            return colored._replace(colors=(Color.RED,) * len(colored.prefs))
        return real(colored)

    return route


RAISING = [
    (
        formulas, "restricted_subtractive", _raise_at_seven, ["formulas", "--n-max", "7"],
        ["restricted routes agree (n <= 7)", "min-defect routes agree (n <= 7)"],
        "raised NonIntegerIntermediate: binomial sum not integral at n=7, s=1",
    ),
    (
        bijections, "involution", _all_red, ["involution", "--n-max", "3"],
        ["plain recoloring involution (n <= 3)"],
        "raised InvalidColoring: 0 indigo cars, need at least s=1",
    ),
]


@pytest.mark.parametrize(
    "module, route, wrap, argv, failing, detail", RAISING, ids=[c[1] for c in RAISING]
)
def test_a_raising_route_fails_its_own_check(
    monkeypatch, capsys, module, route, wrap, argv, failing, detail
):
    # the fold catches the exception: that check fails naming it, with the
    # cases compared before it, and every other check of the suite runs
    assert main(["verify", *argv, "--format", "json"]) == 0
    clean = json.loads(capsys.readouterr().out)["checks"]
    monkeypatch.setattr(module, route, wrap(getattr(module, route)))
    code = main(["verify", *argv, "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (3, "")
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == [c["name"] for c in clean]
    assert sorted(c["name"] for c in checks if not c["ok"]) == sorted(failing)
    for check, before in zip(checks, clean):
        if check["name"] in failing:
            assert check["detail"] == detail
            assert 0 < check["cases"] < before["cases"]
        else:
            assert check["cases"] == before["cases"]
