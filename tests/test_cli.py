import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkres import __version__, brute, core, formulas, verify
from parkres.cli import COMMANDS, main
from parkres.exceptions import NonIntegerIntermediate
from parkres.formulas import routes

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def run(capsys, *argv):
    code = main(list(argv))  # an int for every command line, help and errors included
    out, err = capsys.readouterr()
    return code, out, err


def test_count_segment(capsys):
    code, out, _ = run(capsys, "count", "pf", "--n", "5", "--s", "3")
    assert code == 0
    assert out.strip() == "206"


def test_count_modular(capsys):
    code, out, _ = run(capsys, "count", "pf", "--g", "3", "--s", "3", "--k", "1")
    assert code == 0
    assert out.strip() == "2187"
    for method, used in (("auto", "power"), ("recursion", "recursion"), ("brute", "brute")):
        code, out, _ = run(
            capsys, "count", "pf", "--g", "2", "--s", "2", "--k", "1",
            "--method", method, "--format", "json",
        )
        assert code == 0 and json.loads(out)["count"] == "4" and json.loads(out)["method"] == used
    # a modular ppf has no closed form: auto and brute both count by brute
    # force what enum lists
    modular = ("--g", "2", "--s", "2", "--k", "1")
    _, listed, _ = run(capsys, "enum", "ppf", *modular)
    for method in ("auto", "brute"):
        code, out, _ = run(capsys, "count", "ppf", *modular, "--method", method)
        assert code == 0 and int(out) == len(listed.splitlines()) == 1


def test_count_modular_beyond_budget(capsys):
    # The oracle walks 16 cars over the 8 row starts in at most
    # 7 * 17 * 18 / 2 = 1071 steps: the default budget cross-checks the
    # recursion, and a budget one step short leaves it standing alone.
    # The value is the multiplicity-vector count of tests/test_formulas.py.
    argv = ("count", "pf", "--g", "2", "--s", "14", "--k", "12", "--format", "json")
    for budget, checked in ((), "brute"), (("--budget", "1070"), None):
        code, out, _ = run(capsys, *argv, *budget)
        assert code == 0
        obj = json.loads(out)
        assert obj["count"] == "64820487788537"
        assert obj["method"] == "recursion"
        assert obj["cross_checked"] == checked, budget


def test_count_modular_with_many_gaps(capsys):
    # 150 cars with 50 empty spots: the recursion solves each length on the
    # smallest street that holds it, so auto runs it and the oracle checks it
    argv = ("count", "pf", "--g", "2", "--s", "100", "--k", "50", "--format", "json")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert (obj["method"], obj["cross_checked"]) == ("recursion", "brute")
    assert obj["count"] == str(formulas.mod_count(2, 100, 50))


def test_count_json_says_whether_brute_force_checked_it(capsys):
    # "brute" when the oracle ran and agreed with the form, null when the
    # budget refused it or no second route ran
    for argv, checked in (
        (("--n", "60", "--s", "20"), "brute"),
        (("--n", "3000", "--s", "1000"), None),
        (("--n", "4000", "--s", "3600"), None),
        # the rows of 4000 cars and the one choice level take 8,006,001 steps
        (("--n", "4000", "--s", "2", "--budget", "8006000"), None),
        (("--n", "60", "--s", "20", "--method", "alternating"), None),
        (("--n", "60", "--s", "20", "--method", "brute"), None),
        (("--n", "7", "--set", "1,4,7"), None),
    ):
        code, out, err = run(capsys, "count", "pf", *argv, "--format", "json")
        assert (code, err) == (0, ""), argv
        assert json.loads(out)["cross_checked"] == checked, argv
    # the text output is the count alone either way
    _, out, _ = run(capsys, "count", "pf", "--n", "60", "--s", "20")
    assert out == f"{formulas.restricted_subtractive(60, 20)}\n"


def test_count_brute_force_reaches_the_walk_not_the_lists(capsys):
    # 7**14 and 17**16 candidate lists, but 720 and 2295 walk steps
    code, out, err = run(capsys, "count", "pf", "--n", "14", "--set", "1,3,5,7,9,11,13")
    assert (code, err) == (0, "") and int(out) == formulas.mod_count(2, 8, 2)
    spots = ",".join(map(str, range(1, 17)))
    code, out, err = run(capsys, "count", "pf", "--n", "16", "--set", spots, "--method", "brute")
    assert (code, err) == (0, "") and int(out) == 17**15


def test_count_prints_large_values_in_full(capsys):
    # 9000 digits, beyond the interpreter's default int-to-str limit of 4300
    value = formulas.restricted_subtractive(3000, 1000)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "count", "pf", "--n", "3000", "--s", "1000", "--format", fmt)
        assert code == 0 and "Traceback" not in err
        text = out.strip() if fmt == "text" else json.loads(out)["count"]
        assert len(text) == 9000 and text.isdigit()
        lowest = 10 ** (len(text) - 1)
        assert lowest <= value < 10 * lowest  # as many digits as the formula's value
        assert int(text[:20]) == value // 10 ** (len(text) - 20)
        assert int(text[-20:]) == value % 10**20
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit  # restored on return


def test_count_prime_full(capsys):
    code, out, _ = run(capsys, "count", "ppf", "--n", "4", "--s", "4")
    assert code == 0
    assert out.strip() == "27"


def test_count_set_and_methods(capsys):
    code, out, _ = run(capsys, "count", "pf", "--set", "1,4,7", "--n", "7")
    assert code == 0
    assert out.strip() == "393"
    for method in ("brute", "subtractive", "alternating"):
        code, out, _ = run(capsys, "count", "pf", "--n", "5", "--s", "2", "--method", method)
        assert code == 0
        assert out.strip() == "31"


def test_count_json_reports_the_set_it_counted(capsys):
    # repeated or unordered spots name the set of distinct spots counted over
    outs = [
        run(capsys, "count", "pf", "--n", "4", "--set", spots, "--format", "json")[1]
        for spots in ("2,1,1", "1,2")
    ]
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["restriction"] == {"kind": "set", "elements": [1, 2]}


def test_count_json_schema(capsys):
    code, out, _ = run(
        capsys, "count", "pf", "--g", "3", "--s", "3", "--k", "2", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == "393"
    assert obj["n"] == 7
    assert obj["restriction"] == {"kind": "modular", "g": 3, "s": 3, "k": 2}
    code, out, _ = run(capsys, "count", "ppf", "--n", "4", "--s", "2", "--format", "json")
    obj = json.loads(out)
    assert obj == {
        "kind": "ppf",
        "n": 4,
        "restriction": {"kind": "segment", "s": 2},
        "count": "11",
        "method": "subtractive",
        "cross_checked": "brute",
    }


def test_count_usage_errors(capsys):
    code, _, err = run(capsys, "count", "pf")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "count", "pf", "--set", "1,2", "--n", "3", "--method", "subtractive")
    assert code == 2
    # a modular restriction has only the recursion: a named formula is refused
    for method in ("subtractive", "alternating"):
        for fmt in ("text", "json"):
            code, out, err = run(
                capsys, "count", "pf", "--g", "2", "--s", "2", "--k", "1",
                "--method", method, "--format", fmt,
            )
            assert code == 2 and out == "" and err.startswith("error:") and method in err
    for g, s in (("0", "2"), ("2", "0"), ("-1", "-2")):
        code, out, err = run(capsys, "count", "pf", "--g", g, "--s", s, "--k", "1")
        assert code == 2 and out == "" and err.startswith("error: need g, s >= 1 and 1 <= k <= g*s")
    for budget in ("inf", "nan", "-1", "1e400", "lots"):
        code, _, err = run(capsys, "count", "pf", "--n", "4", "--budget", budget)
        assert code == 2 and "budget" in err
    code, _, err = run(capsys, "count", "pf", "--n", "4", "--format", "yaml")
    assert code == 2 and "--format" in err
    # every brute-force path stops at --budget: walk steps for count,
    # candidate lists for enum
    for argv in (
        ("count", "pf", "--n", "7", "--s", "7", "--method", "brute", "--budget", "10"),
        ("count", "pf", "--n", "7", "--set", "1,2,3,4,5,6,7", "--budget", "10"),
        ("enum", "pf", "--n", "7", "--budget", "10"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:") and "budget" in err
    code, _, err = run(capsys, "enum", "pf", "--n", "-1", "--set", "")
    assert code == 2 and err.startswith("error: need n >= 0, got n=-1")
    for family in ("pf-restricted", "ppf-restricted", "catalan-triangle"):
        for n_max in ("0", "-1"):
            code, out, err = run(capsys, "table", family, "--n-max", n_max)
            assert code == 2 and out == "" and err.startswith("error:") and "--n-max >= 1" in err
    # flags a subcommand does not read are refused
    for argv in (
        ("count", "pf", "--n", "4", "--threads", "2"),
        ("verify", "abel", "--threads", "2"),
        ("simulate", "1,1", "--budget", "10"),
        ("table", "catalan-triangle", "--budget", "10"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "unrecognized arguments" in err


def test_budget_refusal_names_the_power_without_building_it(capsys):
    # enum: 30000**60000 has 268,636 digits, so the refusal names it as a
    # power; count: the walk's 29999 * 60001 * 60002 / 2 steps
    for argv, size in (
        (("count", "pf", "--n", "60000", "--s", "30000", "--method", "brute"), "54000899939999 walk steps"),
        (("enum", "pf", "--n", "60000", "--s", "30000"), "30000**60000 candidate lists"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.count("\n") == 1, argv
        assert err.startswith(f"error: {size} exceed --budget"), err
        assert len(err) < 200, argv


def test_budget_refuses_exactly_past_the_power(capsys):
    # count runs within (s - 1)(n + 1)(n + 2)/2 walk steps, enum within s**n
    # lists of n entries
    for n in range(7):
        for s in range(1, max(n, 1) + 1):
            steps = (s - 1) * (n + 1) * (n + 2) // 2
            for command, size, extra in (
                ("count", steps, ("--method", "brute")), ("enum", max(s**n, n), ())
            ):
                for budget in range(max(size - 1, 0), size + 1):
                    argv = (command, "pf", "--n", str(n), "--s", str(s), *extra)
                    code, _, err = run(capsys, *argv, "--budget", str(budget))
                    assert code == (2 if budget < size else 0), (argv, budget, err)


def test_count_zero_cars_matches_enum(capsys):
    for kind in ("pf", "ppf"):
        _, listed, _ = run(capsys, "enum", kind, "--n", "0")
        assert listed.splitlines() == [""]  # the one empty list
        code, out, _ = run(capsys, "count", kind, "--n", "0", "--format", "json")
        assert code == 0
        assert json.loads(out)["count"] == "1" and json.loads(out)["method"] == "brute"
        code, out, _ = run(capsys, "count", kind, "--n", "0", "--method", "brute")
        assert code == 0 and out.strip() == "1"
        code, out, _ = run(capsys, "count", kind, "--n", "0", "--s", "3")  # no car, no spot out of range
        assert code == 0 and out.strip() == "1"
        for method in ("subtractive", "alternating"):
            code, out, err = run(capsys, "count", kind, "--n", "0", "--method", method)
            assert code == 2 and out == "" and err.startswith("error:")


def test_count_alternating_at_large_n_prints_subtractive_value(capsys):
    code, out, _ = run(capsys, "count", "pf", "--n", "1400", "--s", "466", "--method", "alternating")
    assert code == 0
    assert out.strip() == str(formulas.restricted_subtractive(1400, 466))
    code, out, _ = run(capsys, "count", "ppf", "--n", "1400", "--s", "466", "--method", "alternating")
    assert code == 0
    assert out.strip() == str(formulas.prime_subtractive(1400, 466))


# The closed forms each request has, cheapest first as auto runs them (the
# one-term total or power, then the pair with the fewer terms: s for the
# subtractive form, n - s + 1 for the alternating one, n - s for ppf),
# written out here from the paper's ranges rather than read from the CLI.
# None: no route counts the request at all.
PAIR = ["subtractive", "alternating"]
RESTRICTIONS = {
    "s < n, s terms against n - s + 1": (("--n", "5", "--s", "3"), {"pf": PAIR, "ppf": PAIR[::-1]}),
    "s < n, alternating shorter": (("--n", "5", "--s", "4"), {"pf": PAIR[::-1], "ppf": PAIR[::-1]}),
    "s < n, subtractive shorter": (("--n", "5", "--s", "2"), {"pf": PAIR, "ppf": PAIR}),
    "s = n": (("--n", "4", "--s", "4"), {"pf": ["total"] + PAIR[::-1], "ppf": ["total"]}),
    "s > n": (("--n", "4", "--s", "9"), None),
    "no cars": (("--n", "0"), {"pf": [], "ppf": []}),
    "set": (("--n", "5", "--set", "1,3"), {"pf": [], "ppf": []}),
    "modular": (("--g", "2", "--s", "3", "--k", "2"), {"pf": ["recursion"], "ppf": []}),
    "modular, k = 1": (
        ("--g", "2", "--s", "3", "--k", "1"), {"pf": ["power", "recursion"], "ppf": []}
    ),
}
FORMULA_OF = {
    ("pf", "subtractive"): "restricted_subtractive",
    ("pf", "alternating"): "restricted_alternating",
    ("pf", "total"): "pf_total",
    ("ppf", "subtractive"): "prime_subtractive",
    ("ppf", "alternating"): "prime_alternating",
    ("ppf", "total"): "ppf_total",
    ("pf", "recursion"): "mod_count",
    ("pf", "power"): "mod_count_k1",
}
METHODS = ("auto", "brute", "subtractive", "alternating", "total", "recursion", "power")


def test_json_method_names_the_formula_that_ran(monkeypatch, capsys):
    called = []
    for name in set(FORMULA_OF.values()):
        real = getattr(formulas, name)
        monkeypatch.setattr(
            formulas, name, lambda *args, name=name, real=real: called.append(name) or real(*args)
        )
    for label, (flags, forms) in RESTRICTIONS.items():
        for kind in ("pf", "ppf"):
            for method in METHODS:
                called.clear()
                code, out, err = run(capsys, "count", kind, *flags, "--method", method, "--format", "json")
                case = (label, kind, method)
                if forms is None:
                    want = None
                elif method == "auto":
                    want = (forms[kind] or ["brute"])[0]
                elif method == "brute" or method in forms[kind]:
                    want = method
                else:  # a form the request lacks
                    want = None
                if want is None:
                    assert code == 2 and out == "" and err.startswith("error:"), case
                    assert called == [], case
                    if forms is not None:  # one line listing the forms the request has
                        have = ", ".join(forms[kind]) or "none"
                        assert err.endswith(f" count (closed forms here: {have})\n"), case
                        assert err.count("\n") == 1, case
                    continue
                assert code == 0, (case, err)
                assert json.loads(out)["method"] == want, case
                assert called == ([] if want == "brute" else [FORMULA_OF[kind, want]]), case


# Every form name --method takes, on a request that has it, with the count.
NAMED_FORMS = [
    (("pf", "--g", "2", "--s", "3", "--k", "1"), "recursion", "81"),
    (("pf", "--g", "2", "--s", "3", "--k", "1"), "power", "81"),
    (("pf", "--n", "5"), "total", "1296"),
    (("ppf", "--n", "5"), "total", "256"),
]


@pytest.mark.parametrize("request_, method, want", NAMED_FORMS)
def test_method_runs_every_form_the_request_has(capsys, request_, method, want):
    assert run(capsys, "count", *request_, "--method", method) == (0, want + "\n", "")
    code, out, _ = run(capsys, "count", *request_, "--method", method, "--format", "json")
    assert code == 0 and json.loads(out)["method"] == method


def test_auto_runs_the_shorter_sum(capsys):
    # s = 3600 subtractive terms against 401 alternating ones, and the
    # other way round at s = 400
    for s, want in (("3600", "alternating"), ("400", "subtractive")):
        code, out, _ = run(capsys, "count", "pf", "--n", "4000", "--s", s, "--format", "json")
        assert code == 0 and json.loads(out)["method"] == want, s


def test_prime_count_beyond_n_exits_2_at_any_budget(capsys):
    for budget in ((), ("--budget", "0"), ("--budget", "1e9")):
        code, out, err = run(capsys, "count", "ppf", "--n", "4", "--s", "9", *budget)
        assert code == 2 and out == "" and err.startswith("error:"), budget


def test_modular_k_below_one_exits_2(capsys):
    # k <= 0 puts g*s or more cars on the row starts: no street with
    # missing spots, so no method counts it, brute force included
    for k in ("0", "-1"):
        for method in ("auto", "brute", "subtractive", "alternating"):
            for fmt in ("text", "json"):
                code, out, err = run(
                    capsys, "count", "pf", "--g", "2", "--s", "3", "--k", k,
                    "--method", method, "--format", fmt,
                )
                assert code == 2 and out == "", (k, method, fmt)
                assert err.startswith("error: need g, s >= 1 and 1 <= k <= g*s"), (k, method, fmt)
        code, out, err = run(capsys, "enum", "pf", "--g", "2", "--s", "3", "--k", k)
        assert code == 2 and out == "" and err.startswith("error: need g, s >= 1 and 1 <= k <= g*s")


def test_restriction_fault_is_named_at_any_budget(capsys):
    # spots outside 1..n are the fault, whether or not |S|^n fits the budget;
    # a budget of 4 is the least that holds a list of the 4 cars, which enum
    # checks first
    for argv in (("count", "pf"), ("count", "ppf"), ("enum", "pf"), ("enum", "ppf")):
        errors = set()
        for budget in ((), ("--budget", "4"), ("--budget", "1e9")):
            code, out, err = run(capsys, *argv, "--n", "4", "--s", "9", *budget)
            assert code == 2 and out == "", (argv, budget)
            errors.add(err)
        assert errors == {"error: restriction (1, 2, 3, 4, 5, 6, 7, 8, 9) not contained in 1..4\n"}


def test_empty_restriction_exits_2_for_both_kinds(capsys):
    want = "error: no allowed preferences with cars present\n"
    for kind in ("pf", "ppf"):
        for flags in (("--s", "0"), ("--set", "")):
            for method in ("auto", "brute"):
                for budget in ((), ("--budget", "0")):
                    code, out, err = run(
                        capsys, "count", kind, "--n", "3", *flags, "--method", method, *budget
                    )
                    assert (code, out, err) == (2, "", want), (kind, flags, method, budget)
            code, out, err = run(capsys, "enum", kind, "--n", "3", *flags)
            assert (code, out, err) == (2, "", want), (kind, flags)


def test_prime_total_has_no_named_pair(capsys):
    code, out, _ = run(capsys, "count", "ppf", "--n", "4", "--s", "4", "--format", "json")
    assert code == 0 and json.loads(out)["count"] == "27" and json.loads(out)["method"] == "total"
    for method in ("subtractive", "alternating"):
        code, out, err = run(capsys, "count", "ppf", "--n", "4", "--s", "4", "--method", method)
        assert code == 2 and out == "" and method in err and "total" in err


def test_restricted_tables_match_count(capsys):
    for kind in ("pf", "ppf"):
        code, out, _ = run(capsys, "table", f"{kind}-restricted", "--n-max", "7")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 7
        for n, row in enumerate(rows, start=1):
            assert row[0] == str(n) and row[n + 1:] == [""] * (7 - n)
            for s in range(1, n + 1):
                _, count, _ = run(capsys, "count", kind, "--n", str(n), "--s", str(s))
                assert row[s] == count.strip(), (kind, n, s)


def _not_integral(*args):
    raise NonIntegerIntermediate("sum not integral")


def _off_by_one(value):
    # a count one higher, or a polynomial one higher in its constant coefficient
    if isinstance(value, tuple):
        return (value[0] + 1,) + value[1:]
    return value + 1


@pytest.mark.parametrize(
    "argv, form",
    [
        (("pf-restricted", "--n-max", "4"), "restricted_alternating"),
        (("pf-restricted", "--n-max", "4"), "restricted_subtractive"),
        (("ppf-restricted", "--n-max", "4"), "prime_alternating"),
        (("ppf-restricted", "--n-max", "4"), "prime_subtractive"),
        (("ones", "--n", "4", "--s", "2"), "ones_poly_alternating"),
        (("ones", "--n", "4", "--s", "2"), "ones_poly_subtractive"),
        # one form, checked by the oracle
        (("catalan-triangle", "--n-max", "4"), "catalan_triangle"),
        (("ppf-restricted", "--n-max", "4"), "ppf_total"),
    ],
)
def test_table_cross_check_exits_3(monkeypatch, capsys, argv, form):
    # each value is checked by a second route: one form off by one is a
    # mismatch, and no table is printed
    real = getattr(formulas, form)
    monkeypatch.setattr(formulas, form, lambda *args: _off_by_one(real(*args)))
    for fmt in ("csv", "json"):
        code, out, err = run(capsys, "table", *argv, "--format", fmt)
        assert (code, out) == (3, ""), (argv, form)
        lines = err.splitlines()
        assert lines and all(line.startswith(f"MISMATCH: table {argv[0]} ") for line in lines)
    # an exact form that was not exact is a fault of the library, not of
    # the request: it is reported as a mismatch too
    monkeypatch.setattr(formulas, form, _not_integral)
    for fmt in ("csv", "json"):
        code, out, err = run(capsys, "table", *argv, "--format", fmt)
        assert (code, out, err) == (3, "", "MISMATCH: sum not integral\n"), (argv, form)


@pytest.mark.parametrize(
    "argv, form",
    [
        (("pf", "--n", "5", "--s", "2"), "restricted_subtractive"),
        (("ppf", "--n", "5", "--s", "2"), "prime_subtractive"),
        (("pf", "--g", "2", "--s", "3", "--k", "2"), "mod_count"),
    ],
)
def test_count_cross_check_exits_3(monkeypatch, capsys, argv, form):
    # auto runs this form first and checks it by brute force: one off is
    # a mismatch that names both values, and no count is printed
    code, out, _ = run(capsys, "count", *argv)
    assert code == 0
    want = int(out)
    real = getattr(formulas, form)
    monkeypatch.setattr(formulas, form, lambda *args: real(*args) + 1)
    code, out, err = run(capsys, "count", *argv)
    assert (code, out) == (3, "")
    assert err == f"MISMATCH: formula {want + 1}, brute force {want}\n"
    monkeypatch.setattr(formulas, form, _not_integral)
    code, out, err = run(capsys, "count", *argv)
    assert (code, out, err) == (3, "", "MISMATCH: sum not integral\n")


def _format_choices():
    """The --format values each subcommand accepts, read from the command
    table."""
    return {command: entry["formats"] for command, entry in COMMANDS.items()}


# One small request per subcommand, to render in each format.
FORMAT_ARGV = {
    "count": ["count", "pf", "--n", "3", "--s", "2"],
    "enum": ["enum", "pf", "--n", "2", "--s", "2"],
    "simulate": ["simulate", "1,1", "--spots", "2"],
    "verify": ["verify", "abel", "--n-max", "1"],
    "table": ["table", "catalan-triangle", "--n-max", "3"],
}


def test_each_format_value_selects_its_own_output(capsys):
    choices = _format_choices()
    assert set(choices) == set(FORMAT_ARGV)
    assert sum(len(values) for values in choices.values()) == 11
    for command, values in choices.items():
        outputs = {}
        for value in values:
            code, out, _ = run(capsys, *FORMAT_ARGV[command], "--format", value)
            assert code == 0 and out, (command, value)
            outputs[value] = out
        assert len(set(outputs.values())) == len(values), (command, outputs)
        # the default is one of the values, not an output of its own
        assert run(capsys, *FORMAT_ARGV[command])[1] in outputs.values()


def test_removed_format_aliases_are_refused(capsys):
    for argv in (
        FORMAT_ARGV["enum"] + ["--format", "lines"],
        FORMAT_ARGV["count"] + ["--format", "csv"],
        FORMAT_ARGV["count"] + ["--format", "lines"],
        FORMAT_ARGV["simulate"] + ["--format", "csv"],
        FORMAT_ARGV["verify"] + ["--format", "lines"],
        FORMAT_ARGV["table"] + ["--format", "text"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "--format" in err, argv


def test_enum_lines(capsys):
    code, out, _ = run(capsys, "enum", "pf", "--n", "2", "--s", "2")
    assert code == 0
    assert out.splitlines() == ["1,1", "1,2", "2,1"]
    code, out, _ = run(capsys, "enum", "pf", "--n", "2", "--set", "1")
    assert out.splitlines() == ["1,1"]
    code, out, _ = run(capsys, "enum", "ppf", "--n", "2")
    assert out.splitlines() == ["1,1"]


def test_enum_json_round_trip(capsys):
    code, out, _ = run(capsys, "enum", "pf", "--n", "3", "--s", "2", "--format", "json")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    for line in lines:
        obj = json.loads(line)
        prefs = tuple(obj["prefs"])
        assert obj["n"] == 3
        assert tuple(obj["outcome"]) == core.outcome_permutation(prefs)
        assert obj["ones"] == prefs.count(1)


@pytest.mark.parametrize(
    "kind, flags, n, allowed",
    [
        ("pf", ("--n", "6", "--s", "4"), 6, range(1, 5)),
        ("pf", ("--n", "6"), 6, range(1, 7)),
        ("ppf", ("--n", "6"), 6, range(1, 7)),
        ("ppf", ("--n", "7", "--s", "5"), 7, range(1, 6)),
        ("pf", ("--n", "0"), 0, ()),
        ("pf", ("--g", "2", "--s", "3", "--k", "1"), 5, (1, 3, 5)),
    ],
)
def test_enum_text_is_one_line_per_list(capsys, kind, flags, n, allowed):
    # 3,130 lines for pf n=6, s=4; 16,807 for pf n=6, more than one block
    code, out, _ = run(capsys, "enum", kind, *flags)
    stream = brute.enum_restricted if kind == "pf" else brute.enum_prime_restricted
    assert code == 0
    assert out == "".join(",".join(map(str, prefs)) + "\n" for prefs in stream(n, allowed))


def test_enum_text_writes_lazy_blocks(monkeypatch):
    # pf n=6 has 16,807 lists: five writes of at most 4,096 lines, the
    # first made before the stream has given more than one block
    given = []
    writes = []  # (lines written, lists given by then)
    real = brute.enum_restricted

    def counted(n, allowed):
        for prefs in real(n, allowed):
            given.append(prefs)
            yield prefs

    class Out:
        def write(self, text):
            writes.append((text.count("\n"), len(given)))

    monkeypatch.setattr(brute, "enum_restricted", counted)
    monkeypatch.setattr(sys, "stdout", Out())
    assert main(["enum", "pf", "--n", "6"]) == 0
    assert [lines for lines, _ in writes] == [4096] * 4 + [16807 - 4 * 4096]
    assert writes[0][1] <= 4097


def test_enum_csv(capsys):
    code, out, _ = run(capsys, "enum", "pf", "--n", "2", "--s", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "prefs,outcome,ones"
    assert lines[1] == '"1,1","1,2",2'


def test_simulate_linear(capsys):
    code, out, _ = run(capsys, "simulate", "1,4,4,1,1,7,1", "--spots", "7")
    assert code == 0
    assert "defect: 0" in out
    code, out, _ = run(capsys, "simulate", "2,2", "--spots", "2")
    assert code == 0
    assert "defect: 1" in out
    assert "unparked: 2" in out


def test_simulate_circular(capsys):
    code, out, _ = run(capsys, "simulate", "7,1,1,7,7,7,4", "--circular", "3,3")
    assert code == 0
    assert "empty spots: 5,6" in out
    assert "linear: 1,4,4,1,1,1,7" in out
    code, out, _ = run(capsys, "simulate", "7,1,1,7,7,4,7", "--circular", "3,3")
    assert "linear: 1,4,4,1,1,7,1" in out
    code, out, _ = run(capsys, "simulate", "1,4,1,4,7,4,4", "--circular", "3,3")
    assert "linear: NONE" in out


def test_simulate_json_round_trip(capsys):
    code, out, _ = run(capsys, "simulate", "1,3,2,2,4", "--format", "json")
    obj = json.loads(out)
    assert obj["defect"] == 0
    assert obj["unparked"] == []
    assert tuple(obj["outcome"]) == (1, 3, 2, 4, 5)
    occupancy = tuple(car if car is not None else None for car in obj["occupancy"])
    assert occupancy == core.park((1, 3, 2, 2, 4), 5).occupancy
    code, out, _ = run(
        capsys, "simulate", "7,1,1,7,7,7,4", "--circular", "3,3", "--format", "json"
    )
    obj = json.loads(out)
    assert obj["lambda"] == [2]
    assert obj["mu"] == [3]
    assert obj["anchor"] == 7
    assert obj["linear"] == [1, 4, 4, 1, 1, 1, 7]


def test_simulate_errors(capsys):
    code, _, err = run(capsys, "simulate", "0,2", "--spots", "2")
    assert code == 2
    code, _, err = run(capsys, "simulate", "1,x")
    assert code == 2
    code, _, err = run(capsys, "simulate", "2,2", "--circular", "3,3")
    assert code == 2
    for street in ("3", "1,2,3"):
        code, _, err = run(capsys, "simulate", "1,2", "--circular", street)
        assert code == 2 and err.startswith("error: --circular needs two integers")


def test_negative_spots_is_named(capsys):
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "simulate", "1,1", "--spots", "-1", "--format", fmt)
        assert (code, out, err) == (2, "", "error: need num_spots >= 0, got num_spots=-1\n"), fmt
    # zero spots is a street, on which no preference lies
    code, out, err = run(capsys, "simulate", "1,1", "--spots", "0")
    assert (code, out) == (2, "") and "outside 1..0" in err


def test_oversized_requests_exit_2_without_a_traceback(capsys, monkeypatch):
    # enum refuses a list longer than the budget before it builds the spots,
    # which for a segment are as many as the cars
    for argv in (
        ("enum", "pf", "--n", "99999999999999999999"),
        ("enum", "pf", "--n", "3000000000", "--s", "1"),
        ("enum", "ppf", "--n", "10000000000", "--set", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and re.fullmatch(r"error: lists of \d+ entries exceed --budget 10000000\n", err)
    # simulate has no budget: a street past any index, and one too large to
    # hold, raised here by the handler rather than by a real allocation
    for street in (("--spots", "99999999999999999999"), ("--circular", "99999999999999999999,2")):
        code, out, err = run(capsys, "simulate", "1", *street)
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1

    def no_memory(args):
        raise MemoryError

    monkeypatch.setitem(COMMANDS["simulate"], "run", no_memory)
    assert run(capsys, "simulate", "1", "--spots", "3000000000") == (2, "", "error: MemoryError\n")


def test_spots_with_circular_is_refused(capsys):
    # a circular street has g*s spots, so --spots would be ignored
    for spots in ("-1", "2", "6"):
        for fmt in ("text", "json"):
            argv = ("simulate", "1,1", "--circular", "1,2", "--spots", spots, "--format", fmt)
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv
            assert "--spots" in err and "--circular" in err, argv


# Restriction flags that the restriction given beside them would not read.
UNREAD_FLAGS = [
    (("--n", "4", "--s", "2", "--set", "1,3"), ("--s", "--set")),
    (("--g", "2", "--s", "3", "--k", "1", "--n", "9"), ("--n", "--g")),
    (("--g", "2", "--s", "3", "--k", "1", "--set", "1,2"), ("--set", "--g")),
    (("--n", "4", "--k", "2"), ("--k", "--g")),
    (("--n", "3", "--s", "1", "--set", "1,2"), ("--s", "--set")),
]


@pytest.mark.parametrize("flags, named", UNREAD_FLAGS)
def test_unread_restriction_flag_is_refused(capsys, flags, named):
    for command in ("count", "enum"):
        for fmt in ("text", "json"):
            argv = (command, "pf", *flags, "--format", fmt)
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv
            assert all(re.search(re.escape(flag) + r"\b", err) for flag in named), argv


# Flags that a table family or a verify suite given beside them would not
# read: (argv, the flag named).
UNREAD_COMMAND_FLAGS = [
    (("table", "catalan-triangle", "--n", "3", "--n-max", "3"), "--n"),
    (("table", "catalan-triangle", "--s", "2"), "--s"),
    (("table", "pf-restricted", "--s", "4", "--n-max", "2"), "--s"),
    (("table", "ppf-restricted", "--n", "4"), "--n"),
    (("table", "ones", "--n", "2", "--s", "2", "--n-max", "0"), "--n-max"),
    (("table", "ones", "--n", "2", "--s", "2", "--n-max", "5"), "--n-max"),
    (("verify", "modular", "--n-max", "0", "--budget", "2e4"), "--n-max"),
    (("verify", "modular", "--n-max", "6"), "--n-max"),
    (("verify", "orbits", "--budget", "10"), "--budget"),
    (("verify", "formulas", "--budget", "10"), "--budget"),
]


@pytest.mark.parametrize("argv, named", UNREAD_COMMAND_FLAGS)
def test_unread_command_flag_is_refused(capsys, argv, named):
    formats = ("json",) + (("csv",) if argv[0] == "table" else ("text",))
    for fmt in formats:
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert re.search(re.escape(named) + r"(?![\w-])", err), argv


def test_table_ones(capsys):
    code, out, _ = run(capsys, "table", "ones", "--n", "2", "--s", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x^0,x^1,x^2"
    assert lines[1] == "0,2,1"


def test_table_pf_restricted(capsys):
    code, out, _ = run(capsys, "table", "pf-restricted", "--n-max", "5")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[-1].startswith("5,1,31,206,671,1296")


def test_table_catalan(capsys):
    code, out, _ = run(capsys, "table", "catalan-triangle", "--n-max", "5")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    values = [[int(v) for v in row[1:] if v] for row in rows]
    assert values == [[1], [1, 2], [1, 3, 5], [1, 4, 9, 14], [1, 5, 14, 28, 42]]


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "ones", "--n", "3", "--s", "2", "--format", "json")
    obj = json.loads(out)
    assert obj["rows"] == [[0, 3, 3, 1]]


def test_verify_cli(capsys):
    code, out, _ = run(capsys, "verify", "abel", "--n-max", "4")
    assert code == 0
    assert "pass" in out
    code, out, _ = run(capsys, "verify", "orbits", "--n-max", "6", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    # a bound too small for every check to compare a case is a usage error
    for argv, least in (
        (("abel", "--n-max", "0"), "--n-max >= 1"),
        (("orbits", "--n-max", "0"), "--n-max >= 1"),
        (("modular", "--budget", "0"), "the smallest needs 1"),
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "" and err.startswith("error: ") and least in err
    for argv in (
        ("formulas", "--n-max", "1"),
        ("orbits", "--n-max", "2"),
        ("orbits", "--n-max", "3"),
        ("all", "--n-max", "2"),
        ("modular", "--budget", "1"),
    ):
        assert run(capsys, "verify", *argv)[0] == 0


def test_verify_json_reports_what_each_check_did(capsys):
    code, out, _ = run(capsys, "verify", "orbits", "--n-max", "4", "--format", "json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [sorted(c) for c in checks] == [["cases", "detail", "elapsed_s", "name", "ok"]] * 2
    # the grid 1 <= s <= n <= 4 and the six Catalan numbers written out
    assert [c["cases"] for c in checks] == [10, 6]
    assert all(isinstance(c["elapsed_s"], float) and c["elapsed_s"] >= 0 for c in checks)
    # the text output has neither
    code, out, _ = run(capsys, "verify", "orbits", "--n-max", "4")
    assert code == 0 and "cases" not in out and out.endswith("suite orbits: 2/2 checks passed\n")


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == f"parkres {__version__}" == "parkres 0.1.0"


def test_flag_spellings_select_the_same_request(capsys):
    want = run(capsys, "count", "pf", "--n", "5", "--s", "3", "--format", "json")
    assert want[0] == 0
    for argv in (
        ("count", "pf", "--n=5", "--s=3", "--format=json"),
        # a unique prefix names a flag; the positional may come anywhere
        ("count", "--fo", "json", "--n", "5", "pf", "--s", "3"),
        ("count", "pf", "--n", "5", "--s", "3", "--for=json"),
        # the last of a repeated flag wins
        ("count", "pf", "--n", "4", "--s", "9", "--format", "text", "--n", "5", "--s=3", "--format=json"),
    ):
        assert run(capsys, *argv) == want, argv
    # --n is a prefix of --n-max where verify has no --n
    assert run(capsys, "verify", "abel", "--n", "2") == run(capsys, "verify", "abel", "--n-max", "2")
    # a bare -- ends the flags, before or after the positional
    for argv in (["count", "--n", "3", "--", "pf"], ["count", "--n", "3", "pf", "--"]):
        assert run(capsys, *argv) == run(capsys, "count", "pf", "--n", "3"), argv
    for argv in (["simulate", "--", "1,1"], ["simulate", "1,1", "--"]):
        assert run(capsys, *argv) == run(capsys, "simulate", "1,1"), argv
    # a value may start with "-", and "=" may give an empty one
    code, out, err = run(capsys, "count", "pf", "--n", "-1")
    assert (code, out) == (2, "") and err.startswith("error: need n >= 0, got n=-1")
    code, out, err = run(capsys, "count", "pf", "--n", "3", "--set=")
    assert (code, out, err) == (2, "", "error: no allowed preferences with cars present\n")


# Command lines the parser refuses, and the token its message names.
USAGE_ERRORS = [
    ([], "command"),
    (["bogus"], "'bogus'"),
    (["count"], "kind"),
    (["count", "ppx", "--n", "3"], "'ppx'"),
    (["count", "pf", "--n"], "--n: expected one argument"),  # no value at the end of argv
    (["count", "pf", "--set", "--n", "3"], "--set: expected one argument"),  # nor a flag
    (["count", "pf", "--n", "x"], "'x'"),
    (["count", "pf", "--n", "3", "--bogus", "1"], "--bogus"),
    (["count", "pf", "--n", "3", "extra"], "extra"),
    (["count", "pf", "--n", "3", "--format", "yaml"], "'yaml'"),
    (["count", "pf", "--n", "3", "--version"], "--version"),
    (["--version=1"], "--version"),
    (["-x"], "-x"),
    (["count", "--", "pf", "--n", "3"], "--n"),  # after --, --n is a second positional
    (["verify", "nope"], "'nope'"),
    (["table", "nope"], "'nope'"),
    (["table", "nope", "--n-max", "3"], "'nope'"),
]


@pytest.mark.parametrize("argv, token", USAGE_ERRORS, ids=[" ".join(a) or "empty" for a, _ in USAGE_ERRORS])
def test_usage_error_names_the_token(capsys, argv, token):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and token in err and err.count("\n") == 1


def test_ambiguous_prefix_is_a_usage_error(capsys):
    # no two flags of the shipped table share a prefix that is not itself a
    # flag, so the test adds one
    flags = {**COMMANDS["count"]["flags"], "--seed": (int, None, "unused")}
    with mock.patch.dict(COMMANDS["count"], flags=flags):
        code, out, err = run(capsys, "count", "pf", "--n", "3", "--se", "1")
        assert (code, out) == (2, "")
        assert err == "error: ambiguous option: --se could match --set, --seed\n"
        assert run(capsys, "count", "pf", "--n", "3", "--see", "1")[:2] == (0, "16\n")
        assert run(capsys, "count", "pf", "--n", "3", "--set", "1")[:2] == (0, "1\n")


def test_help_at_both_levels(capsys):
    code, top, err = run(capsys, "-h")
    assert (code, err) == (0, "") and top.startswith("usage: parkres ")
    assert all(command in top for command in COMMANDS)
    for argv in (["--help"], ["--he"], ["-h", "count", "--bogus"]):
        assert run(capsys, *argv) == (0, top, ""), argv
    for command, entry in COMMANDS.items():
        code, out, err = run(capsys, command, "-h")
        assert (code, err) == (0, "") and out.startswith(f"usage: parkres {command} "), command
        assert all(flag in out for flag in entry["flags"])
        assert all(value in out for value in entry["formats"]) and out != top
        # help is printed as soon as it is read, without the positional
        assert run(capsys, command, "--help", "--bogus") == (0, out, "")
        assert run(capsys, command, "--format", "json", "--he") == (0, out, "")
        code, _, err = run(capsys, command, "--help=1")
        assert code == 2 and "--help" in err


def test_help_names_every_suite_and_family(capsys):
    # read from the owning module, which only the help imports
    for command, names in (("verify", verify.suite_names()), ("table", list(formulas.TABLES))):
        code, out, err = run(capsys, command, "--help")
        assert (code, err) == (0, "") and f"{{{','.join(names)}}}" in out, command


def _readme_examples():
    """(argv, the output shown or None) for each ``$ parkres`` line of the
    console block in README § CLI."""
    text = README.read_text()
    lines = text[text.index("```console\n", text.index("\n## CLI\n")):].splitlines(keepends=True)
    examples = []
    for line in lines[1:]:
        if line.startswith("```"):
            break
        if line.startswith("$ parkres "):
            examples.append((shlex.split(line[len("$ parkres "):], comments=True), []))
        else:
            examples[-1][1].append(line)
    return [(argv, "".join(shown) or None) for argv, shown in examples]


README_EXAMPLES = _readme_examples()


def test_readme_shows_cli_examples():
    assert len(README_EXAMPLES) >= 9
    assert sum(shown is not None for _, shown in README_EXAMPLES) >= 7


@pytest.mark.parametrize(
    "argv, shown", README_EXAMPLES, ids=[" ".join(a) for a, _ in README_EXAMPLES]
)
def test_readme_cli_example(capsys, monkeypatch, request, argv, shown):
    calls = []
    if argv == ["verify", "all"]:
        # the CLI prints the one run of every suite at default bounds that
        # the inventory test of test_verify reads too (the CLI passes no
        # budget, so the modular suite's default holds)
        checks = request.getfixturevalue("verify_all_checks")
        monkeypatch.setattr(verify, "run_suite", lambda *args, **kwargs: calls.append((args, kwargs)) or checks)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    if shown is not None:
        assert out == shown
    if calls:
        assert calls == [(("all",), {"n_max": None, "budget": None})]


def test_import_loads_no_unused_stdlib():
    # A CLI process pays for every module it imports; these are not needed
    # by most requests (the process pool and fractions are imported where
    # they are used).
    code = (
        "import parkres.cli, sys; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'concurrent.futures', "
        "'multiprocessing', 'fractions', 'decimal') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def _loaded_by(argv) -> set:
    """The modules loaded in a fresh interpreter (without site packages)
    once ``main(argv)`` has run."""
    code = (
        "import sys\n"
        "from parkres.cli import main\n"
        f"main({argv!r})\n"
        "print(' '.join(sys.modules), file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    err = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stderr
    return set(err.split())


def _module_table():
    """The package modules each request of the modules-loaded table in
    README § CLI loads, by argv."""
    rows = {}
    for line in README.read_text().splitlines():
        cells = line.split("|")
        if line.startswith("| `parkres") and len(cells) == 4:
            modules = {f"parkres.{name}" for name in re.findall(r"`(\w+)`", cells[2])}
            for command in re.findall(r"`parkres ([^`]*)`", cells[1]):
                rows[tuple(shlex.split(command))] = modules
    return rows


MODULE_TABLE = _module_table()


@pytest.mark.parametrize("argv", [list(argv) for argv in MODULE_TABLE])
def test_request_imports_only_what_it_runs(argv):
    loaded = _loaded_by(argv)
    assert {name for name in loaded if name.startswith("parkres.")} == MODULE_TABLE[tuple(argv)]
    assert not loaded & {"argparse", "gettext", "locale"}
    assert ("json" in loaded) == ("json" in argv)
    prints_csv = argv[0] == "table" and "json" not in argv and "-h" not in argv
    assert ("csv" in loaded) == (prints_csv or "csv" in argv)


def test_module_table_covers_every_subcommand():
    commands = {argv[0] for argv in MODULE_TABLE}
    assert commands == set(COMMANDS) | {"--version", "-h"}


def test_verify_request_imports_the_suites():
    assert "parkres.verify" in _loaded_by(["verify", "orbits", "--n-max", "3"])


def test_output_determinism(capsys):
    first = run(capsys, "count", "pf", "--n", "6", "--s", "4", "--format", "json")
    second = run(capsys, "count", "pf", "--n", "6", "--s", "4", "--format", "json")
    assert first == second


# Tokens the parser must refuse somewhere: a non-finite budget, a single
# integer where g,s is needed, an unknown format, a zero or negative size.
BAD = ["inf", "3", "yaml", "0", "-1"]
SMALL = [str(v) for v in range(1, 7)]


def _flag(name, values):
    """``name value`` or ``name=value``, with ``name`` spelled out or cut to
    a prefix of four characters, which names no other flag."""
    spelling = st.sampled_from([name, name[:4]])
    value = st.sampled_from(values + BAD)
    return st.one_of(
        st.tuples(spelling, value), st.builds(lambda flag, v: (f"{flag}={v}",), spelling, value)
    )


# Tokens any command may meet: an unknown flag, with or without a value,
# help, and the bare -- that ends the flags.
STRAY = st.sampled_from([("--bogus", "1"), ("--x=1",), ("-q",), ("-h",), ("--help",), ("--",)])
# The end of an argv: nothing, or a flag whose value is missing.
TAIL = st.sampled_from([[]] * 4 + [["--n"], ["--format"], ["--spots"], ["--budget="]])


def _choice(valid):
    """A valid positional half of the time, a bad token otherwise."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(BAD))


def _command(head, positional, flags):
    # flags are drawn with repeats, so the last of a repeated flag is used
    return st.builds(
        lambda pos, chosen, tail: [head, pos] + [tok for pair in chosen for tok in pair] + tail,
        positional,
        st.lists(st.one_of(st.one_of(flags), STRAY), max_size=4),
        TAIL,
    )


def _argv():
    # --g and --s stay small so that a modular length g*s - k is at most 9.
    restriction = [
        _flag("--n", SMALL),
        _flag("--s", ["1", "2"]),
        _flag("--set", ["1", "1,2", "1,3,5", "2,4", "1,9"]),
        _flag("--g", ["1", "2"]),
        _flag("--k", ["1", "2", "6"]),
    ]
    fmt = _flag("--format", ["text", "json", "csv"])
    budget = _flag("--budget", ["1e7", "100", "2.5"])
    kind = _choice(["pf", "ppf"])
    method = _flag("--method", list(METHODS))
    prefs = st.lists(st.sampled_from(SMALL + BAD + ["7", "x"]), max_size=6).map(",".join)
    family = _choice(list(formulas.TABLES))
    suite = _choice(verify.suite_names())
    return st.one_of(
        _command("count", kind, restriction + [method, fmt, budget]),
        _command("enum", kind, restriction + [fmt, budget]),
        _command(
            "simulate",
            prefs,
            [_flag("--spots", SMALL), _flag("--circular", ["1,2", "2,3", "3,2", "1,x"]), fmt],
        ),
        _command(
            "table",
            family,
            [_flag("--n-max", SMALL), _flag("--n", SMALL), _flag("--s", SMALL), fmt],
        ),
        # an --n-max of at most 3 and a small --budget keep each verify
        # example near 0.1 s
        st.builds(
            lambda head, n_max, budget: head + list(n_max + budget),
            _command("verify", suite, [fmt]),
            _flag("--n-max", ["0", "1", "2", "3"]),
            _flag("--budget", ["100", "2.5"]),
        ),
        # the top level: no argv, help, the version, an unknown flag
        st.sampled_from(
            [[], ["-h"], ["--help"], ["--he"], ["--version"], ["--vers"], ["--bogus"], ["-h", "nope"]]
        ),
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_argv())
def test_cli_never_crashes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), argv


@st.composite
def _count_argv(draw):
    """A well-formed ``count`` of [s]-restricted lists: (argv, kind, n, s,
    method), with ``--method`` and ``--format`` each left out at times."""
    kind = draw(st.sampled_from(["pf", "ppf"]))
    n = draw(st.integers(1, 7))
    s = draw(st.integers(1, n))
    argv = ["count", kind, "--n", str(n), "--s", str(s)]
    method = draw(st.sampled_from([None, "auto", "brute", "subtractive", "alternating"]))
    if method is not None:
        argv += ["--method", method]
    fmt = draw(st.sampled_from([None, "text", "json"]))
    if fmt is not None:
        argv += ["--format", fmt]
    return argv, kind, n, s, method or "auto"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_count_argv())
def test_well_formed_count_prints_the_oracle(case):
    argv, kind, n, s, method = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    forms = routes(kind, {"kind": "segment", "s": s}, n)
    if method not in ("auto", "brute") and method not in forms:
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: no {method} formula"), argv
        return
    oracle = brute.count_restricted if kind == "pf" else brute.count_prime_restricted
    want = oracle(n, range(1, s + 1))
    assert (code, err) == (0, ""), argv
    value = json.loads(out)["count"] if "json" in argv else out.strip()
    assert value == str(want), argv
