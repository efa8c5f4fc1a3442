import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from parkres import __version__, core, formulas, verify
from parkres.cli import main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
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
    # a brute-force prime count over row starts counts what enum lists
    code, out, _ = run(capsys, "count", "ppf", "--g", "2", "--s", "2", "--k", "1", "--method", "brute")
    _, listed, _ = run(capsys, "enum", "ppf", "--g", "2", "--s", "2", "--k", "1")
    assert code == 0 and int(out) == len(listed.splitlines()) == 1


def test_count_modular_beyond_budget(capsys):
    # 8**16 candidate lists exceed --budget, so only the recursion runs;
    # the value is the multiplicity-vector count of tests/test_formulas.py
    code, out, _ = run(capsys, "count", "pf", "--g", "2", "--s", "14", "--k", "12", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == "64820487788537"
    assert obj["method"] == "recursion"


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
    }


def test_count_usage_errors(capsys):
    code, _, err = run(capsys, "count", "pf")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "count", "ppf", "--g", "2", "--s", "2", "--k", "1")
    assert code == 2
    code, _, err = run(capsys, "count", "pf", "--set", "1,2", "--n", "3", "--method", "subtractive")
    assert code == 2
    for budget in ("inf", "nan", "-1", "1e400", "lots"):
        code, _, err = run(capsys, "count", "pf", "--n", "4", "--budget", budget)
        assert code == 2 and "budget" in err
    code, _, err = run(capsys, "count", "pf", "--n", "4", "--format", "yaml")
    assert code == 2 and "--format" in err
    # every brute-force path stops at --budget candidate lists
    for argv in (
        ("count", "pf", "--n", "7", "--s", "7", "--method", "brute", "--budget", "10"),
        ("count", "pf", "--n", "7", "--set", "1,2,3,4,5,6,7", "--budget", "10"),
        ("enum", "pf", "--n", "7", "--budget", "10"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:") and "budget" in err
    code, _, err = run(capsys, "enum", "pf", "--n", "-1", "--set", "")
    assert code == 2 and err.startswith("error: --n must be >= 0")
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
        (("orbits", "--n-max", "0"), "--n-max >= 3"),
        (("modular", "--budget", "0"), "the smallest needs 1"),
        (("formulas", "--n-max", "1"), "--n-max >= 2"),
        (("orbits", "--n-max", "2"), "--n-max >= 3"),
        (("all", "--n-max", "2"), "--n-max >= 3"),
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "" and err.startswith("error: ") and least in err
    for argv in (("formulas", "--n-max", "2"), ("orbits", "--n-max", "3"), ("modular", "--budget", "1")):
        assert run(capsys, "verify", *argv)[0] == 0


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == f"parkres {__version__}" == "parkres 0.1.0"


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


def test_output_determinism(capsys):
    first = run(capsys, "count", "pf", "--n", "6", "--s", "4", "--format", "json")
    second = run(capsys, "count", "pf", "--n", "6", "--s", "4", "--format", "json")
    assert first == second


# Tokens the parser must refuse somewhere: a non-finite budget, a single
# integer where g,s is needed, an unknown format, a zero or negative size.
BAD = ["inf", "3", "yaml", "0", "-1"]
SMALL = [str(v) for v in range(1, 7)]


def _flag(name, values):
    return st.tuples(st.just(name), st.sampled_from(values + BAD))


def _command(head, positional, flags):
    return st.builds(
        lambda pos, chosen: [head, pos] + [tok for pair in chosen for tok in pair],
        positional,
        st.lists(st.one_of(flags), max_size=4),
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
    fmt = _flag("--format", ["text", "lines", "json", "csv"])
    budget = _flag("--budget", ["1e7", "100", "2.5"])
    kind = st.sampled_from(["pf", "ppf"] + BAD)
    method = _flag("--method", ["auto", "brute", "subtractive", "alternating"])
    prefs = st.lists(st.sampled_from(SMALL + BAD + ["7", "x"]), max_size=6).map(",".join)
    family = st.sampled_from(["pf-restricted", "ppf-restricted", "catalan-triangle", "ones"] + BAD)
    suite = st.sampled_from(sorted(verify.SUITES) + ["all"] + BAD)
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
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_argv())
def test_cli_never_crashes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
