"""Tests of the benchmark itself: seeded request lists, result checks,
tracing, and agreement between the metrics it prints and BENCHMARK.json.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
from pathlib import Path

import pytest

import calibration
import run
import workloads
from client import check_results
from parkres import brute, circular, formulas
from tracing import Tracer

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_requests(workload):
    first = workloads.build_requests(workload, 7, 2)
    assert json.dumps(first) == json.dumps(workloads.build_requests(workload, 7, 2))
    assert json.dumps(first) != json.dumps(workloads.build_requests(workload, 8, 2))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_does_not_change_the_work_sizes(workload):
    def size(kind, args):
        if kind == "fiber_size":
            return [len(args[0]), args[1]]
        if kind == "cli":  # the CLI draws small arguments; the request kinds are fixed
            return args[1:] if args[1] == "verify" else args[1]
        if kind in ("restricted_pair", "prime_pair", "ones_pair", "abel", "catalan"):
            return args[0]
        return args

    def sizes(seed):
        requests = workloads.build_requests(workload, seed, 1)
        return sorted(json.dumps([kind, size(kind, args)]) for kind, args in requests)

    assert sizes(1) == sizes(2)


@pytest.mark.parametrize("pass_index", [0, 1, 2])
def test_memo_sharing_kinds_keep_their_order(pass_index):
    requests = workloads.build_requests("closed_forms", 3, 2)
    order = workloads.pass_order(requests, 3, pass_index)
    assert sorted(order) == list(range(len(requests)))
    assert (order == sorted(order)) == (pass_index == 0)
    for kind in workloads.ORDERED_KINDS:
        assert [i for i in order if requests[i][0] == kind] == [
            i for i, r in enumerate(requests) if r[0] == kind
        ]


SMALL = [
    ("count_restricted", [5, 3]),
    ("count_prime_restricted", [5, 3]),
    ("count_row_starts", [7, 3]),
    ("count_min_defect", [5, 3]),
    ("ones_distribution", [5, 3]),
    ("verify_relation", [2, 3, 1]),
    ("enum_restricted", [4, 2]),
    ("enum_prime_restricted", [4, 3]),
    ("enum_row_starts", [5, 2]),
    ("fiber_size", [[2, 1, 3], 2]),
    ("nondecreasing", [5, 3]),
    ("mod_sweep", [2, 3]),
    ("restricted_pair", [30, 10]),
    ("prime_pair", [30, 10]),
    ("ones_pair", [8, 3]),
    ("abel", [6, [3, 7], [-5, 2]]),
    ("catalan", [9, 4]),
    ("cli", [["count", "pf", "--n", "5", "--s", "3"], "count_pf", [5, 3]]),
    ("cli", [["count", "pf", "--g", "2", "--s", "3", "--k", "2", "--format", "json"],
             "count_modular_json", [2, 3, 2]]),
    ("cli", [["simulate", "3,1,1,4", "--spots", "4", "--format", "json"], "simulate", [[3, 1, 1, 4], 4]]),
    ("cli", [["table", "catalan-triangle", "--n-max", "6"], "table_catalan", [6]]),
    ("cli", [["enum", "ppf", "--n", "4", "--s", "3"], "enum_ppf", [4, 3]]),
    ("cli", [["verify", "orbits", "--n-max", "4"], "verify", ["orbits"]]),
]


def _run(request):
    return workloads.run_request(request, cli_inprocess=True)


@pytest.mark.parametrize("request_", SMALL, ids=lambda r: r[0] + ":" + str(r[1])[:40])
def test_correct_results_pass_their_checks(request_):
    assert workloads.check_request(request_, _run(request_)) is None


def _corrupt(result):
    if isinstance(result, int):
        return result + 1
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], str):
        code, out = result  # CLI output: change the last digit printed
        i = max(i for i, ch in enumerate(out) if ch.isdigit())
        return code, out[:i] + str((int(out[i]) + 1) % 10) + out[i + 1 :]
    if isinstance(result, tuple) and len(result) == 4:  # a consumed stream
        return (result[0] - 1,) + result[1:]
    if isinstance(result, tuple) and len(result) == 2:  # a pair of forms
        return result[0], result[1] + 1
    if isinstance(result, tuple):
        return (result[0] + 1,) + result[1:]
    if isinstance(result, dict):
        return {k: v + 1 for k, v in result.items()}
    raise TypeError(type(result))


CORRUPTIBLE = [r for r in SMALL if r[0] not in ("verify_relation", "abel")]


@pytest.mark.parametrize("request_", CORRUPTIBLE, ids=lambda r: r[0] + ":" + str(r[1])[:40])
def test_corrupted_result_is_caught(request_):
    assert workloads.check_request(request_, _corrupt(_run(request_))) is not None


def test_corrupted_expected_value_is_caught(monkeypatch):
    request = ("count_restricted", [6, 3])
    result = _run(request)
    assert workloads.check_request(request, result) is None
    real = formulas.restricted_subtractive
    monkeypatch.setattr(formulas, "restricted_subtractive", lambda n, s: real(n, s) + 1)
    want = f"count: got {result}, want {result + 1}"
    assert check_results([request], [result]) == [[0, "count_restricted", want]]


def test_cli_failures_are_caught():
    request = ("cli", [["verify", "orbits"], "verify", ["orbits"]])
    assert workloads.check_request(request, (0, "suite orbits: 2/3 checks passed\n"))
    assert workloads.check_request(request, (3, "suite orbits: 3/3 checks passed\n"))
    assert workloads.check_request(request, (0, "")) is not None


def test_tracer_records_spans_and_restores_bindings():
    original = brute.count_restricted
    tracer = Tracer()
    tracer.install()
    try:
        assert circular.count_restricted is not original
        circular.verify_relation(2, 3, 1)
        brute.count_restricted(4, (1, 2))
    finally:
        tracer.uninstall()
    assert brute.count_restricted is original and circular.count_restricted is original
    layers = tracer.summary()
    relation = layers["circular.verify_relation"]
    assert relation["calls"] == 1 and relation["work"] == 3**5
    assert 0 < relation["self_s"] < relation["busy_s"]
    counts = layers["brute.count_restricted"]
    assert counts["calls"] >= 2 and counts["work"] >= 2**4


def test_scaling_uses_the_probes_on_either_side():
    ref = calibration.REFERENCE_S["kernel"]
    # A request timed while the machine ran at half speed counts half.
    assert calibration.scale([1.0, 3.0], [2 * ref, 2 * ref, ref], "kernel") == [0.5, 2.0]
    assert calibration.kernel() == calibration.kernel() > 0
    assert set(workloads.PROBE) == set(workloads.WORKLOADS)
    assert all(calibration.probe(kind) > 0 for kind in set(workloads.PROBE.values()))


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(43) == 76
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(12) == 50


def test_harrell_davis_percentiles():
    values = list(range(1, 102))
    assert run.harrell_davis(values, 50) == pytest.approx(51)
    assert run.harrell_davis([0.25] * 9, 71) == pytest.approx(0.25)
    # One request trading places with its neighbour moves the estimate a
    # little, not by the whole gap between them.
    low, high = [1, 2, 3, 4, 10, 11, 12], [1, 2, 3, 9, 10, 11, 12]
    assert 0 < run.harrell_davis(high, 50) - run.harrell_davis(low, 50) < 2


def test_layer_metrics_match_benchmark_json():
    suites = [f"verify.{name}" for name in workloads.CLI_SUITES]
    names = (
        run.RATE_LAYERS + run.STREAM_LAYERS + run.BUSY_LAYERS + run.SELF_LAYERS + tuple(suites)
    )
    layers = {name: {"calls": 1, "busy_s": 1.0, "self_s": 0.5, "work": 2.0} for name in names}
    overhead = dict.fromkeys(workloads.WORKLOADS, 1.1)
    emitted = run.layer_metrics(layers, overhead, 0.2, 1.5)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in emitted.items()} == declared
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
