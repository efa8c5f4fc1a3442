#!/usr/bin/env python3
"""Benchmark of parkres: one workload per run, or all of them.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and builds nothing.  Workloads: enumerate, stream, closed_forms,
cli (see ``workloads.py`` and ``BENCHMARK.json`` for why each exists), or
``all`` to run the four one after another and print every metric prefixed
with its workload.

``--trace 0`` measures the end-to-end metrics.  One cycle of the
workload's requests runs in as many passes as fit in ``--seconds`` (at
least three), each in a fresh interpreter with one closed-loop client
(``client.py``), each pass in its own order of the same requests.

Every time is scaled to the reference speed by the calibration probes
taken around it (``calibration.py``: an interpreter start for the cli mix
and the set-up time, a Python loop for the others), because other tenants
of a shared host change its speed by half for minutes at a time.  The
unscaled times and the speed are printed beside the metrics.  The run and
its children are pinned to one core, where the probes run too.

Each request counts at its median over the passes; the wall time is the
sum of those and the latency percentiles are taken over them.  Set-up
time is the median time of a fresh interpreter to import ``parkres``,
probed before each pass.  No run keeps more than two processes busy.

``--trace 1`` measures the per-layer metrics.  It runs every workload, so
each per-layer metric is measured whichever workload is named: a pass
traced from outside the package (``tracing.py``), and the same requests
untraced for the tracing overhead, each in a fresh interpreter, plus the
CLI cold start and the ``--threads 2`` speed-up of modular verification.

Human-readable lines, including the environment, come first.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  A failed check makes the exit code 1.  Every result is also
written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

TIME_LIMIT_S = 170
MIN_PASSES = 3
SETUP_PROBES_PER_PASS = 2
COLD_START_REPEATS = 7
IMPORT_PROBE = "import time; t = time.perf_counter(); import parkres; print(time.perf_counter() - t)"

RATE_LAYERS = (
    "brute.count_restricted",
    "brute.count_prime_restricted",
    "brute.count_min_defect",
    "brute.ones_distribution",
    "circular.verify_relation",
)
STREAM_LAYERS = ("brute.enum_restricted", "brute.enum_prime_restricted")
BUSY_LAYERS = (
    "brute.fiber_size_bruteforce",
    "brute.count_nondecreasing_restricted",
    "formulas.mod_count",
    "formulas.restricted",
    "formulas.ones_poly",
    "formulas.abel_check",
    "formulas.catalan_triangle",
    "core.park",
    "bijections.involution",
)
CALL_LAYERS = ("formulas.mod_count", "core.park", "bijections.involution")
SELF_LAYERS = ("circular.verify_relation", "cli.main")


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a wrong result)."""


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        # Cached bytecode, as an installed package has it: without it every
        # import of parkres, so every cli request, compiles the sources again.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )

    def child(self, argv) -> str:
        """Run ``python argv`` from the checkout root; its stdout.  The child
        gets its own process group, which is killed if time runs out."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"out of time before {argv[:3]}")
        with subprocess.Popen(
            [sys.executable, *argv],
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        ) as proc:
            try:
                out, err = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                raise BenchError(f"{argv[:3]} ran out of time")
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.communicate()
        if proc.returncode != 0:
            raise BenchError(f"{argv[:3]} exited {proc.returncode}: {err.strip()[-800:]}")
        return out

    def client(self, *args) -> dict:
        return json.loads(self.child([str(HERE / "client.py"), *args]).splitlines()[-1])

    def import_time(self) -> float:
        return float(self.child(["-c", IMPORT_PROBE]).split()[-1])

    def cli_round_trip(self) -> float:
        t0 = time.perf_counter()
        out = self.child(["-m", "parkres.cli", "--version"])
        elapsed = time.perf_counter() - t0
        if not out.startswith("parkres"):
            raise BenchError(f"unexpected --version output {out!r}")
        return elapsed


# ---------------------------------------------------------------- statistics


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it
    (nearest rank); 50 when there are too few samples for any."""
    best = 50
    for p in range(50, 100):
        if n - math.ceil(p * n / 100) >= 10:
            best = p
    return best


def harrell_davis(sorted_values, p: int) -> float:
    """Harrell-Davis estimate of the p-th percentile: every order statistic
    weighted by the Beta((n+1)q, (n+1)(1-q)) mass over its slot, q = p/100.

    The request sizes of a mix spread over three decades, so neighbouring
    per-request times are 10-25 % apart and a single order statistic jumps
    by that much when two requests trade places; this estimate moves
    smoothly instead."""
    n = len(sorted_values)
    q = p / 100
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    steps = 64  # midpoint rule within each slot [i/n, (i+1)/n]
    logs = [
        [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
         for t in ((i + (j + 0.5) / steps) / n for j in range(steps))]
        for i in range(n)
    ]
    top = max(max(row) for row in logs)
    weights = [sum(math.exp(v - top) for v in row) for row in logs]
    return sum(w * x for w, x in zip(weights, sorted_values)) / sum(weights)


def median_of(measure, repeats: int) -> float:
    measure()  # warm-up: a fresh checkout compiles its bytecode here
    return statistics.median(measure() for _ in range(repeats))


def _metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------- runs


def run_untraced(runner, workloads, workload, seed, seconds):
    args = ["--workload", workload, "--seed", str(seed), "--cycles", "1", "--mode", "pass"]
    runner.import_time()  # warm-up: a fresh checkout compiles its bytecode here
    setup_times, setup_probes, passes = [], [calibration.probe("process")], []
    began = time.monotonic()
    # Passes until the next one would end past ``seconds``, at least
    # MIN_PASSES: a run lasts as long on a slow machine as on a fast one, and
    # the number of passes changes only how many samples each median has.
    while len(passes) < MIN_PASSES or (
        (time.monotonic() - began) * (len(passes) + 1) / len(passes) <= seconds
    ):
        # Set-up probes are spread over the run, like the passes.
        for _ in range(SETUP_PROBES_PER_PASS):
            setup_times.append(runner.import_time())
            setup_probes.append(calibration.probe("process"))
        passes.append(runner.client(*args, "--pass", str(len(passes))))
    # Every time at the reference speed (calibration.py), then each request
    # at its median over the passes: other tenants of the machine slow it
    # for minutes at a time, which the calibration probes see too.
    kind = workloads.PROBE[workload]
    scaled = []
    for p in passes:
        times = [0.0] * len(p["order"])
        for i, t in zip(p["order"], calibration.scale(p["latencies"], p["probes"], kind)):
            times[i] = t
        scaled.append(times)
    per_request = sorted(statistics.median(times) for times in zip(*scaled))
    n = len(per_request)
    pct = tail_percentile(n)
    attempted = sum(p["requests"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    setup = calibration.scale(setup_times, setup_probes, "process")
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "wall_s": _metric(sum(per_request), "s"),
        "request_p50_s": _metric(harrell_davis(per_request, 50), "s"),
        "request_tail_s": _metric(harrell_davis(per_request, pct), "s"),
        "peak_rss_mb": _metric(max(p["maxrss_kb"] for p in passes) / 1024, "MB"),
        "ok_ratio": _metric(1 - len(failures) / attempted, "ratio"),
    }
    probes = [t for p in passes for t in p["probes"]]
    notes = {
        "passes": len(passes),
        "requests_per_pass": n,
        "tail_percentile": pct,
        "fail_ratio": len(failures) / attempted,
        "unscaled_wall_s": round(statistics.median(p["wall_s"] for p in passes), 4),
        "unscaled_setup_s": round(statistics.median(setup_times), 4),
        "speed": round(calibration.REFERENCE_S[kind] / statistics.median(probes), 4),
        "backend": passes[0]["backend"],
    }
    return metrics, attempted, failures, notes


def layer_metrics(layers, overhead, cold_start_s, speedup) -> dict:
    def get(layer, field):
        if layer not in layers or not layers[layer]["calls"]:
            raise BenchError(f"the traced run never reached {layer}")
        return layers[layer][field]

    m = {}
    for layer in RATE_LAYERS:
        m[f"{layer}.busy_s"] = _metric(get(layer, "busy_s"), "s")
        m[f"{layer}.lists_per_s"] = _metric(get(layer, "work") / get(layer, "busy_s"), "1/s")
    for layer in STREAM_LAYERS:
        m[f"{layer}.items_per_s"] = _metric(get(layer, "work") / get(layer, "busy_s"), "1/s")
    for layer in BUSY_LAYERS:
        m[f"{layer}.busy_s"] = _metric(get(layer, "busy_s"), "s")
    for layer in CALL_LAYERS:
        m[f"{layer}.calls"] = _metric(get(layer, "calls"), "count")
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = _metric(get(layer, "self_s"), "s")
    for layer in sorted(l for l in layers if l.startswith("verify.")):
        m[f"{layer}.busy_s"] = _metric(get(layer, "busy_s"), "s")
    m["cli.cold_start_s"] = _metric(cold_start_s, "s")
    for workload, ratio in overhead.items():
        m[f"trace.overhead_ratio.{workload}"] = _metric(ratio, "ratio")
    m["verify.modular.threads2_speedup"] = _metric(speedup, "ratio")
    return m


def run_traced(runner, workloads, seed, seconds):
    OUT.mkdir(exist_ok=True)
    share = seconds / len(workloads.WORKLOADS)
    layers, overhead = {}, {}
    attempted, failures = 0, []
    for workload in workloads.WORKLOADS:
        common = ["--workload", workload, "--seed", str(seed),
                  "--cycles", str(workloads.cycles_for(workload, share))]
        reference = runner.client(*common, "--mode", "reference")
        traced = runner.client(
            *common, "--mode", "traced", "--spans", str(OUT / f"spans-{workload}.tsv.gz")
        )
        overhead[workload] = traced["wall_s"] / reference["wall_s"]
        for p in (reference, traced):
            attempted += p["requests"]
            failures += p["failures"]
        for layer, row in traced["layers"].items():
            acc = layers.setdefault(layer, dict.fromkeys(row, 0))
            for field, value in row.items():
                acc[field] += value
    cold_start_s = median_of(runner.cli_round_trip, COLD_START_REPEATS)
    modular = {
        threads: runner.client("--mode", "modular", "--threads", str(threads))
        for threads in (1, 2)
    }
    for p in modular.values():
        attempted += p["requests"]
        failures += p["failures"]
    speedup = modular[1]["wall_s"] / modular[2]["wall_s"]
    metrics = layer_metrics(layers, overhead, cold_start_s, speedup)
    notes = {"backend": modular[1]["backend"], "fail_ratio": len(failures) / attempted}
    return metrics, attempted, failures, notes


# ---------------------------------------------------------------- main


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "loadavg_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running child's process group is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if sys.flags.optimize:
        print("refusing to run under -O: it strips the checks the program makes", file=sys.stderr)
        return 2
    if not (SRC / "parkres" / "__init__.py").is_file():
        print(f"no parkres sources under {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in (*workloads.WORKLOADS, "all"):
        print(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS} or all", file=sys.stderr)
        return 2

    if args.trace:
        labels = ["traced"]
    elif args.workload == "all":
        labels = list(workloads.WORKLOADS)
    else:
        labels = [args.workload]
    env = environment()
    if not args.trace:
        # The calibration probes run in this process and the client, the
        # requests in the client and its children: on one core, they all see
        # the same speed.  (Each core of a shared host has its own.)
        env["pinned_cpu"] = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {env["pinned_cpu"]})
    runner = Runner(time.monotonic() + TIME_LIMIT_S * len(labels))
    runs = {}
    try:
        for label in labels:
            if args.trace:
                runs[label] = run_traced(runner, workloads, args.seed, args.seconds)
            else:
                runs[label] = run_untraced(runner, workloads, label, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = os.getloadavg()

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    metrics, attempted, failures, notes = {}, 0, [], {}
    for label, (run_metrics, run_attempted, run_failures, notes[label]) in runs.items():
        env["backend"] = notes[label].pop("backend")
        print(f"# {label}: " + " ".join(f"{k}={v}" for k, v in notes[label].items()))
        for failure in run_failures[:20]:
            print(f"# FAILED request {failure[0]} ({failure[1]}): {failure[2]}")
        prefix = f"{label}." if len(labels) > 1 else ""
        for name, m in run_metrics.items():
            print(f"{prefix + name:45s} {m['value']:.6g} {m['unit']}")
            metrics[prefix + name] = m
        attempted += run_attempted
        failures += run_failures
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, env=env, notes=notes, failures=failures, args=vars(args))
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
