"""One pass of a workload in a fresh interpreter, driven by one closed-loop
client: each request is sent only after the previous one returned.

    python perfbench/client.py --workload W --seed N --cycles C --mode M [--pass P]

Modes:
  pass       untraced; ``cli`` requests are ``python -m parkres.cli``
             subprocesses (the end-to-end measurement); the workload's
             calibration probe runs before the first request and after
             each request
  reference  untraced; ``cli`` requests call ``parkres.cli.main`` in-process
             (the baseline of the tracing overhead)
  traced     as ``reference``, with every trace point wrapped; writes the
             spans to --spans
  modular    times ``verify.check_modular`` at the budget MODULAR_BUDGET
             with --threads worker processes

Prints one JSON object as its last line.  Results are checked after the
timed loop, with tracing removed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import calibration
import parkres
import workloads

MODULAR_BUDGET = 200_000


def _maxrss_kb() -> int:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def run_pass(requests, mode, tracer=None, probe_kind=None):
    """Run ``requests`` back to back; return latencies, wall time, results
    and the calibration probes (one of ``probe_kind`` before the first
    request and after each, if given).  The wall time is the sum of the
    latencies, so the probes are not in it."""
    inprocess = mode != "pass"
    latencies, results, probes = [], [], []
    if probe_kind:
        probes.append(calibration.probe(probe_kind))
    if tracer is not None:
        tracer.install()
    try:
        for request in requests:
            t0 = time.perf_counter()
            results.append(workloads.run_request(request, cli_inprocess=inprocess))
            latencies.append(time.perf_counter() - t0)
            if probe_kind:
                probes.append(calibration.probe(probe_kind))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return latencies, sum(latencies), results, probes


def check_results(requests, results) -> list:
    failures = []
    for i, (request, result) in enumerate(zip(requests, results)):
        reason = workloads.check_request(request, result)
        if reason is not None:
            failures.append([i, request[0], reason])
    return failures


def _modular(threads: int) -> dict:
    from parkres import verify

    t0 = time.perf_counter()
    checks = verify.check_modular(MODULAR_BUDGET, threads=threads)
    elapsed = time.perf_counter() - t0
    bad = [c.name for c in checks if not c.ok]
    failures = [[0, "check_modular", f"failed: {bad[:3]}"]] if bad or not checks else []
    return {"wall_s": elapsed, "requests": 1, "failures": failures, "checks": len(checks)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cycles", type=int, default=1)
    parser.add_argument("--mode", choices=["pass", "reference", "traced", "modular"], required=True)
    parser.add_argument("--spans", help="file for the spans of a traced pass")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--pass", dest="pass_index", type=int, default=0,
                        help="which pass of a run this is; it sets the request order")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under -O: it strips the checks the program makes", file=sys.stderr)
        return 2

    if args.mode == "modular":
        out = _modular(args.threads)
    else:
        requests = workloads.build_requests(args.workload, args.seed, args.cycles)
        order = workloads.pass_order(requests, args.seed, args.pass_index)
        requests = [requests[i] for i in order]
        tracer = None
        if args.mode == "traced":
            from tracing import Tracer

            tracer = Tracer()
        probe_kind = workloads.PROBE[args.workload] if args.mode == "pass" else None
        latencies, wall, results, probes = run_pass(requests, args.mode, tracer, probe_kind)
        out = {
            "wall_s": wall,
            "requests": len(requests),
            "latencies": latencies,
            "probes": probes,
            "order": order,
            "failures": check_results(requests, results),
        }
        if tracer is not None:
            out["layers"] = tracer.summary()
            if args.spans:
                tracer.write(args.spans)
    out["backend"] = getattr(parkres, "BACKEND", "unknown")
    out["maxrss_kb"] = _maxrss_kb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
