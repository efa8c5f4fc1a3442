"""Probes that measure how fast the machine runs right now.

On a shared host the same work can take half as long again for minutes at a
time, while other tenants load the cores.  The benchmark therefore runs a
probe before the first request and after each request of a timed pass, and
reports every time scaled to the speed the probes saw around it:

    scaled = measured * REFERENCE_S[kind] / mean(probe before, probe after)

A probe has to slow down the way the work it calibrates does, so there are
two kinds:

- ``kernel`` parks cars with linear probing on a ring, the same kind of list
  indexing and integer work the enumeration kernels and formulas do;
- ``process`` starts an interpreter that imports the standard modules
  ``parkres`` imports, the bulk of a CLI request and of the set-up time.

Neither uses ``parkres``: a change to the program cannot change a probe, so
it moves the scaled times exactly as it moves the measured ones.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

# What one probe takes at the reference speed: about its median on the
# reference machine (2-core VM, Python 3.11).  A scaled time is the time
# the work would take on a machine where the probe takes REFERENCE_S.
REFERENCE_S = {"kernel": 0.004, "process": 0.15}
KERNEL_RUNS = 3
_SPOTS = 64
_ROUNDS = 400
_STDLIB = "import argparse, csv, dataclasses, fractions, json, concurrent.futures.process"


def kernel() -> int:
    occupied = [0] * _SPOTS
    total = 0
    for r in range(_ROUNDS):
        for i in range(_SPOTS):
            occupied[i] = 0
        for car in range(_SPOTS):
            p = (car * 37 + r) % _SPOTS
            while occupied[p]:
                p = (p + 1) % _SPOTS
            occupied[p] = car + 1
        total += occupied[r % _SPOTS]
    return total


def _probe_kernel() -> float:
    """Fastest of a few kernel runs, in seconds."""
    best = float("inf")
    for _ in range(KERNEL_RUNS):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


def _probe_process() -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", _STDLIB], check=True, timeout=60)
    return perf_counter() - t0


_PROBES = {"kernel": _probe_kernel, "process": _probe_process}


def probe(kind: str) -> float:
    """Seconds one probe of ``kind`` takes now."""
    return _PROBES[kind]()


def scale(times, probes, kind: str):
    """``times[i]`` at the reference speed, given the probe taken before it
    (``probes[i]``) and after it (``probes[i + 1]``)."""
    ref = REFERENCE_S[kind]
    return [t * 2 * ref / (probes[i] + probes[i + 1]) for i, t in enumerate(times)]
