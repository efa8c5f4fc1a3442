"""Span tracing from outside the package.

``Tracer.install`` replaces public functions of ``parkres`` with wrappers
that record one span per call: a parent span id, a start, an end and a
work count.  Every module binding of a function is replaced, because some
modules import functions by name (``circular`` binds ``count_restricted``).
Spans are kept in flat arrays while the traced requests run and are
written out by ``write`` afterwards.

Self time is a span's duration minus the durations of its child spans
(calls are nested and single-threaded, so children never overlap).  A
layer's busy time counts only its outermost spans, so a function that
calls a sibling under the same layer name (``restricted_alternating``
calls ``restricted_subtractive``) is not counted twice.  A stream's span
lasts from the call until the stream is exhausted, consumer included.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from time import perf_counter


def _nominal(n, allowed, *rest):
    if iter(allowed) is allowed:  # a one-shot iterator: leave it to the call
        return 0
    return len(set(allowed)) ** n


def _power(n, s):
    return s**n


def _relation(g, s, k, *rest, **kwargs):
    return s ** (g * s - k)


# (layer name, module, attribute, work per call or None)
TRACE_POINTS = (
    ("cli.main", "parkres.cli", "main", None),
    ("brute.count_restricted", "parkres.brute", "count_restricted", _nominal),
    ("brute.count_prime_restricted", "parkres.brute", "count_prime_restricted", _nominal),
    ("brute.count_min_defect", "parkres.brute", "count_min_defect", _power),
    ("brute.ones_distribution", "parkres.brute", "ones_distribution", _power),
    ("brute.enum_restricted", "parkres.brute", "enum_restricted", None),
    ("brute.enum_prime_restricted", "parkres.brute", "enum_prime_restricted", None),
    ("brute.fiber_size_bruteforce", "parkres.brute", "fiber_size_bruteforce", None),
    ("brute.count_nondecreasing_restricted", "parkres.brute", "count_nondecreasing_restricted", None),
    ("circular.verify_relation", "parkres.circular", "verify_relation", _relation),
    ("formulas.mod_count", "parkres.formulas", "mod_count", None),
    ("formulas.restricted", "parkres.formulas", "restricted_subtractive", None),
    ("formulas.restricted", "parkres.formulas", "restricted_alternating", None),
    ("formulas.restricted", "parkres.formulas", "prime_subtractive", None),
    ("formulas.restricted", "parkres.formulas", "prime_alternating", None),
    ("formulas.ones_poly", "parkres.formulas", "ones_poly_subtractive", None),
    ("formulas.ones_poly", "parkres.formulas", "ones_poly_alternating", None),
    ("formulas.abel_check", "parkres.formulas", "abel_check", None),
    ("formulas.catalan_triangle", "parkres.formulas", "catalan_triangle", None),
    ("core.park", "parkres.core", "park", None),
    ("bijections.involution", "parkres.bijections", "involution", None),
)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self._open_count: list = []
        self.parent = array("l")
        self.name = array("l")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]
        self._patched: list = []

    # ------------------------------------------------------------ recording

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open_count.append(0)
        return self._ids[name]

    def _open(self, nid: int, work: float) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(nid)
        self.outer.append(self._open_count[nid] == 0)
        self._open_count[nid] += 1
        self.work.append(work)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int, nid: int) -> None:
        self.end[sid] = perf_counter()
        self._open_count[nid] -= 1
        if self._stack[-1] == sid:
            self._stack.pop()
        else:  # a stream abandoned out of order
            self._stack.remove(sid)

    def wrap(self, name: str, fn, work=None):
        nid = self._name_id(name)
        if inspect.isgeneratorfunction(fn):

            def traced_stream(*args, **kwargs):
                sid = self._open(nid, 0)
                items = 0
                try:
                    for item in fn(*args, **kwargs):
                        items += 1
                        yield item
                finally:
                    self.work[sid] = items
                    self._close(sid, nid)

            return traced_stream

        def traced(*args, **kwargs):
            sid = self._open(nid, work(*args, **kwargs) if work else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, nid)

        return traced

    # ------------------------------------------------------------ patching

    def _patch_everywhere(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "parkres" or modname.startswith("parkres.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def install(self) -> None:
        """Wrap every trace point and each verify suite."""
        import parkres.cli  # noqa: F401  (loads every module to patch)
        from parkres import verify

        for name, modname, attr, work in TRACE_POINTS:
            original = getattr(sys.modules[modname], attr)
            self._patch_everywhere(original, self.wrap(name, original, work))
        for suite, runner in list(verify.SUITES.items()):
            verify.SUITES[suite] = self.wrap(f"verify.{suite}", runner)
            self._patched.append((verify.SUITES, suite, runner))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patched.clear()

    # ------------------------------------------------------------ reading

    def summary(self) -> dict:
        """Per layer name: calls, busy_s, self_s and work."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_s"] += duration - child[i]
            if self.outer[i]:
                row["busy_s"] += duration
                row["work"] += self.work[i]
        return out

    def write(self, path) -> None:
        """All spans as tab-separated lines: id, parent, name, start, end, work."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\twork\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.work[i]:.0f}\n"
                )
