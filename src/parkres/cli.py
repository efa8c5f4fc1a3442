"""Command-line interface: count, enum, simulate, verify, table.

Counts are printed in full decimal.  ``--format json`` emits stable
machine-readable objects; enumerations stream one line per list.  Exit
codes: 0 ok, 2 usage or domain error, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from . import __version__, bijections, brute, circular, core, formulas, verify
from .exceptions import BudgetExceeded, ParkresError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3


def _parse_ints(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise ParkresError(f"expected comma-separated integers, got {text!r}")


def _parse_budget(text: str) -> int:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad budget {text!r}")
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"budget must be a finite number >= 0, got {text!r}"
        )
    return int(value)


def _common_flags(sub: argparse.ArgumentParser, budget: bool = False) -> None:
    sub.add_argument("--format", default="text", choices=["text", "lines", "json", "csv"])
    if budget:
        sub.add_argument(
            "--budget",
            type=_parse_budget,
            default=10**7,
            help="max candidate lists for brute-force work (default 1e7)",
        )


def _restriction_of(args) -> tuple:
    """Resolve flags into (kind, payload, n, allowed spots).
    kind: segment|set|modular."""
    if args.g is not None:
        if args.s is None or args.k is None:
            raise ParkresError("modular restriction needs --g, --s and --k")
        if args.g < 1 or args.s < 1:
            raise ParkresError(f"--g and --s must be >= 1, got g={args.g}, s={args.s}")
        n = args.g * args.s - args.k
        if n < 0:
            raise ParkresError("--k exceeds g*s")
        allowed = tuple(v for v in circular.preferred_spots(args.g, args.s) if v <= n)
        return "modular", (args.g, args.s, args.k), n, allowed
    if args.n is None:
        raise ParkresError("--n is required without --g")
    if args.n < 0:
        raise ParkresError(f"--n must be >= 0, got {args.n}")
    if args.set is not None:
        spots = _parse_ints(args.set)
        return "set", spots, args.n, spots
    s = args.s if args.s is not None else args.n
    return "segment", s, args.n, tuple(range(1, s + 1))


def _count_formula(kind: str, rkind: str, payload, n: int, method: str):
    """Closed-form count, or None when no formula applies: an explicit set,
    or zero cars under ``auto`` (the segment forms need 1 <= s <= n)."""
    if rkind == "set" or (n == 0 and method == "auto"):
        return None
    if rkind == "modular":
        g, s, k = payload
        if kind != "pf":
            raise ParkresError("modular counting is defined for pf only")
        return formulas.mod_count(g, s, k)
    s = payload
    if kind == "pf":
        if method == "alternating":
            return formulas.restricted_alternating(n, s)
        return formulas.restricted_subtractive(n, s)
    if s >= n:
        return formulas.ppf_total(n)
    if method == "alternating":
        return formulas.prime_alternating(n, s)
    return formulas.prime_subtractive(n, s)


def _count_brute(kind: str, allowed: tuple, n: int) -> int:
    if kind == "pf":
        return brute.count_restricted(n, allowed)
    return brute.count_prime_restricted(n, allowed)


def _space_size(allowed: tuple, n: int) -> int:
    """Candidate lists a brute-force walk over ``allowed`` may visit."""
    return len(set(allowed)) ** n


def _within_budget(allowed: tuple, n: int, budget: int) -> None:
    size = _space_size(allowed, n)
    if size > budget:
        raise BudgetExceeded(f"{size} candidate lists exceed --budget {budget}")


def _restriction_json(rkind: str, payload):
    if rkind == "segment":
        return {"kind": "segment", "s": payload}
    if rkind == "set":
        return {"kind": "set", "elements": list(payload)}
    g, s, k = payload
    return {"kind": "modular", "g": g, "s": s, "k": k}


def cmd_count(args) -> int:
    rkind, payload, n, allowed = _restriction_of(args)
    method = args.method
    if method in ("subtractive", "alternating") and rkind != "segment":
        where = "an explicit set" if rkind == "set" else "a modular restriction"
        raise ParkresError(f"no {method} formula for {where}")
    value = None if method == "brute" else _count_formula(args.kind, rkind, payload, n, method)
    if value is None:
        _within_budget(allowed, n, args.budget)
        value = _count_brute(args.kind, allowed, n)
        method_used = "brute"
    else:
        if rkind == "modular":
            method_used = "recursion"
        else:
            method_used = "alternating" if method == "alternating" else "subtractive"
        if method == "auto" and _space_size(allowed, n) <= args.budget:
            check = _count_brute(args.kind, allowed, n)
            if check != value:
                print(
                    f"MISMATCH: formula {value}, brute force {check}",
                    file=sys.stderr,
                )
                return EXIT_MISMATCH
    if args.format == "json":
        print(
            json.dumps(
                {
                    "kind": args.kind,
                    "n": n,
                    "restriction": _restriction_json(rkind, payload),
                    "count": str(value),
                    "method": method_used,
                }
            )
        )
    else:
        print(value)
    return EXIT_OK


def cmd_enum(args) -> int:
    _, _, n, allowed = _restriction_of(args)
    _within_budget(allowed, n, args.budget)
    stream = (
        brute.enum_restricted(n, allowed)
        if args.kind == "pf"
        else brute.enum_prime_restricted(n, allowed)
    )
    if args.format not in ("json", "csv"):  # the outcome and ones are not printed
        for prefs in stream:
            print(",".join(map(str, prefs)))
        return EXIT_OK
    writer = None
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["prefs", "outcome", "ones"])
    for prefs in stream:
        outcome = core.outcome_permutation(prefs)
        ones = sum(1 for p in prefs if p == 1)
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "prefs": list(prefs),
                        "n": n,
                        "outcome": list(outcome),
                        "ones": ones,
                    }
                )
            )
        else:
            writer.writerow(
                [",".join(map(str, prefs)), ",".join(map(str, outcome)), ones]
            )
    return EXIT_OK


def _occupancy_text(occupancy) -> str:
    return ",".join("-" if car is None else str(car) for car in occupancy)


def cmd_simulate(args) -> int:
    prefs = _parse_ints(args.prefs)
    if args.circular is not None:
        street = _parse_ints(args.circular)
        if len(street) != 2:
            raise ParkresError(f"--circular needs two integers g,s, got {args.circular!r}")
        g, s = street
        state = circular.circular_park(prefs, g, s)
        parts = circular.decompose(state) if state.empty_count else None
        linear = circular.linearize(state)
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "occupancy": list(state.occupancy),
                        "empty_spots": list(state.empty_spots),
                        "lambda": list(parts.lam) if parts else None,
                        "mu": list(parts.mu) if parts else None,
                        "anchor": parts.anchor if parts else None,
                        "linear": list(linear) if linear is not None else None,
                    }
                )
            )
        else:
            print(f"occupancy: {_occupancy_text(state.occupancy)}")
            print(f"empty spots: {','.join(map(str, state.empty_spots)) or '-'}")
            if parts:
                print(f"gap sizes: {','.join(map(str, parts.lam))}")
                print(f"block rows: {','.join(map(str, parts.mu))}")
                print(f"anchor spot: {parts.anchor}")
            if linear is None:
                print("linear: NONE")
            else:
                print(f"linear: {','.join(map(str, linear)) or '()'}")
        return EXIT_OK
    spots = args.spots if args.spots is not None else len(prefs)
    result = core.park(prefs, spots)
    outcome = None
    if result.defect == 0 and spots == len(prefs):
        outcome = result.occupancy
    if args.format == "json":
        print(
            json.dumps(
                {
                    "occupancy": list(result.occupancy),
                    "unparked": list(result.unparked),
                    "defect": result.defect,
                    "outcome": list(outcome) if outcome is not None else None,
                }
            )
        )
    else:
        print(f"occupancy: {_occupancy_text(result.occupancy)}")
        print(f"unparked: {','.join(map(str, result.unparked)) or '-'}")
        print(f"defect: {result.defect}")
        if outcome is not None:
            print(f"outcome: {','.join(map(str, outcome))}")
    return EXIT_OK


def cmd_verify(args) -> int:
    checks = verify.run_suite(args.suite, n_max=args.n_max, budget=args.budget)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "suite": args.suite,
                    "ok": all(c.ok for c in checks),
                    "checks": [
                        {"name": c.name, "ok": c.ok, "detail": c.detail}
                        for c in checks
                    ],
                }
            )
        )
    else:
        width = max(len(c.name) for c in checks) + 2
        for c in checks:
            status = "pass" if c.ok else f"FAIL  {c.detail}"
            print(f"{c.name:<{width}} {status}")
        passed = sum(1 for c in checks if c.ok)
        print(f"suite {args.suite}: {passed}/{len(checks)} checks passed")
    return EXIT_OK if all(c.ok for c in checks) else EXIT_MISMATCH


def _emit_table(rows, header, fmt) -> None:
    if fmt == "json":
        print(json.dumps({"header": header, "rows": rows}))
        return
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


def cmd_table(args) -> int:
    fmt = args.format if args.format != "text" else "csv"
    n_max = 8 if args.n_max is None else args.n_max
    if n_max < 1 and args.family != "ones":
        raise ParkresError(f"table {args.family} needs --n-max >= 1, got {n_max}")
    if args.family == "pf-restricted":
        header = ["n"] + [f"s={s}" for s in range(1, n_max + 1)]
        rows = [
            [n]
            + [formulas.restricted_subtractive(n, s) for s in range(1, n + 1)]
            + [""] * (n_max - n)
            for n in range(1, n_max + 1)
        ]
    elif args.family == "ppf-restricted":
        header = ["n"] + [f"s={s}" for s in range(1, n_max + 1)]
        rows = []
        for n in range(1, n_max + 1):
            row = [n]
            for s in range(1, n + 1):
                row.append(
                    formulas.ppf_total(n) if s == n else formulas.prime_subtractive(n, s)
                )
            rows.append(row + [""] * (n_max - n))
    elif args.family == "catalan-triangle":
        header = ["n"] + [f"k={k}" for k in range(n_max)]
        rows = [
            [n]
            + [formulas.catalan_triangle(n, k) for k in range(n)]
            + [""] * (n_max - n)
            for n in range(1, n_max + 1)
        ]
    elif args.family == "ones":
        if args.n is None or args.s is None:
            raise ParkresError("table ones needs --n and --s")
        poly = formulas.ones_poly_subtractive(args.n, args.s)
        header = [f"x^{k}" for k in range(args.n + 1)]
        rows = [[poly.coefficient(k) for k in range(args.n + 1)]]
    else:
        raise ParkresError(f"unknown table family {args.family!r}")
    _emit_table(rows, header, fmt)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parkres",
        description="Exact counting and simulation of preference-restricted parking functions",
    )
    parser.add_argument(
        "--version", action="version", version=f"parkres {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count (prime) parking functions")
    p_count.add_argument("kind", choices=["pf", "ppf"])
    p_count.add_argument("--n", type=int)
    p_count.add_argument("--s", type=int)
    p_count.add_argument("--set", help="explicit allowed spots, e.g. 1,4,7")
    p_count.add_argument("--g", type=int, help="row size for modular restriction")
    p_count.add_argument("--k", type=int, help="missing spots for modular restriction")
    p_count.add_argument(
        "--method",
        choices=["auto", "brute", "subtractive", "alternating"],
        default="auto",
    )
    _common_flags(p_count, budget=True)
    p_count.set_defaults(func=cmd_count)

    p_enum = sub.add_parser("enum", help="stream (prime) parking functions")
    p_enum.add_argument("kind", choices=["pf", "ppf"])
    p_enum.add_argument("--n", type=int)
    p_enum.add_argument("--s", type=int)
    p_enum.add_argument("--set")
    p_enum.add_argument("--g", type=int)
    p_enum.add_argument("--k", type=int)
    _common_flags(p_enum, budget=True)
    p_enum.set_defaults(func=cmd_enum, format="lines")

    p_sim = sub.add_parser("simulate", help="run the parking procedure")
    p_sim.add_argument("prefs", help="comma-separated preferences, e.g. 1,4,4,1,1,7,1")
    p_sim.add_argument("--spots", type=int)
    p_sim.add_argument("--circular", help="g,s for a circular street")
    _common_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_verify = sub.add_parser("verify", help="run cross-verification suites")
    p_verify.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    p_verify.add_argument("--n-max", type=int, default=None)
    _common_flags(p_verify, budget=True)
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="emit count tables")
    p_table.add_argument(
        "family",
        choices=["pf-restricted", "ppf-restricted", "catalan-triangle", "ones"],
    )
    p_table.add_argument("--n-max", type=int, default=None)
    p_table.add_argument("--n", type=int)
    p_table.add_argument("--s", type=int)
    _common_flags(p_table)
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Counts print in full decimal at any size: lift the int-to-str digit
    # limit (absent before Python 3.10.7) while the command runs.
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except ParkresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
