"""Command-line interface: count, enum, simulate, verify, table.

Counts are printed in full decimal.  ``--format json`` emits stable
machine-readable objects; enumerations stream one line per list (as
text, in blocks of lines, one write each).  Exit codes: 0 ok, 2 usage
or domain error (or a request too large to run), 3 verification
mismatch (or an exact computation that was not exact, an internal fault).

The command line is read against one table, :data:`COMMANDS`, by the few
lines of :func:`parse`: each call is a fresh process, and importing and
building the standard library's parser took longer than most requests
run.
"""

from __future__ import annotations

import math
import sys
from itertools import islice, repeat
from types import SimpleNamespace

# Each library module is imported where a request uses it (``formulas``
# by the closed forms, ``brute`` by brute force, ``core`` by parking), as
# each call is a fresh process that pays for every module it loads.
from . import __version__
from .exceptions import BudgetExceeded, NonIntegerIntermediate, ParkresError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3
# ``enum --format text`` writes its lines in blocks of at most this many,
# one write each: on an unbuffered stdout each write is a system call.
ENUM_BLOCK_LINES = 4096


def _parse_ints(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise ParkresError(f"expected comma-separated integers, got {text!r}")


def _parse_budget(text: str) -> int:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 0:
        raise ParkresError(f"--budget must be a finite number >= 0, got {text!r}")
    return int(value)


def _print_json(record) -> None:
    import json  # only here: the other formats never load it

    print(json.dumps(record))


def _restriction_of(args) -> tuple:
    """Resolve flags into (restriction, n); the restriction is the object
    ``count --format json`` reports, of kind segment|set|modular.  A flag
    that the restriction would not read is refused, naming the flag that
    makes it unread."""
    if args.g is not None:
        if args.n is not None:
            raise ParkresError("--n cannot be used with --g, whose restriction has g*s - k cars")
        if args.set is not None:
            raise ParkresError("--set cannot be used with --g, whose allowed spots are 1 mod g")
        if args.s is None or args.k is None:
            raise ParkresError("modular restriction needs --g, --s and --k")
        # routes and brute.restriction_spots refuse g or s < 1 and k outside 1..g*s
        return {"kind": "modular", "g": args.g, "s": args.s, "k": args.k}, args.g * args.s - args.k
    if args.k is not None:
        raise ParkresError(
            "--k cannot be used without --g: only a modular restriction has missing spots"
        )
    if args.n is None:
        raise ParkresError("--n is required without --g")
    if args.set is not None:
        if args.s is not None:
            raise ParkresError("--s cannot be used with --set, which names the allowed spots")
        return {"kind": "set", "elements": sorted(set(_parse_ints(args.set)))}, args.n
    return {"kind": "segment", "s": args.s if args.s is not None else args.n}, args.n


def cmd_count(args) -> int:
    from . import formulas

    restriction, n = _restriction_of(args)
    routes = formulas.routes(args.kind, restriction, n, args.budget)
    method = next(iter(routes)) if args.method == "auto" else args.method
    if method not in routes:
        have = ", ".join(list(routes)[:-1]) or "none"  # the forms, the oracle last
        raise ParkresError(
            f"no {method} formula for this {args.kind} count (closed forms here: {have})"
        )
    value = routes[method]()
    checked = None  # the route that agreed with the printed count
    if args.method == "auto" and method != "brute":
        try:
            check = routes["brute"]()
        except BudgetExceeded:  # beyond the budget the formula stands alone
            pass
        else:
            if check != value:
                print(f"MISMATCH: formula {value}, brute force {check}", file=sys.stderr)
                return EXIT_MISMATCH
            checked = "brute"
    if args.format == "json":
        _print_json(
            {
                "kind": args.kind,
                "n": n,
                "restriction": restriction,
                "count": str(value),
                "method": method,
                "cross_checked": checked,
            }
        )
    else:
        print(value)
    return EXIT_OK


def cmd_enum(args) -> int:
    from . import brute, core

    restriction, n = _restriction_of(args)
    if n > args.budget:  # before the spots are built, as many as the entries of a segment
        raise BudgetExceeded(f"lists of {n} entries exceed --budget {args.budget}")
    spots = brute.restriction_spots(restriction, n)  # distinct, for every kind
    route = brute.enum_restricted if args.kind == "pf" else brute.enum_prime_restricted
    stream = route(n, spots)  # checks the spots before any list, so before their count
    # With two or more spots, |spots|**b > budget for b = budget.bit_length(),
    # so the power past b entries need not be built to refuse it.
    if len(spots) ** min(n, args.budget.bit_length()) > args.budget:
        raise BudgetExceeded(f"{len(spots)}**{n} candidate lists exceed --budget {args.budget}")
    if args.format == "text":  # the outcome and ones are not printed
        lines = map(",".join, map(map, repeat(str), stream))
        write = sys.stdout.write
        while block := list(islice(lines, ENUM_BLOCK_LINES)):
            write("\n".join(block) + "\n")
        return EXIT_OK
    if args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout)
        writer.writerow(["prefs", "outcome", "ones"])
    for prefs in stream:
        outcome = core.outcome_permutation(prefs)
        ones = sum(1 for p in prefs if p == 1)
        if args.format == "json":
            _print_json({"prefs": list(prefs), "n": n, "outcome": list(outcome), "ones": ones})
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
        if args.spots is not None:
            raise ParkresError("--spots cannot be used with --circular, whose street has g*s spots")
        street = _parse_ints(args.circular)
        if len(street) != 2:
            raise ParkresError(f"--circular needs two integers g,s, got {args.circular!r}")
        g, s = street
        from . import circular

        state = circular.circular_park(prefs, g, s)
        parts = circular.decompose(state) if state.empty_count else None
        linear = circular.linearize(state)
        if args.format == "json":
            _print_json(
                {
                    "occupancy": list(state.occupancy),
                    "empty_spots": list(state.empty_spots),
                    "lambda": list(parts.lam) if parts else None,
                    "mu": list(parts.mu) if parts else None,
                    "anchor": parts.anchor if parts else None,
                    "linear": list(linear) if linear is not None else None,
                }
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
    from . import core

    spots = args.spots if args.spots is not None else len(prefs)
    result = core.park(prefs, spots)
    outcome = None
    if result.defect == 0 and spots == len(prefs):
        outcome = result.occupancy
    if args.format == "json":
        _print_json(
            {
                "occupancy": list(result.occupancy),
                "unparked": list(result.unparked),
                "defect": result.defect,
                "outcome": list(outcome) if outcome is not None else None,
            }
        )
    else:
        print(f"occupancy: {_occupancy_text(result.occupancy)}")
        print(f"unparked: {','.join(map(str, result.unparked)) or '-'}")
        print(f"defect: {result.defect}")
        if outcome is not None:
            print(f"outcome: {','.join(map(str, outcome))}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify

    checks = verify.run_suite(args.suite, n_max=args.n_max, budget=args.budget)
    if args.format == "json":
        _print_json(
            {
                "suite": args.suite,
                "ok": all(c.ok for c in checks),
                "checks": [c._asdict() for c in checks],
            }
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
        _print_json({"header": header, "rows": rows})
        return
    import csv

    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


def cmd_table(args) -> int:
    from . import formulas

    if args.family not in formulas.TABLES:
        known = ", ".join(formulas.TABLES)
        raise ParkresError(f"unknown table family {args.family!r} (known: {known})")
    reads, build = formulas.TABLES[args.family]
    read = " and ".join(reads)
    values = {}
    for flag in COMMANDS["table"]["flags"]:
        value = getattr(args, _dest(flag))
        if flag in reads:
            values[_dest(flag)] = reads[flag] if value is None else value
        elif value is not None:
            raise ParkresError(
                f"{flag} cannot be used with table {args.family}, which reads {read}"
            )
    if None in values.values():
        raise ParkresError(f"table {args.family} needs {read}")
    header, rows, mismatches = build(**values)
    for mismatch in mismatches:
        print(f"MISMATCH: table {args.family} {mismatch}", file=sys.stderr)
    if mismatches:
        return EXIT_MISMATCH
    _emit_table(rows, header, args.format)
    return EXIT_OK


def _suites() -> list:
    from . import verify

    return verify.suite_names()


def _families() -> list:
    from . import formulas

    return list(formulas.TABLES)


# The command table.  A flag maps to (type or tuple of choices, default,
# help); a positional is (name, type or choices, help).  A positional
# that names a verify suite or a table family is read as text, which the
# handler refuses if the owning module has no such name; ``names`` lists
# them for the help, importing that module only then.  The first --format
# value is the default.  count and enum share the list flags; verify's
# --budget has no default, as only its modular suite reads it.
LISTS = {
    "--n": (int, None, "number of cars"),
    "--s": (int, None, "allowed spots 1..s (default n)"),
    "--set": (str, None, "explicit allowed spots, e.g. 1,4,7"),
    "--g": (int, None, "row size for modular restriction"),
    "--k": (int, None, "missing spots for modular restriction"),
    "--budget": (
        _parse_budget, 10**7, "brute-force work: count's walk steps, enum's lists and their length"
    ),
}
KIND = ("kind", ("pf", "ppf"), "parking functions or prime parking functions")
COMMANDS = {
    "count": {
        "help": "count (prime) parking functions",
        "positional": KIND,
        "flags": {
            **LISTS,
            "--method": (
                str,
                "auto",
                "auto (the cheapest form, checked by brute force within --budget), brute or a form",
            ),
        },
        "formats": ("text", "json"),
        "run": cmd_count,
    },
    "enum": {
        "help": "stream (prime) parking functions",
        "positional": KIND,
        "flags": LISTS,
        "formats": ("text", "json", "csv"),
        "run": cmd_enum,
    },
    "simulate": {
        "help": "run the parking procedure",
        "positional": ("prefs", str, "comma-separated preferences, e.g. 1,4,4,1,1,7,1"),
        "flags": {
            "--spots": (int, None, "number of spots (default: one per car)"),
            "--circular": (str, None, "g,s for a circular street"),
        },
        "formats": ("text", "json"),
        "run": cmd_simulate,
    },
    "verify": {
        "help": "run cross-verification suites",
        "positional": ("suite", str, "the suite to run"),
        "names": _suites,
        "flags": {
            "--budget": (_parse_budget, None, "candidate lists, for modular alone (default 10**7)"),
            "--n-max": (int, None, "largest n each suite checks (5 at most in bijections, "
                        "involution and fibers)"),
        },
        "formats": ("text", "json"),
        "run": cmd_verify,
    },
    "table": {
        "help": "emit count tables",
        "positional": ("family", str, "the table to emit"),
        "names": _families,
        "flags": {
            "--n-max": (int, None, "rows 1..n-max (default 8)"),
            "--n": (int, None, "cars, for ones"),
            "--s": (int, None, "allowed spots, for ones"),
        },
        "formats": ("csv", "json"),
        "run": cmd_table,
    },
}
# Flags that take no value.
HELP = {"-h": None, "--help": None}
TOP = {**HELP, "--version": None}


def _flags(entry) -> dict:
    """Every flag of a command: its own, --format and -h/--help."""
    formats = entry["formats"]
    return {**entry["flags"], "--format": (formats, formats[0], "output format"), **HELP}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _is_flag(token: str) -> bool:
    return token.startswith("-") and not token[1:2].isdigit()  # -1 is a value


def _match(token: str, flags: dict) -> str:
    """The flag ``token`` names in full or as a unique prefix."""
    if token in flags:
        return token
    found = [flag for flag in flags if len(token) > 2 and flag.startswith(token)]
    if len(found) > 1:
        raise ParkresError(f"ambiguous option: {token} could match {', '.join(found)}")
    if not found:
        raise ParkresError(f"unrecognized arguments: {token}")
    return found[0]


def _convert(name: str, kind, text: str):
    """``text`` as a value of ``name``: one of the choices ``kind``, or
    ``kind(text)``."""
    if isinstance(kind, tuple):
        if text not in kind:
            choices = ", ".join(kind)
            raise ParkresError(f"argument {name}: invalid choice: {text!r} (choose from {choices})")
        return text
    try:
        return kind(text)
    except ValueError:
        raise ParkresError(f"argument {name}: invalid {kind.__name__} value: {text!r}")


def _show(text: str) -> int:
    print(text)
    return EXIT_OK


def parse(argv) -> tuple:
    """``(run, args)`` for a command line: a command's handler and its
    values, or a printer and the help or version text asked for.

    ``--flag value`` and ``--flag=value`` both set a flag, and the value
    may start with ``-``; a unique prefix names a flag; the last of a
    repeated flag wins; after a bare ``--`` every token but ``--`` is
    positional.  Anything else raises :class:`ParkresError` naming the
    token.
    """
    name, entry, flags = None, None, TOP
    values = {}
    ended = False  # by a bare --
    tokens = iter(argv)
    for token in tokens:
        if token == "--":
            ended = True
            continue
        if ended or not _is_flag(token):
            if entry is None:
                name = _convert("command", tuple(COMMANDS), token)
                entry, flags = COMMANDS[name], _flags(COMMANDS[name])
            elif entry["positional"][0] in values:
                raise ParkresError(f"unrecognized arguments: {token}")
            else:
                dest, kind, _ = entry["positional"]
                values[dest] = _convert(dest, kind, token)
            continue
        given, eq, text = token.partition("=")
        flag = _match(given, flags)
        if flags[flag] is None:
            if eq:
                raise ParkresError(f"argument {flag}: ignored explicit argument {text!r}")
            return _show, f"parkres {__version__}" if flag == "--version" else _help(name)
        if not eq:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                raise ParkresError(f"argument {flag}: expected one argument")
        values[_dest(flag)] = _convert(flag, flags[flag][0], text)
    if entry is None:
        raise ParkresError("the following arguments are required: command")
    if entry["positional"][0] not in values:
        raise ParkresError(f"the following arguments are required: {entry['positional'][0]}")
    for flag, spec in flags.items():
        if spec is not None:
            values.setdefault(_dest(flag), spec[1])
    return entry["run"], SimpleNamespace(**values)


def _metavar(kind, name: str) -> str:
    return "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name


def _help(name) -> str:
    """The help of the command ``name``, or of parkres when None."""
    if name is None:
        rows = [(command, entry["help"]) for command, entry in COMMANDS.items()]
        rows += [("-h, --help", "show this help"), ("--version", "print the version")]
        usage = "parkres [-h] [--version] {" + ",".join(COMMANDS) + "} ..."
        about = "Exact counting and simulation of preference-restricted parking functions"
    else:
        entry = COMMANDS[name]
        dest, kind, text = entry["positional"]
        shown = _metavar(tuple(entry["names"]()) if "names" in entry else kind, dest)
        rows = [(shown, text)]
        for flag, spec in _flags(entry).items():
            if spec is not None:
                kind, default, text = spec
                left = f"{flag} {_metavar(kind, flag[2:].upper())}"
                rows.append((left, text if default is None else f"{text} (default {default})"))
        rows.append(("-h, --help", "show this help"))
        usage, about = f"parkres {name} {shown} [options]", entry["help"]
    lines = [f"usage: {usage}", "", about, ""]
    for left, right in rows:  # a long left column puts its help on the next line
        lines += [f"  {left:<20}{right}"] if len(left) < 20 else [f"  {left}", f"{'':<22}{right}"]
    return "\n".join(lines)


def main(argv=None) -> int:
    # Counts print in full decimal at any size: lift the int-to-str digit
    # limit (absent before Python 3.10.7) while the command runs.
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        run, args = parse(sys.argv[1:] if argv is None else argv)
        return run(args)
    except NonIntegerIntermediate as exc:  # a fault of the library, not of the request
        print(f"MISMATCH: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (ParkresError, OverflowError, MemoryError) as exc:  # simulate has no budget to refuse
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
