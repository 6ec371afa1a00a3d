"""Command-line interface: one JSON record on stdout (a CSV table for ``table1 --format csv``).

Progress and errors go to stderr; exit codes are 0 success, 1 verification
failure, 2 usage error.  ``_COMMANDS`` declares every subcommand's runner and
flags, and ``_parse`` and the help read it, so no command loads argparse.  Each
runner imports only its own submodule: a cold ``count`` never loads ``ratefn``,
``optimize`` or ``construct``.  ``runtimeMillis`` times the runner alone.
"""
import json
import math
import sys
import time
from types import SimpleNamespace

SCHEMA_VERSION = "1"


def _emit(command: str, parameters: dict, results, started: float) -> None:
    record = {
        "schemaVersion": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "results": results,
        "runtimeMillis": int((time.perf_counter() - started) * 1000),
    }
    # serialize fully first, so a failure leaves no partial record on stdout;
    # a non-finite float raises ValueError (exit 2) rather than printing NaN
    text = json.dumps(record, indent=2, allow_nan=False)
    sys.stdout.write(text + "\n")


def _cmd_count(args) -> int:
    from . import wcount

    started = time.perf_counter()
    cv = wcount.count_W(wcount.WParams(args.m, args.L, args.B))
    _emit(
        "count",
        {"m": args.m, "L": args.L, "B": args.B},
        {"count": cv.exact, "log_count": cv.log_value if cv.exact > 0 else None},
        started,
    )
    return 0


def _cmd_enumerate(args) -> int:
    from . import wcount

    started = time.perf_counter()
    vectors = wcount.enumerate_W(wcount.WParams(args.m, args.L, args.B))
    _emit(
        "enumerate",
        {"m": args.m, "L": args.L, "B": args.B},
        {"count": len(vectors), "vectors": [list(v) for v in vectors]},
        started,
    )
    return 0


def _cmd_rate(args) -> int:
    from . import ratefn

    started = time.perf_counter()
    res = ratefn.rate_I(ratefn.RateQuery(args.c, args.B))
    if res.t_star is None:
        t_star = None
    elif math.isinf(res.t_star):
        t_star = "-inf"
    else:
        t_star = res.t_star
    _emit(
        "rate",
        {"c": args.c, "B": args.B},
        {
            "value": res.value,
            "t_star": t_star,
            "iterations": res.iterations,
            "residual": res.residual,
        },
        started,
    )
    return 0


def _cmd_bound(args) -> int:
    from . import construct, wcount

    started = time.perf_counter()
    p = wcount.WParams(args.m, args.L, args.B)
    report = construct.theta_bound(p)
    if args.dump_set is not None:
        U = construct.build_U(p)
        # the written set must be the one the counted record describes
        if len(U) != report.set_size.exact or 2 * max(U) + 1 != report.q:
            print(
                f"error: enumerated U (|U| = {len(U)}, q = {2 * max(U) + 1}) disagrees "
                f"with the counts (|U| = {report.set_size.exact}, q = {report.q})",
                file=sys.stderr,
            )
            return 1
        with open(args.dump_set, "w") as fh:
            fh.writelines(f"{u}\n" for u in U)
        print(f"wrote {len(U)} elements to {args.dump_set}", file=sys.stderr)
    _emit(
        "bound",
        {"m": args.m, "L": args.L, "B": args.B},
        {
            "set_size": report.set_size.exact,
            "d": report.d.exact,
            "s": report.s.exact,
            "q": report.q,
            "theta": report.theta,
        },
        started,
    )
    return 0


def _cmd_verify(args) -> int:
    from . import construct, wcount

    started = time.perf_counter()
    if args.max_m < 0 or args.max_L < 0 or args.max_B < 1:
        raise ValueError(
            "the grid is empty: need --max-m >= 0, --max-L >= 0 and --max-B >= 1, got "
            f"{args.max_m}, {args.max_L} and {args.max_B}"
        )
    construct._check_pairs(wcount.WParams(args.max_m, args.max_L, args.max_B))  # the grid's largest triple
    checked = []
    for m in range(args.max_m + 1):
        for L in range(args.max_L + 1):
            for B in range(1, args.max_B + 1):
                s, d, g = construct.verify_triple(wcount.WParams(m, L, B))
                checked.append({"m": m, "L": L, "B": B, "sumset_identity": s, "diffset_identity": d, "injective_g": g})
        print(f"verified m={m}", file=sys.stderr)
    all_pass = all(r["sumset_identity"] and r["diffset_identity"] and r["injective_g"] for r in checked)
    _emit(
        "verify",
        {"max_m": args.max_m, "max_L": args.max_L, "max_B": args.max_B},
        {"checked": checked, "all_pass": all_pass},
        started,
    )
    return 0 if all_pass else 1


def _cmd_optimize(args) -> int:
    from . import optimize

    started = time.perf_counter()
    report = optimize.maximize_r(args.B, args.eps)
    _emit(
        "optimize",
        {"B": args.B, "eps": args.eps},
        report._asdict(),
        started,
    )
    return 0


def _cmd_table1(args) -> int:
    from . import optimize

    started = time.perf_counter()
    eps_list = optimize.TABLE_EPS if args.eps_list is None else args.eps_list
    rows = optimize.table1(tuple(eps_list), args.b_range)
    if args.format == "csv":
        header = ["B"] + [f"eps={eps:g}" for eps in eps_list]
        sys.stdout.write(",".join(header) + "\n")
        for row in rows:
            cells = [str(row[0].B)] + [repr(cell.theta_minus_1) for cell in row]
            sys.stdout.write(",".join(cells) + "\n")
        return 0
    _emit(
        "table1",
        {"eps_list": list(eps_list), "b_range": list(args.b_range)},
        {
            "b_values": [row[0].B for row in rows],
            "cells": [[cell._asdict() for cell in row] for row in rows],
        },
        started,
    )
    return 0


def _b_range(text: str) -> tuple[int, int]:
    lo, hi = text.split("..")  # ValueError unless there is exactly one ".."
    return int(lo), int(hi)


_MLB = {"--m": (int, ...), "--L": (int, ...), "--B": (int, ...)}
#: subcommand -> (runner, help, {flag: (type, default)}); the default ... marks a flag
#: that must be given, a type in a list takes one or more values, and a tuple of strings
#: lists the choices.  --eps-list None is optimize.TABLE_EPS, resolved in _cmd_table1 so
#: that parsing loads no optimize.
_COMMANDS = {
    "count": (_cmd_count, "exact |W(m, L, B)|", _MLB),
    "enumerate": (_cmd_enumerate, "list W(m, L, B) lexicographically", _MLB),
    "rate": (_cmd_rate, "rate function I(c, B)", {"--c": (float, ...), "--B": (int, ...)}),
    "bound": (_cmd_bound, "exponent bound of U = g(W) from exact counts", {**_MLB, "--dump-set": (str, None)}),
    "verify": (_cmd_verify, "check the counting identities on a grid",
               {"--max-m": (int, 4), "--max-L": (int, 5), "--max-B": (int, 3)}),
    "optimize": (_cmd_optimize, "maximize the bound for one B", {"--B": (int, ...), "--eps": (float, ...)}),
    "table1": (_cmd_table1, "the B x eps table of optima",
               {"--eps-list": ([float], None), "--b-range": (_b_range, (3, 10)), "--format": (("json", "csv"), "json")}),
}


def _metavar(kind) -> str:
    if isinstance(kind, (list, tuple)):
        return _metavar(kind[0]) + " [...]" if isinstance(kind, list) else "{" + ",".join(kind) + "}"
    return {int: "INT", float: "X", str: "PATH", _b_range: "LO..HI"}[kind]


def _usage(name: str) -> str:
    flags = _COMMANDS[name][2].items()
    return " ".join(["sumdiff", name] + [f"{f} {_metavar(k)}" if d is ... else f"[{f} {_metavar(k)}]" for f, (k, d) in flags])


def _exit(name: str | None, error: str = ""):
    """Help on stdout and exit 0; with an error, the usage line and the error on stderr and exit 2."""
    usage = "usage: " + (_usage(name) if name else "sumdiff COMMAND [--flag value ...]")
    if error:
        sys.stderr.write(f"{usage}\nsumdiff{' ' + name if name else ''}: error: {error}\n")
        raise SystemExit(2)
    helps = [f"  {_usage(cmd)}\n      {text}" for cmd, (_, text, _) in _COMMANDS.items()]
    print(usage, "", *(helps if name is None else [_COMMANDS[name][1]]), sep="\n")
    raise SystemExit(0)


def _parse(argv: list[str]):
    """(runner, args) for argv; a value never starts with "--", so a negative number is one."""
    name = argv[0] if argv else None
    if "-h" in argv or "--help" in argv:
        _exit(name if name in _COMMANDS else None)
    if name not in _COMMANDS:
        _exit(None, "a command is required" if name is None else f"invalid command: {name!r}")
    run, _, flags = _COMMANDS[name]
    given, i = {}, 1
    while i < len(argv):  # --flag value, or --flag=value
        flag, eq, text = argv[i].partition("=")
        if flag not in flags:
            _exit(name, f"unrecognized argument: {argv[i]}")
        kind, j = flags[flag][0], i + 1
        one = kind[0] if (many := isinstance(kind, list)) else kind
        while not eq and j < len(argv) and not argv[j].startswith("--") and (many or j == i + 1):
            j += 1
        texts, i = ([text] if eq else argv[i + 1 : j]), j
        try:  # tuple.index raises ValueError on a text outside the choices, values[0] IndexError on none
            values = [one[one.index(t)] if isinstance(one, tuple) else one(t) for t in texts]
            given[flag] = values if many and values else values[0]
        except (IndexError, ValueError):
            _exit(name, f"argument {flag}: expected {_metavar(kind)}, got {' '.join(texts)!r}")
    if missing := [f for f, (_, d) in flags.items() if d is ... and f not in given]:
        _exit(name, "the following flags are required: " + ", ".join(missing))
    return run, SimpleNamespace(**{f[2:].replace("-", "_"): given.get(f, d) for f, (_, d) in flags.items()})


def main(argv: list[str] | None = None) -> int:
    # exact counts may run past the interpreter's default 4300-digit limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    run, args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return run(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
