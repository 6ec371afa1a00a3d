"""Command-line interface.

Every invocation runs one subcommand and writes a single JSON record to
stdout (or a CSV table for ``table1 --format csv``).  Progress and error
messages go to stderr.  Exit codes: 0 success, 1 verification failure,
2 usage error.

Each subcommand imports only the submodule it runs, so a cold ``count``
never loads ``ratefn``, ``optimize`` or ``construct``.  Every rate solve
runs at the one fixed tolerance ``ratefn.DEFAULT_TOL``; no option sets it.
The record's ``runtimeMillis`` times the subcommand alone: it leaves out
interpreter start, imports and argument parsing.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

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
    vectors = wcount.enumerate_W(wcount.WParams(args.m, args.L, args.B), args.cap)
    _emit(
        "enumerate",
        {"m": args.m, "L": args.L, "B": args.B, "cap": args.cap},
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
        U = construct.build_U(p, args.cap)
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
        {"m": args.m, "L": args.L, "B": args.B, "cap": args.cap},
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
    checked = []
    all_pass = True
    for m in range(args.max_m + 1):
        for L in range(args.max_L + 1):
            for B in range(1, args.max_B + 1):
                p = wcount.WParams(m, L, B)
                row = {
                    "m": m,
                    "L": L,
                    "B": B,
                    "sumset_identity": construct.verify_sumset_identity(p, args.cap),
                    "diffset_identity": construct.verify_diffset_identity(p, args.cap),
                    "injective_g": construct.verify_injectivity(p, "g", args.cap),
                }
                ok = row["sumset_identity"] and row["diffset_identity"] and row["injective_g"]
                all_pass = all_pass and ok
                checked.append(row)
        print(f"verified m={m}", file=sys.stderr)
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


def _parse_b_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo..hi, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumdiff",
        description="Bounded simplex counting, digit-map set construction, and "
        "the growth-exponent bound maximization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mlb(p):
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--L", type=int, required=True)
        p.add_argument("--B", type=int, required=True)

    p = sub.add_parser("count", help="exact |W(m, L, B)|")
    add_mlb(p)
    p.set_defaults(run=_cmd_count)

    p = sub.add_parser("enumerate", help="list W(m, L, B) lexicographically")
    add_mlb(p)
    p.add_argument("--cap", type=int, default=None, help="enumeration size cap")
    p.set_defaults(run=_cmd_enumerate)

    p = sub.add_parser("rate", help="rate function I(c, B)")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--B", type=int, required=True)
    p.set_defaults(run=_cmd_rate)

    p = sub.add_parser("bound", help="exponent bound of U = g(W) from exact counts")
    add_mlb(p)
    p.add_argument("--cap", type=int, default=None, help="enumeration size cap for --dump-set")
    p.add_argument("--dump-set", metavar="PATH", default=None,
                   help="write U as newline-delimited decimal integers")
    p.set_defaults(run=_cmd_bound)

    p = sub.add_parser("verify", help="check the counting identities on a grid")
    p.add_argument("--max-m", type=int, default=4)
    p.add_argument("--max-L", type=int, default=5)
    p.add_argument("--max-B", type=int, default=3)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("optimize", help="maximize the bound for one B")
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(run=_cmd_optimize)

    p = sub.add_parser("table1", help="the B x eps table of optima")
    # None stands for optimize.TABLE_EPS, resolved in _cmd_table1 so that
    # building the parser loads no optimize
    p.add_argument("--eps-list", type=float, nargs="+", default=None)
    p.add_argument("--b-range", type=_parse_b_range, default=(3, 10))
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(run=_cmd_table1)

    return parser


def main(argv: list[str] | None = None) -> int:
    # exact counts may run past the interpreter's default 4300-digit limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
