"""The benchmark's workloads: the sumdiff commands of one round, and their checks.

A workload is a list of commands run one after another, each in a fresh
interpreter.  Every command carries
  * the arguments it is started with,
  * a check of its output against reference.py (a list of problems, empty
    when the output is right),
  * the in-process call it wraps, which the traced run times against the
    command's wall time to find the CLI's own overhead.

References are computed on first use and cached (Workload.prepare computes
them all), so a process that only runs the commands' in-process equivalents
never loads scipy.

Inputs come from the seed alone.  The pools the seed draws from hold inputs
of equal work, so that run-to-run spread reflects the machine, not the draw:
  * a certificate pool fixes (m, L) and varies only the digit base B >= L,
    so W(m, L, B) is the same simplex and |U|, |U+U|, |U-U| are the same,
    while U, q and theta change; B stays small enough that every pair sum
    fits in one 30-bit digit of a Python int;
  * a count size fixes m and B and moves L by at most 10 below m.
"""
from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import reference as ref

#: the console script `sumdiff` runs exactly this
CLI_MAIN = "import sys; from sumdiff.cli import main; sys.exit(main())"

#: a fresh interpreter that calls the public log_count_rate on a list of points
LOG_COUNT_RATE_SCRIPT = (
    "import json, sys; from sumdiff import log_count_rate; "
    "print(json.dumps([[m, r, B, log_count_rate(m, r, B)] for m, r, B in json.loads(sys.argv[1])]))"
)

#: the paper's published eps = 1e-10 column, theta - 1 per B
PAPER_COLUMN = {
    3: 0.168700179627163,
    4: 0.172137890014121,
    5: 0.173077279785136,
    6: 0.172855932676998,
    7: 0.172060243360376,
    8: 0.170975345189401,
    9: 0.169749936705623,
    10: 0.168465310634737,
}
HEADLINE = 1.173077
TABLE_EPS = [1e-4, 1e-6, 1e-8, 1e-10]
TABLE_B = list(range(3, 11))

#: (m, L, admissible B): one triple per class per seed
CERTIFICATE_POOLS = [(6, 6, range(6, 19)), (7, 6, range(6, 11)), (6, 8, range(8, 18))]

#: (m, B) of the exact count commands; L is drawn from [m - 10, m]
COUNT_SIZES = [(1600, 5), (1800, 3)]

#: log_count_rate points: exact DP at m = 100, 800; log-domain DP at 3000, 10000
RATE_POINTS = [(m, r, B) for r, B in [(0.5, 2), (1.0, 3)] for m in (100, 800, 3000, 10000)]

VERIFY_GRID = (4, 5, 3)  # sumdiff verify's defaults: max m, max L, max B


@dataclass
class Command:
    name: str
    layer: str  # the module whose public functions `call` uses
    argv: list[str]  # after the interpreter
    check: Callable[[dict], list[str]]  # parsed stdout -> problems
    call: Callable[[Any], Any]  # sumdiff module -> the in-process equivalent


@dataclass
class Workload:
    name: str
    commands: list[Command]
    warmup: list[str]  # arguments of one cheap untimed command
    inputs: dict = field(default_factory=dict)
    references: list[Callable[[], Any]] = field(default_factory=list)  # cached

    def prepare(self) -> None:
        """Compute every reference the checks use, before anything is timed."""
        for ref_fn in self.references:
            ref_fn()


def _cli(name, layer, args, check, call) -> Command:
    return Command(name, layer, ["-c", CLI_MAIN, *args], check, call)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------- table


def _check_table(record: dict, scan: dict[int, float], objective: dict) -> list[str]:
    res = record["results"]
    if res["b_values"] != TABLE_B:
        return [f"b_values {res['b_values']} != {TABLE_B}"]
    cells = {(c["B"], c["epsilon"]): c for row in res["cells"] for c in row}
    if sorted(cells) != sorted((B, e) for B in TABLE_B for e in TABLE_EPS):
        return ["table cells do not cover B = 3..10 x the four eps columns"]
    problems = []
    fine = {B: cells[B, 1e-10]["theta_minus_1"] for B in TABLE_B}
    worst = max(abs(fine[B] - PAPER_COLUMN[B]) for B in TABLE_B)
    if worst > 1e-8:
        problems.append(f"eps=1e-10 column deviates from the paper by {worst:.3e}")
    best = max(TABLE_B, key=fine.get)
    if best != 5 or 1.0 + fine[best] < HEADLINE:
        problems.append(f"argmax at B={best} with 1+theta={1 + fine[best]!r}")
    worst = max(abs(cells[B, 1e-8]["theta_minus_1"] - fine[B]) for B in TABLE_B)
    if worst > 1e-10:
        problems.append(f"eps=1e-8 and 1e-10 columns differ by {worst:.3e}")
    for (B, eps), c in cells.items():
        key = (B, c["r_star"], c["a_star"])
        if key not in objective:
            objective[key] = ref.theta_objective(*key)
        if not _close(c["theta_minus_1"], objective[key], 1e-9):
            problems.append(f"cell B={B} eps={eps}: {c['theta_minus_1']!r} != objective {objective[key]!r}")
        if c["theta_minus_1"] < scan[B] - 1e-9:
            problems.append(f"cell B={B} eps={eps} falls below the coarse scan {scan[B]!r}")
    return problems


def table(seed: int) -> Workload:
    """sumdiff table1 with its defaults; the inputs are fixed by the paper."""
    scan = functools.cache(lambda: {B: ref.coarse_scan(B) for B in TABLE_B})
    objective: dict = {}
    cmd = _cli(
        "table1",
        "optimize",
        ["table1"],
        lambda rec: _check_table(rec, scan(), objective),
        lambda sd: sd.table1(),
    )
    warmup = ["table1", "--b-range", "3..3", "--eps-list", "1e-4"]
    return Workload("table", [cmd], warmup, references=[scan])


# ---------------------------------------------------------- certificate


def _check_bound(record: dict, expected: dict) -> list[str]:
    res = record["results"]
    problems = [
        f"{key} = {res[key]} != {want}"
        for key, want in expected.items()
        if res[key] != want
    ]
    theta = 1.0 + (math.log(expected["d"]) - math.log(expected["s"])) / math.log(expected["q"])
    if not _close(res["theta"], theta, 1e-12):
        problems.append(f"theta {res['theta']!r} != {theta!r} recomputed from (d, s, q)")
    return problems


def _check_verify(record: dict) -> list[str]:
    res = record["results"]
    max_m, max_L, max_B = VERIFY_GRID
    problems = []
    if res["all_pass"] is not True:
        problems.append(f"verify all_pass is {res['all_pass']}")
    if len(res["checked"]) != (max_m + 1) * (max_L + 1) * max_B:
        problems.append(f"verify checked {len(res['checked'])} triples")
    return problems


def verify_in_process(sd) -> bool:
    max_m, max_L, max_B = VERIFY_GRID
    ok = True
    for m in range(max_m + 1):
        for L in range(max_L + 1):
            for B in range(1, max_B + 1):
                p = sd.WParams(m, L, B)
                ok &= sd.verify_sumset_identity(p)
                ok &= sd.verify_diffset_identity(p)
                ok &= sd.verify_injectivity(p, "g")
    return ok


def _bound_in_process(sd, m, L, B):
    return sd.theta_bound_exact(sd.build_U(sd.WParams(m, L, B)))


def certificate_triples(seed: int) -> list[tuple[int, int, int]]:
    rng = random.Random(f"certificate-{seed}")
    return [(m, L, rng.choice(pool)) for m, L, pool in CERTIFICATE_POOLS]


def bound_expectation(m: int, L: int, B: int) -> dict:
    """The bound record's integers, from reference.py alone."""
    return {
        "set_size": ref.count_W(m, L, B),
        "s": ref.count_W(m, 2 * L, 2 * B),
        "d": ref.diff_count(m, L, B),
        "q": 2 * ref.max_U(m, L, B) + 1,
    }


def certificate(seed: int) -> Workload:
    """sumdiff bound on one seeded triple per size class, then sumdiff verify."""
    triples = certificate_triples(seed)
    commands = []
    references = []
    for m, L, B in triples:
        expected = functools.cache(functools.partial(bound_expectation, m, L, B))
        references.append(expected)
        commands.append(
            _cli(
                f"bound({m},{L},{B})",
                "construct",
                ["bound", "--m", str(m), "--L", str(L), "--B", str(B)],
                lambda rec, e=expected: _check_bound(rec, e()),
                lambda sd, t=(m, L, B): _bound_in_process(sd, *t),
            )
        )
    commands.append(
        _cli("verify", "construct", ["verify"], _check_verify, verify_in_process)
    )
    return Workload(
        "certificate",
        commands,
        ["bound", "--m", "2", "--L", "2", "--B", "1"],
        {"triples": triples},
        references,
    )


# --------------------------------------------------------------- counts


def _check_count(record: dict, want: int) -> list[str]:
    res = record["results"]
    problems = []
    if res["count"] != want:
        problems.append(f"count {res['count']} != inclusion-exclusion {want}")
    elif not _close(res["log_count"], math.log(want), 1e-12 * math.log(want)):
        problems.append(f"log_count {res['log_count']!r} != log(count)")
    return problems


def _check_rates(values: list, exact_rate: dict, limit: dict) -> list[str]:
    got = {(m, r, B): v for m, r, B, v in values}
    if sorted(got) != sorted(RATE_POINTS):
        return [f"log_count_rate returned points {sorted(got)}"]
    problems = []
    for point, v in got.items():
        if not _close(v, exact_rate[point], 1e-9):
            problems.append(f"log_count_rate{point} = {v!r} != log(count)/m {exact_rate[point]!r}")
    for r, B in {(r, B) for _, r, B in RATE_POINTS}:
        ms = sorted(m for m, r2, B2 in RATE_POINTS if (r2, B2) == (r, B))
        gaps = [abs(got[m, r, B] - limit[r, B]) for m in ms]
        if any(later >= earlier for earlier, later in zip(gaps, gaps[1:])):
            problems.append(f"gap to the limit does not shrink with m at (r={r}, B={B}): {gaps}")
        if any(g >= 0.05 for m, g in zip(ms, gaps) if m >= 800):
            problems.append(f"gap to the limit >= 0.05 from m = 800 at (r={r}, B={B}): {gaps}")
    return problems


def count_sizes(seed: int) -> list[tuple[int, int, int]]:
    rng = random.Random(f"counts-{seed}")
    return [(m, m - rng.randint(0, 10), B) for m, B in COUNT_SIZES]


def counts(seed: int) -> Workload:
    """sumdiff count at seeded sizes, then log_count_rate on the fixed grid."""
    commands = []
    references = []
    for m, L, B in count_sizes(seed):
        want = functools.cache(functools.partial(ref.count_W, m, L, B))
        references.append(want)
        commands.append(
            _cli(
                f"count({m},{L},{B})",
                "wcount",
                ["count", "--m", str(m), "--L", str(L), "--B", str(B)],
                lambda rec, w=want: _check_count(rec, w()),
                lambda sd, t=(m, L, B): sd.count_W(sd.WParams(*t)),
            )
        )
    exact_rate = functools.cache(lambda: {
        (m, r, B): math.log(ref.count_W(m, math.floor(r * m), B)) / m for m, r, B in RATE_POINTS
    })
    limit = functools.cache(lambda: {
        (r, B): math.log(B + 1) - ref.rate_I(r, B) for _, r, B in RATE_POINTS
    })
    references += [exact_rate, limit]
    commands.append(
        Command(
            "log_count_rate",
            "wcount",
            ["-c", LOG_COUNT_RATE_SCRIPT, json.dumps(RATE_POINTS)],
            lambda values: _check_rates(values, exact_rate(), limit()),
            lambda sd: [sd.log_count_rate(m, r, B) for m, r, B in RATE_POINTS],
        )
    )
    return Workload(
        "counts",
        commands,
        ["count", "--m", "3", "--L", "2", "--B", "5"],
        {"count_sizes": count_sizes(seed), "rate_points": RATE_POINTS},
        references,
    )


WORKLOADS = {"table": table, "certificate": certificate, "counts": counts}
