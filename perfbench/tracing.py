"""The traced run: every layer's public functions called directly, with spans.

Spans (id, name, parent, trace, start, end and a few attributes) are kept in
a list and written out once, at the end, to perfbench/out/.  A span's name
starts with its layer: import, ratefn, optimize, wcount, construct or cli;
probe.* and op.* spans belong to the harness, and each is the root of its
own trace.  The per-layer metrics are read off the spans, and each layer's
self time is its spans' time less the time their child spans cover.

The layer calls run in fresh interpreters started from this file
(`tracing.py probe <layer> <seed>`, `tracing.py call <workload> <seed> <i>`),
which import sumdiff and nothing heavy besides.  A process that has loaded
scipy, as the harness has, runs some layers at another speed: its allocator
is warmed, and the log-domain count DP there takes 1.8 s where a fresh
interpreter takes 4.6 s.  The spans come back as JSON on stdout, share the
harness's monotonic clock, and are adopted under the harness's span.

The run has two parts:
  * probes: each layer at stated inputs, drawn from the seed where the
    workloads draw theirs, so every per-layer metric is present on every
    workload; the harness checks the values they return against reference.py;
  * a replay of one round of the workload: each command cold (span
    cli.<command>), then its in-process equivalent.  The difference is the
    CLI's own cost: interpreter start, imports, argparse and JSON output.
"""
from __future__ import annotations

import json
import math
import random
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import reference as ref
import workloads

HERE = Path(__file__).resolve().parent
REPEATS = 3


class Tracer:
    """Spans in memory, nested by a stack; times are perf_counter seconds."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "trace": parent["trace"] if parent else len(self.spans),
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def adopt(self, spans: list[dict]) -> None:
        """Append another tracer's spans under the open span."""
        parent = self._stack[-1]
        offset = len(self.spans)
        for s in spans:
            up = parent["id"] if s["parent"] is None else s["parent"] + offset
            self.spans.append({**s, "id": s["id"] + offset, "parent": up, "trace": parent["trace"]})

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, each span's duration less its children's."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0.0) + _dur(s)
        layers: dict[str, float] = {}
        for s in self.spans:
            layer = s["name"].split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + _dur(s) - covered.get(s["id"], 0.0)
        return layers


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _per_call(tr: Tracer, name: str, scale: float) -> float:
    """Median over the spans called `name` of duration per call, times scale."""
    return statistics.median(_dur(s) / s.get("n", 1) for s in tr.named(name)) * scale


def _median_attr(tr: Tracer, name: str, attr: str) -> float:
    return statistics.median(s[attr] for s in tr.named(name))


#: per-layer metric -> (unit, its value read off the spans); all of them, on every workload
PER_LAYER = {
    "import.sumdiff_ms": ("ms", lambda tr: _median_attr(tr, "import.sumdiff.cli", "sumdiff_ms")),
    "import.numpy_ms": ("ms", lambda tr: _median_attr(tr, "import.sumdiff.cli", "numpy_ms")),
    "ratefn.rate_I.interior_us": ("us", lambda tr: _per_call(tr, "ratefn.rate_I.interior", 1e6)),
    "ratefn.rate_I.iterations": ("count", lambda tr: tr.named("ratefn.rate_I.interior")[-1]["iterations"]),
    "ratefn.rate_I.B1_us": ("us", lambda tr: _per_call(tr, "ratefn.rate_I.B1", 1e6)),
    "ratefn.tilted_mean.B5_us": ("us", lambda tr: _per_call(tr, "ratefn.tilted_mean.B5", 1e6)),
    "ratefn.tilted_mean.B20_us": ("us", lambda tr: _per_call(tr, "ratefn.tilted_mean.B20", 1e6)),
    "ratefn.rate_I.max_residual": ("1", lambda tr: tr.named("ratefn.rate_I.interior")[-1]["max_residual"]),
    "optimize.theta_objective_us": ("us", lambda tr: _per_call(tr, "optimize.theta_objective", 1e6)),
    "optimize.maximize_a_ms": ("ms", lambda tr: _per_call(tr, "optimize.maximize_a", 1e3)),
    "optimize.maximize_r_ms": ("ms", lambda tr: _per_call(tr, "optimize.maximize_r", 1e3)),
    "optimize.table1_s": ("s", lambda tr: _per_call(tr, "optimize.table1", 1.0)),
    "optimize.evaluations": ("count", lambda tr: tr.named("optimize.table1")[0]["evaluations"]),
    "wcount.count_W_ms": ("ms", lambda tr: _per_call(tr, "wcount.count_W", 1e3)),
    "wcount.log_count_rate.exact_ms": ("ms", lambda tr: _per_call(tr, "wcount.log_count_rate.exact", 1e3)),
    "wcount.log_count_rate.log_ms": ("ms", lambda tr: _per_call(tr, "wcount.log_count_rate.log", 1e3)),
    "wcount.enumerate_W_ms": ("ms", lambda tr: _per_call(tr, "wcount.enumerate_W", 1e3)),
    "construct.build_U_ms": ("ms", lambda tr: _per_call(tr, "construct.build_U", 1e3)),
    "construct.sumset_ms": ("ms", lambda tr: _per_call(tr, "construct.sumset", 1e3)),
    "construct.diffset_ms": ("ms", lambda tr: _per_call(tr, "construct.diffset", 1e3)),
    "construct.theta_bound_exact_ms": ("ms", lambda tr: _per_call(tr, "construct.theta_bound_exact", 1e3)),
    "construct.verify_ms": ("ms", lambda tr: _per_call(tr, "construct.verify", 1e3)),
    # a command's wall time less its in-process equivalent, averaged over the round
    "cli.overhead_ms": ("ms", lambda tr: statistics.fmean(
        s["overhead_s"] for s in tr.spans if s["name"].startswith("op.")) * 1e3),
    # the round's commands as the traced run saw them; less wall_s, the tracing overhead
    "cli.wall_s": ("s", lambda tr: sum(_dur(s) for s in tr.spans if s["name"].startswith("cli."))),
}


def _timed(tr: Tracer, name: str, fn, args_list):
    """Call fn(*args) for every args in args_list, REPEATS times, one span per pass."""
    for _ in range(REPEATS):
        with tr.span(name, n=len(args_list)):
            out = [fn(*args) for args in args_list]
    return out


def _importtime(stderr: str) -> dict[str, float]:
    """Cumulative ms per module from `python -X importtime`, first entry of each."""
    found: dict[str, float] = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            found.setdefault(parts[2].strip(), int(parts[1]) / 1000.0)
    return found


# ------------------------------------------- probes, in a fresh interpreter


def probe_ratefn(tr, sd, seed):
    rng = random.Random(f"trace-ratefn-{seed}")
    grid = []
    for _ in range(400):
        B = rng.randint(2, 20)
        grid.append((rng.uniform(0.001, 0.999) * B / 2, B))
    b1 = [(rng.uniform(0.001, 0.499), 1) for _ in range(200)]
    tilts = [rng.uniform(-4.0, 0.0) for _ in range(2000)]

    def solve(c, B):
        return sd.rate_I(sd.RateQuery(c, B))

    results = _timed(tr, "ratefn.rate_I.interior", solve, grid)
    tr.spans[-1]["iterations"] = statistics.fmean(r.iterations for r in results)
    tr.spans[-1]["max_residual"] = max(r.residual for r in results)
    b1_results = _timed(tr, "ratefn.rate_I.B1", solve, b1)
    for B in (5, 20):
        _timed(tr, f"ratefn.tilted_mean.B{B}", sd.tilted_mean, [(t, B) for t in tilts])
    return {"rates": [[c, B, r.value] for (c, B), r in zip(grid + b1, results + b1_results)]}


def probe_optimize(tr, sd, seed):
    rng = random.Random(f"trace-optimize-{seed}")
    points = []
    for _ in range(200):
        r = rng.uniform(0.5, 2.0)
        points.append((rng.randint(3, 10), r, rng.uniform(0.02, 0.98) * min(1.0, 1.0 / r)))
    values = _timed(tr, "optimize.theta_objective", sd.theta_objective, points)
    report = _timed(tr, "optimize.maximize_r", sd.maximize_r, [(5, 1e-10)])[0]
    _timed(tr, "optimize.maximize_a", sd.maximize_a, [(5, report.r_star, 1e-10)])
    with tr.span("optimize.table1") as s:
        rows = sd.table1()
    s["evaluations"] = sum(cell.evaluations for row in rows for cell in row)
    return {
        "objective": [[*p, v.theta_minus_1] for p, v in zip(points, values)],
        "maximize_r": report.theta_minus_1,
        "table": [[row[-1].B, row[-1].theta_minus_1] for row in rows],
    }


def probe_wcount(tr, sd, seed):
    m, L, B = workloads.count_sizes(seed)[0]
    with tr.span("wcount.count_W", n=1):
        count = sd.count_W(sd.WParams(m, L, B)).exact
    rates = [[800, _timed(tr, "wcount.log_count_rate.exact", sd.log_count_rate, [(800, 1.0, 3)])[0]]]
    # the costliest point of the counts workload, once: 4-5 s in a fresh interpreter
    with tr.span("wcount.log_count_rate.log", n=1):
        rates.append([10000, sd.log_count_rate(10000, 1.0, 3)])
    p = sd.WParams(*workloads.certificate_triples(seed)[-1])
    vectors = _timed(tr, "wcount.enumerate_W", sd.enumerate_W, [(p,)])[0]
    return {
        "count": [m, L, B, count],
        "rates": rates,
        "cell_limit": getattr(sd.wcount, "EXACT_DP_CELL_LIMIT", None),
        "enumerated": len(vectors),
    }


def probe_construct(tr, sd, seed):
    p = sd.WParams(*workloads.certificate_triples(seed)[-1])
    with tr.span("construct.build_U", n=1):
        U = sd.build_U(p)
    with tr.span("construct.sumset", n=1):
        s = len(sd.sumset(U))
    with tr.span("construct.diffset", n=1):
        d = len(sd.diffset(U))
    with tr.span("construct.theta_bound_exact", n=1):
        report = sd.theta_bound_exact(U)
    verified = all(_timed(tr, "construct.verify", workloads.verify_in_process, [(sd,)]))
    return {
        "got": {"set_size": len(U), "s": s, "d": d, "q": 2 * max(U) + 1},
        "report": [report.d.exact, report.s.exact, report.q],
        "verified": verified,
    }


PROBES = {"ratefn": probe_ratefn, "optimize": probe_optimize, "wcount": probe_wcount, "construct": probe_construct}


# ------------------------------------------------- checks, in the harness


def check_ratefn(res, seed):
    worst = max(abs(v - ref.rate_I(c, B)) for c, B, v in res["rates"])
    return [f"rate_I deviates from the reference by {worst:.3e}"] if worst > 1e-10 else []


def check_optimize(res, seed):
    problems = []
    worst = max(abs(v - ref.theta_objective(B, r, a)) for B, r, a, v in res["objective"])
    if worst > 1e-9:
        problems.append(f"theta_objective deviates from the reference by {worst:.3e}")
    if abs(res["maximize_r"] - workloads.PAPER_COLUMN[5]) > 1e-8:
        problems.append(f"maximize_r(5, 1e-10) = {res['maximize_r']!r}")
    worst = max(abs(v - workloads.PAPER_COLUMN[B]) for B, v in res["table"])
    if worst > 1e-8 or [B for B, _ in res["table"]] != workloads.TABLE_B:
        problems.append(f"table1 eps=1e-10 column deviates from the paper by {worst:.3e}")
    return problems


def check_wcount(res, seed):
    problems = []
    m, L, B, count = res["count"]
    if count != ref.count_W(m, L, B):
        problems.append(f"count_W({m}, {L}, {B}) differs from inclusion-exclusion")
    for (k, value), regime in zip(res["rates"], ("exact", "log")):
        # the probe names the regime; it must still be the one that runs at m = k
        if res["cell_limit"] is not None and (k * k <= res["cell_limit"]) != (regime == "exact"):
            problems.append(f"log_count_rate at m={k} no longer runs the {regime} DP")
        if abs(value - math.log(ref.count_W(k, k, 3)) / k) > 1e-9:
            problems.append(f"log_count_rate({k}, 1.0, 3) = {value!r}")
    m, L, B = workloads.certificate_triples(seed)[-1]
    if res["enumerated"] != ref.count_W(m, L, B):
        problems.append(f"enumerate_W({m}, {L}, {B}) has {res['enumerated']} members")
    return problems


def check_construct(res, seed):
    want = workloads.bound_expectation(*workloads.certificate_triples(seed)[-1])
    got = res["got"]
    problems = [f"{k} = {got[k]} != {want[k]}" for k in want if got[k] != want[k]]
    if res["report"] != [got["d"], got["s"], got["q"]]:
        problems.append("theta_bound_exact disagrees with sumset/diffset")
    if not res["verified"]:
        problems.append("an identity check failed on the verify grid")
    return problems


CHECKS = {"ratefn": check_ratefn, "optimize": check_optimize, "wcount": check_wcount, "construct": check_construct}


# ------------------------------------------------------------ the run


def _in_child(tr: Tracer, launcher, args: list[str]):
    """Run this file in a fresh interpreter; adopt its spans, return its results."""
    done = launcher.run([str(HERE / "tracing.py"), *args])
    if done.code != 0:
        raise RuntimeError(f"tracing.py {' '.join(args)} exited {done.code}: {done.stderr.strip()}")
    out = json.loads(done.stdout)
    tr.adopt(out["spans"])
    return out["results"]


def _op(name: str, problems: list[str], wrong: bool) -> dict:
    return {"name": name, "problems": problems, "failed": bool(problems), "wrong": wrong}


def probe_import(tr, launcher):
    problems = []
    for _ in range(REPEATS):
        with tr.span("import.sumdiff.cli") as s:
            done = launcher.run(["-X", "importtime", "-c", "import sumdiff.cli"])
        found = _importtime(done.stderr)
        if done.code != 0 or "sumdiff.cli" not in found:
            problems.append(f"import sumdiff.cli failed: exit {done.code}")
            continue
        s["sumdiff_ms"] = found["sumdiff.cli"]
        s["numpy_ms"] = found.get("numpy", 0.0)  # 0 once no import path loads numpy
    return problems


def traced(launcher, wl: workloads.Workload, seed: int, judge, out_dir) -> dict:
    """Probes, then one replayed round; failures are counted, never raised."""
    tr = Tracer()
    ops = []
    with tr.span("probe.import"):
        problems = probe_import(tr, launcher)
    ops.append(_op("probe.import", problems, False))
    for layer, check in CHECKS.items():
        with tr.span(f"probe.{layer}"):
            try:
                results = _in_child(tr, launcher, ["probe", layer, str(seed)])
            except (RuntimeError, ValueError) as exc:  # the probe crashed; the others still run
                ops.append(_op(f"probe.{layer}", [str(exc)], False))
                continue
        problems = check(results, seed)
        ops.append(_op(f"probe.{layer}", problems, bool(problems)))
    for i, cmd in enumerate(wl.commands):
        with tr.span(f"op.{cmd.name}") as op_span:
            with tr.span(f"cli.{cmd.name}") as cli:
                done = launcher.run(cmd.argv)
            op = judge(cmd, done)
            try:
                _in_child(tr, launcher, ["call", wl.name, str(seed), str(i)])
                op_span["overhead_s"] = _dur(cli) - _dur(tr.spans[-1])
            except (RuntimeError, ValueError) as exc:
                op = {**op, "problems": op["problems"] + [str(exc)], "failed": True}
        ops.append(op)

    metrics = {}
    for name, (unit, derive) in PER_LAYER.items():
        try:
            metrics[name] = (derive(tr), unit)
        except (ValueError, KeyError, IndexError):
            pass  # its probe failed, which `failed` already counts
    span_cost = _span_cost_us()
    (out_dir / f"{wl.name}-seed{seed}.spans.json").write_text(
        json.dumps(
            {
                "workload": wl.name,
                "seed": seed,
                "spans": tr.spans,
                "self_s": tr.self_times(),
                "span_cost_us": span_cost,
                "tracing_overhead_s": span_cost * len(tr.spans) / 1e6,
            },
            indent=1,
        )
        + "\n"
    )
    return {
        "metrics": metrics,
        "attempted": len(ops),
        "failed": sum(op["failed"] for op in ops),
        "correct": not any(op["wrong"] for op in ops),
        "ops": ops,
        "detail": {"self_s": tr.self_times(), "span_cost_us": span_cost, "spans": len(tr.spans)},
    }


def _span_cost_us() -> float:
    """What one empty span costs, from a throwaway tracer."""
    tr = Tracer()
    started = time.perf_counter()
    for _ in range(10_000):
        with tr.span("x"):
            pass
    return (time.perf_counter() - started) / 10_000 * 1e6


def _child(args: list[str]) -> None:
    """`probe <layer> <seed>` or `call <workload> <seed> <index>`: spans and results as JSON."""
    import sumdiff as sd

    tr = Tracer()
    results = None
    if args[0] == "probe":
        results = PROBES[args[1]](tr, sd, int(args[2]))
    else:
        cmd = workloads.WORKLOADS[args[1]](int(args[2])).commands[int(args[3])]
        with tr.span(f"{cmd.layer}.{cmd.name}"):
            cmd.call(sd)
    json.dump({"spans": tr.spans, "results": results}, sys.stdout)


if __name__ == "__main__":
    _child(sys.argv[1:])
