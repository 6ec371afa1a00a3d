#!/usr/bin/env python3
"""sumdiff benchmark: cold end-to-end runs, or a traced per-layer run.

    python3 perfbench/run.py --workload table --seed 1 --seconds 40 --trace 0

Run from anywhere; the package is taken from src/ next to this directory.
With --trace 0 every command of the workload is started in a fresh
interpreter, one at a time (a closed loop with one client), in whole rounds
until --seconds is used up; each output is checked against reference.py.
With --trace 1 the layers are called in-process instead (see tracing.py).
The last line of stdout is one JSON object: correct, attempted, failed and
the metrics.  A fuller record goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh interpreters that only import the CLI, per run
SETUP_SAMPLES = 7
#: a command running longer than this is killed and counted as failed
COMMAND_TIMEOUT_S = 60.0


@dataclass
class Completed:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float


class Launcher:
    """The small process that starts every command (see launcher.py)."""

    def __enter__(self):
        OUT.mkdir(exist_ok=True)
        self._out = OUT / f"cmd-{os.getpid()}.out"
        self._err = OUT / f"cmd-{os.getpid()}.err"
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            cwd=ROOT,
        )
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=COMMAND_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        self._out.unlink(missing_ok=True)
        self._err.unlink(missing_ok=True)

    def run(self, argv: list[str]) -> Completed:
        """Run `python argv...` to exit, with src/ on PYTHONPATH and the checkout as cwd."""
        request = [argv, str(self._out), str(self._err), COMMAND_TIMEOUT_S]
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the command launcher exited")
        code, wall, cpu, maxrss_kib = json.loads(reply)
        return Completed(
            code,
            self._out.read_text(),
            self._err.read_text(),
            wall,
            cpu,
            maxrss_kib / 1024.0,
        )


def parse_output(done: Completed):
    """The command's JSON output, or None when it did not finish cleanly."""
    if done.code != 0:
        return None
    try:
        return json.loads(done.stdout)
    except json.JSONDecodeError:
        return None


def judge(cmd: workloads.Command, done: Completed) -> dict:
    """One operation's record: parse and check the output.  Never raises on a bad output.

    An operation fails when the command does not finish cleanly or its output
    fails a check; it is wrong only in the second case.
    """
    parsed = parse_output(done)
    if parsed is None:
        problems = [f"exit {done.code}: {done.stderr.strip().splitlines()[-1:]}"]
    else:
        try:
            problems = cmd.check(parsed)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems = [f"malformed output: {exc!r}"]
    return {
        "name": cmd.name,
        "exit_code": done.code,
        "runtimeMillis": parsed.get("runtimeMillis") if isinstance(parsed, dict) else None,
        "wall_s": done.wall_s,
        "cpu_s": done.cpu_s,
        "maxrss_mb": done.maxrss_mb,
        "problems": problems,
        "failed": bool(problems),
        "wrong": parsed is not None and bool(problems),
    }


def environment(launcher: Launcher) -> dict:
    """Seed-independent facts of the run; exits 1 if the package cannot be imported."""
    probe = launcher.run(["-c", "import sumdiff; print(sumdiff.BACKEND_NAME)"])
    if probe.code != 0:
        sys.exit(f"error: cannot import sumdiff: {probe.stderr.strip()}")
    return {
        "backend": probe.stdout.strip(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def setup_sample(launcher: Launcher) -> float:
    """Wall time of a fresh interpreter that only imports the CLI."""
    return launcher.run(["-c", "import sumdiff.cli"]).wall_s


def untraced(launcher: Launcher, wl: workloads.Workload, seconds: float) -> dict:
    warm = launcher.run(["-c", workloads.CLI_MAIN, *wl.warmup])
    if warm.code != 0:
        sys.exit(f"error: warm-up command failed: {warm.stderr.strip()}")
    # set-up samples are spread over the run, since the machine's speed drifts
    # over seconds; they stay outside the rounds' timings
    setup = []
    rounds = []
    started = time.perf_counter()
    while True:
        rounds.append([judge(cmd, launcher.run(cmd.argv)) for cmd in wl.commands])
        elapsed = time.perf_counter() - started
        while len(setup) < SETUP_SAMPLES * min(1.0, elapsed / seconds):
            setup.append(setup_sample(launcher))
        elapsed = time.perf_counter() - started
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(launcher))
    ops = [op for rnd in rounds for op in rnd]
    metrics = {
        "wall_s": (statistics.median(sum(op["wall_s"] for op in rnd) for rnd in rounds), "s"),
        "cpu_s": (statistics.median(sum(op["cpu_s"] for op in rnd) for rnd in rounds), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(max(op["maxrss_mb"] for op in rnd) for rnd in rounds), "MB"),
    }
    return {
        "metrics": metrics,
        "attempted": len(ops),
        "failed": sum(op["failed"] for op in ops),
        "correct": not any(op["wrong"] for op in ops),
        "ops": ops,
        "detail": {"setup_samples_s": setup, "rounds": len(rounds)},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "sumdiff" / "cli.py").is_file():
        sys.exit(f"error: no sumdiff sources at {SRC}")
    reference.self_test()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.prepare()
    with Launcher() as launcher:
        env = environment(launcher)
        if args.trace:
            import tracing

            result = tracing.traced(launcher, wl, args.seed, judge, OUT)
        else:
            result = untraced(launcher, wl, args.seconds)

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **env,
        "inputs": wl.inputs,
        **result,
    }
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for op in result["ops"]:
        if op["problems"]:
            print(f"{op['name']}: {'; '.join(op['problems'])}", file=sys.stderr)
    summary = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in result["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
