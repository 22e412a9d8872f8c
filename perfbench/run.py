"""Benchmark for the primecover CLI: its workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``).
Every repetition is a fresh interpreter (``perfbench/child.py``) that
imports ``primecover.cli`` and runs the workload's commands with
``--jobs 1`` and BLAS/OpenMP threads pinned to 1, so a run needs one core.

``--trace 0`` repeats the workload at least ``MIN_REPS`` times, then for as
long as the next repetition is expected to end within ``--seconds``; spawns
``SETUP_SAMPLES`` interpreters that only import the CLI between the
repetitions; and reports

  wall_s       seconds inside the CLI commands, import excluded, of the
               slowest repetition;
  setup_s      interpreter spawn until ``primecover.cli`` is imported, median
               over the import-only interpreters and the repetitions;
  peak_rss_mb  ``ru_maxrss`` of the workload process, median over repetitions.

Why the slowest repetition: on a shared host the same code runs in a steady
contended state and, in spells of tens of seconds whose frequency drifts over
the hour, up to 40% faster.  The median of 3-4 repetitions follows the share
of fast spells in the run; the slowest repetition follows the contended state,
which held to a few percent between sets of runs (``README.md``).

``--trace 1`` runs the workload once untraced and once under the tracer
(``perfbench/tracer.py``), requires the two stdouts to match byte for byte,
and reports the per-layer metrics.

Every command's output is checked (``perfbench/workloads.py``).  A command
fails if it exits non-zero or its output fails a check; ``attempted`` and
``failed`` count commands.  The last stdout line is the JSON result; the
line before it records the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import layer_metrics  # noqa: E402
from workloads import PINNED_SHA256, WORKLOADS  # noqa: E402

ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
MIN_REPS = 2
RUN_DEADLINE_S = 170  # a run must end within 180 s; a child still running then is killed
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# machine record


def _cpu_times() -> tuple[int, int] | None:
    """(steal, total) jiffies from /proc/stat, or None where there is no such file."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def machine_record() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "loadavg_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# one child interpreter


def run_child(commands: list[list[str]], trace: bool, deadline: float) -> dict:
    """Spawn child.py, return its report plus setup_s and the child's own max RSS."""
    env = {**os.environ, **SINGLE_THREAD_ENV}
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), str(int(trace)), json.dumps(commands)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
    )
    killer = threading.Timer(max(1.0, deadline - spawned), proc.kill)
    killer.start()
    try:
        raw = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
    # wait4 reaped the child and gave its own rusage; tell Popen not to wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode} on {commands}")
    report = json.loads(raw)
    report["setup_s"] = report["ready"] - spawned
    report["rss_mb"] = usage.ru_maxrss / 1024  # Linux reports KiB
    return report


# ---------------------------------------------------------------------------
# checks


def check_rep(name: str, seed: int, commands: list[list[str]], report: dict) -> int:
    """Number of failed commands in one repetition; problems go to stderr."""
    results = report["commands"]
    failed = sum(r["exit"] != 0 for r in results)
    for r in results:
        if r["exit"] != 0:
            print(f"FAIL exit {r['exit']}: {' '.join(r['argv'])}", file=sys.stderr)
    outs = [r["stdout"] for r in results]
    try:
        problems = WORKLOADS[name].check(outs, seed)
    except (ValueError, KeyError, IndexError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    if commands == WORKLOADS[name].commands(0):
        digest = hashlib.sha256("".join(outs).encode()).hexdigest()
        if digest != PINNED_SHA256[name]:
            problems.append(f"stdout sha256 {digest} != pinned {PINNED_SHA256[name]}")
    for p in problems:
        print(f"FAIL check: {p}", file=sys.stderr)
    if problems:
        failed = max(failed, 1)  # a wrong output fails at least one command
    return failed


def wall(report: dict) -> float:
    return sum(r["seconds"] for r in report["commands"])


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(name: str, seed: int, seconds: int, deadline: float) -> tuple[dict, int, int]:
    commands = WORKLOADS[name].commands(seed)
    setups = []  # import-only interpreters, spread over the run so one slow spell weighs less
    reps = []
    attempted = failed = 0
    start = time.monotonic()
    rep_s = 0.0  # the slowest repetition so far, with its import-only interpreter
    while len(reps) < MIN_REPS or time.monotonic() - start + rep_s <= seconds:
        if time.monotonic() + rep_s > deadline:
            break
        t0 = time.monotonic()
        if len(setups) < SETUP_SAMPLES:
            setups.append(run_child([], False, deadline)["setup_s"])
        reps.append(run_child(commands, False, deadline))
        rep_s = max(rep_s, time.monotonic() - t0)
        attempted += len(commands)
        failed += check_rep(name, seed, commands, reps[-1])
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child([], False, deadline)["setup_s"])
    setups += [r["setup_s"] for r in reps]
    walls = [round(wall(r), 3) for r in reps]
    print(f"{name}: {len(reps)} repetitions, wall_s {walls}", file=sys.stderr)
    metrics = {
        "wall_s": {"value": max(wall(r) for r in reps), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["rss_mb"] for r in reps), "unit": "MB"},
    }
    return metrics, attempted, failed


def traced(name: str, seed: int, deadline: float) -> tuple[dict, int, int]:
    commands = WORKLOADS[name].commands(seed)
    base = run_child(commands, False, deadline)
    rep = run_child(commands, True, deadline)
    failed = check_rep(name, seed, commands, base) + check_rep(name, seed, commands, rep)
    base_out = [r["stdout"] for r in base["commands"]]
    if [r["stdout"] for r in rep["commands"]] != base_out:
        print("FAIL check: traced stdout differs from untraced stdout", file=sys.stderr)
        failed += 1
    bytes_out = sum(len(o.encode()) for o in base_out)
    metrics = layer_metrics(rep["trace"], wall(rep), wall(base), bytes_out)
    return metrics, 2 * len(commands), failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "primecover", "cli.py")):
        print(f"error: no src/primecover/cli.py under {ROOT}", file=sys.stderr)
        return 1

    machine = machine_record()
    cpu_start = _cpu_times()
    try:
        if args.trace:
            metrics, attempted, failed = traced(args.workload, args.seed, deadline)
        else:
            metrics, attempted, failed = end_to_end(
                args.workload, args.seed, args.seconds, deadline
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cpu_end = _cpu_times()
    machine["loadavg_end"] = os.getloadavg()
    if cpu_start and cpu_end and cpu_end[1] > cpu_start[1]:
        machine["steal_share"] = (cpu_end[0] - cpu_start[0]) / (cpu_end[1] - cpu_start[1])
    print(json.dumps({"machine": machine, "workload": args.workload, "seed": args.seed}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
