"""All workloads, repeated: each repeat a fresh process, results on disk.

Repeats are interleaved round-robin across the workloads so that machine
drift hits all of them equally.  Same seed, so every count must repeat
exactly; only the timings carry noise, and the result file says how much.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: The contract's limit on one run.
RUN_TIMEOUT_SECONDS = 180
#: The two workloads that run the identical interactions: every count of
#: one must equal the other's.
SAME_INTERACTIONS = ("rubis-bidding-inproc", "rubis-bidding-wire")


def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in its own process group; nothing it started outlives it."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        output, _ = child.communicate(timeout=RUN_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        output = ""
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)  # the run and any node it forked
        except ProcessLookupError:
            pass
        child.wait()
    lines = output.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("{"):
        return {"correct": False, "metrics": {},
                "problems": [f"no result (exit code {child.returncode})"]}  # fmt: skip
    # The last line is the subset BENCHMARK.json lists; the one before it
    # has everything the run measured.
    return json.loads(lines[-2])


def summarise(values: list) -> dict:
    """Median, quartiles and noise floor (IQR / median) of one metric's
    repeats; all ``None`` for a metric the workload does not have."""
    if None in values:
        return {"median": None, "q1": None, "q3": None, "n": 0, "noise": None, "values": values}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3, "n": len(values),
        "noise": (q3 - q1) / median if median else 0.0, "values": values,
    }  # fmt: skip


def git_stamp() -> Dict[str, object]:
    def git(*args: str) -> str:
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        except OSError:  # no git here
            return ""
        return done.stdout.strip() if done.returncode == 0 else ""

    return {"sha": git("rev-parse", "HEAD") or "unknown",
            "dirty": bool(git("status", "--porcelain"))}  # fmt: skip


def run_suite(spec: dict, seed: int, repeats: int, seconds: float, trace: bool) -> int:
    names = [w["name"] for w in spec["workloads"]]
    runs: Dict[str, List[dict]] = {name: [] for name in names}
    for repeat in range(repeats):
        for name in names:
            print(f"repeat {repeat + 1}/{repeats}: {name}", file=sys.stderr)
            runs[name].append(run_child(name, seed, seconds, trace=0))
    traced = {name: run_child(name, seed, seconds, trace=1) for name in names} if trace else {}

    problems: List[str] = []
    for name in names:
        for run in runs[name] + ([traced[name]] if trace else []):
            problems.extend(f"{name}: {problem}" for problem in run["problems"])
    workloads: Dict[str, dict] = {}
    for name in names:
        good = [run for run in runs[name] if run["metrics"]]
        if not good:
            continue
        # Same seed, virtual clock, one thread: every count must repeat.
        for key in ("attempted", "failed", "failures", "counts"):
            if any(run[key] != good[0][key] for run in good):
                problems.append(f"{name}: {key} differs between repeats: "
                                f"{[run[key] for run in good]}")  # fmt: skip
        metrics = {}
        for metric, first in good[0]["metrics"].items():
            values = [run["metrics"][metric]["value"] for run in good]
            metrics[metric] = dict(summarise(values), unit=first["unit"])
        workloads[name] = {
            "attempted": good[0]["attempted"],
            "failed": good[0]["failed"],
            "failures": good[0]["failures"],
            "counts": good[0]["counts"],
            "end_to_end": metrics,
            "per_layer": traced[name]["metrics"] if trace else {},
        }
    if all(name in workloads for name in SAME_INTERACTIONS):
        inproc, wire = (workloads[name] for name in SAME_INTERACTIONS)
        for key in ("attempted", "failed", "failures", "counts"):
            if inproc[key] != wire[key]:
                problems.append(f"{key} differs between {' and '.join(SAME_INTERACTIONS)}: "
                                f"{inproc[key]} and {wire[key]}")  # fmt: skip

    for name, workload in workloads.items():
        print(f"\n{name}  ({workload['attempted']} interactions, {workload['failed']} failed"
              f" {workload['failures'] or ''}; {workload['counts']})")  # fmt: skip
        for metric, s in workload["end_to_end"].items():
            if s["median"] is None:
                print(f"  {metric:28s} {'-':>12s} {s['unit']:6s} (no such interactions)")
                continue
            print(f"  {metric:28s} {s['median']:12.6g} {s['unit']:6s} "
                  f"[{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']} noise={s['noise']:.1%}")  # fmt: skip
        for metric, value in workload["per_layer"].items():
            print(f"  {metric:40s} {value['value']:14.6g} {value['unit']}")
        if workload["per_layer"]:
            untraced = workload["end_to_end"]["interactions_per_s"]["median"]
            traced_rate = workload["per_layer"]["run.interactions_per_s"]["value"]
            print(f"  traced throughput is {traced_rate / untraced:.3f} of untraced {untraced:.6g} 1/s")
    for problem in problems:
        print(f"INCORRECT: {problem}")

    stamp = git_stamp()
    result = {
        "git": stamp, "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "seed": seed, "seconds": seconds,
        "repeats": repeats, "correct": not problems, "problems": problems,
        "workloads": workloads,
    }  # fmt: skip
    path = os.path.join(HERE, "out", f"result-{str(stamp['sha'])[:12]}-{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(result, handle, indent=1)
    print(f"\nwrote {os.path.relpath(path, os.getcwd())}")
    return 1 if problems else 0
