#!/usr/bin/env python3
"""The benchmark's one command.

One run (what ``BENCHMARK.json`` names; the last line printed is the result)::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

All four workloads, each repeat in a fresh process, checked against each
other and written to ``perf/out/result-<sha>-<seed>.json``::

    python3 perf/run.py [--seed 1] [--repeats 5] [--seconds 10] [--trace]
"""

from __future__ import annotations

import time

PROCESS_STARTED = time.perf_counter()  # before every other import: setup_s starts here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(args: argparse.Namespace, spec: dict) -> int:
    # String hashing decides dict and set layouts, and with them a few per
    # cent of speed that would otherwise differ from process to process.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    # One CPU for the client and the node processes it forks.  Left to the
    # scheduler, every RPC of the wire workloads wakes a process on the other
    # core through the hypervisor: a third slower, and on a busy host their
    # throughput then spreads 32 % across seeds, more than any bound allowed
    # (README, "Load model").  One client in a closed loop never needs two.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    from calibration import calibrate, slowdown

    kernel_before = calibrate()
    from workloads import run_once

    import_seconds = (time.perf_counter() - PROCESS_STARTED) / slowdown(kernel_before, calibrate())
    result = run_once(args.workload, args.seed, args.seconds, bool(args.trace), import_seconds)

    for name, (value, unit) in result["metrics"].items():
        print(f"{name:40s} {'-' if value is None else format(value, '14.6g'):>14s} {unit}")
    print(f"raw wall {result['raw']['wall_s']:.3f} s at {result['raw']['slowdown']:.3f} x the "
          f"nominal kernel time; failures {result['failures'] or 'none'}")  # fmt: skip
    for problem in result["problems"]:
        print(f"INCORRECT: {problem}")
    result["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
    }
    # Everything measured, for suite.py; then, last, what BENCHMARK.json lists.
    print(json.dumps(result))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: result["metrics"][m["name"]] for m in listed},
    }))  # fmt: skip
    return 0 if result["correct"] else 1


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    if args.workload:
        return one_run(args, spec)
    from suite import run_suite

    return run_suite(spec, args.seed, args.repeats, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
