#!/usr/bin/env python3
"""Compare two result files of ``perf/run.py`` made with the same seed.

    python3 perf/compare.py perf/out/result-A.json perf/out/result-B.json

One row per (workload, end-to-end metric): each side's median and quartiles,
B as a ratio of A, the bound, and a verdict.  ``worse``: B's median is worse
than A's by more than the bound.  ``unresolved``: either side's own repeats
spread (q3 - q1) wider than the bound, so the bound cannot be checked.
``better``: B is better by more than either side's spread.  Else ``same``.
The 99th percentiles are shown but not judged (see BOUNDS).  Exits 1 on any ``worse`` or ``unresolved``, 2 if the files are not comparable.

The bounds here are the same-seed ones: both files ran the same interactions,
so counts are exact and only timings carry noise.  ``BENCHMARK.json`` holds
the wider any-seed bounds its driver needs (see README, "Two sets of bounds").
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Two results are comparable only if these agree.
SAME = ("nproc", "python_minor", "seed", "seconds")
#: metric -> (share of A's median, absolute amount in the metric's unit); B
#: may be worse than A by the larger of the two.  None: shown, not judged —
#: on one seed the 99th percentiles spread 15-21 % between repeats in six
#: of eight sets, so the 10 % the issue gave them cannot be checked here.
BOUNDS = {
    "setup_s": (0.10, 0.05),
    "interactions_per_s": (0.08, 0.0),
    "ro_p50_ms": (0.08, 0.0),
    "ro_p99_ms": None,
    "rw_p50_ms": (0.08, 0.0),
    "rw_p99_ms": None,
    "hit_rate": (0.0, 0.001),
    "db_queries_per_interaction": (0.005, 0.0),
    "cpu_ms_per_interaction": (0.08, 0.0),
    "peak_rss_mb": (0.05, 0.0),
    "failed_share": (0.0, 0.0),
}
HIGHER_IS_BETTER = ("interactions_per_s", "hit_rate")
#: Counts of a deterministic run: on one commit they are identical in A and B.
EXACT = ("hit_rate", "db_queries_per_interaction", "failed_share")


def load(path: str) -> dict:
    with open(path) as handle:
        result = json.load(handle)
    result["python_minor"] = ".".join(result["python"].split(".")[:2])
    return result


def verdict(name: str, a: dict, b: dict) -> str:
    share, absolute = BOUNDS[name]
    allowed = max(share * abs(a["median"]), absolute)
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"])
    if spread > allowed:
        return "unresolved"
    worsening = b["median"] - a["median"]
    if name in HIGHER_IS_BETTER:
        worsening = -worsening
    if worsening > allowed:
        return "worse"
    if -worsening > spread:
        return "better"
    return "same"


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    a, b = load(sys.argv[1]), load(sys.argv[2])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for key in SAME:
        if a[key] != b[key]:
            print(f"not comparable: {key} is {a[key]} in A and {b[key]} in B")
            return 2
    names = {
        side: {w: sorted(r["workloads"][w]["end_to_end"]) for w in sorted(r["workloads"])}
        for side, r in (("A", a), ("B", b))
    }
    expected = {w["name"]: sorted(BOUNDS) for w in spec["workloads"]}
    if not names["A"] == names["B"] == expected:
        print("not comparable: workload or metric names differ (A, B, BENCHMARK.json + BOUNDS)")
        return 2

    bad = 0
    print(f"A = {a['git']['sha'][:12]}{'+dirty' if a['git']['dirty'] else ''}   "
          f"B = {b['git']['sha'][:12]}{'+dirty' if b['git']['dirty'] else ''}   "
          f"seed {a['seed']}, {a['seconds']} s, n = {a['repeats']} and {b['repeats']}")  # fmt: skip
    for workload in names["A"]:
        print(f"\n{workload}")
        for name, bounds in BOUNDS.items():
            sa = a["workloads"][workload]["end_to_end"][name]
            sb = b["workloads"][workload]["end_to_end"][name]
            if sa["median"] is None and sb["median"] is None:
                print(f"  {name:28s} -  (no such interactions in this workload)")
                continue
            if sa["median"] is None or sb["median"] is None:
                print(f"not comparable: {workload} has {name} on one side only")
                return 2
            word = verdict(name, sa, sb) if bounds else "not judged"
            bad += word in ("worse", "unresolved")
            if name in EXACT:
                word += " (identical)" if set(sa["values"]) == set(sb["values"]) else " (differs)"
            share, absolute = bounds or (0.0, 0.0)
            bound = " or ".join(
                text for amount, text in ((share, f"{share:.1%}"), (absolute, f"{absolute:g} {sa['unit']}"))
                if amount
            ) or ("no increase" if bounds else "none")  # fmt: skip
            ratio = f"{sb['median'] / sa['median']:.3f}" if sa["median"] else "-"
            print(f"  {name:28s} A {sa['median']:11.5g} [{sa['q1']:.5g}, {sa['q3']:.5g}]  "
                  f"B {sb['median']:11.5g} [{sb['q1']:.5g}, {sb['q3']:.5g}]  "
                  f"B/A {ratio} of {sa['median']:.5g} {sa['unit']}  bound {bound} "
                  f"({'higher' if name in HIGHER_IS_BETTER else 'lower'} is better)  {word}")  # fmt: skip
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
