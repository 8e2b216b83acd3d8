"""Smoke test of the benchmark itself: ``python -m pytest perf -q``.

Not part of tier-1 (``testpaths`` names only tests/ and benchmarks/): it
runs every workload at a twentieth of its size, twice, plus a traced pass.
"""

import glob
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from compare import BOUNDS, EXACT  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def test_every_workload_small_repeats_exactly_and_traces_reconcile():
    for stale in glob.glob(os.path.join(HERE, "out", "result-*-7.json")):
        os.remove(stale)
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--seed", "7", "--seconds", "0.5", "--repeats", "2", "--trace"],
        capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    elapsed = time.monotonic() - started
    # run.py exits non-zero if a run failed its output checks, a count
    # differed between the repeats, or the two bidding workloads disagreed.
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    assert elapsed < 60, f"smoke took {elapsed:.0f} s"

    (path,) = glob.glob(os.path.join(HERE, "out", "result-*-7.json"))
    with open(path) as handle:
        result = json.load(handle)
    assert list(result["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(BOUNDS)
    for name, workload in result["workloads"].items():
        assert list(workload["end_to_end"]) == list(BOUNDS), name
        assert list(workload["per_layer"]) == [m["name"] for m in SPEC["per_layer"]], name
        for metric in EXACT:
            assert len(set(workload["end_to_end"][metric]["values"])) == 1, (name, metric)
        layers = workload["per_layer"]
        assert layers["trace.reconcile_pct"]["value"] <= 2, name
        assert layers["trace.missing_targets"]["value"] == 0, name
        assert layers["app.interactions"]["value"] == workload["attempted"], name
        assert os.path.exists(os.path.join(HERE, "out", f"trace-{name}.jsonl"))


def test_one_run_prints_what_benchmark_json_lists():
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "ledger-transfer-wire",
             "--seed", "7", "--seconds", "0.5", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170,
        )  # fmt: skip
        assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
        assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
        assert list(last["metrics"]) == [m["name"] for m in listed]
        for m in listed:
            value = last["metrics"][m["name"]]
            assert value["unit"] == m["unit"] and isinstance(value["value"], (int, float)), m
            assert trace or value["value"] > 0, m  # an end-to-end metric is never 0
