"""Per-core cache nodes: process-hosted vs thread-hosted goodput.

The tentpole claim of the per-core PR: N thread-hosted cache nodes share
one interpreter (one GIL), so serving capacity stops scaling with node
count; N process-hosted nodes (``transport="socket-process"``) each own a
core, so the same machine scales with cores.  The ``percore-openloop``
experiment measures both hostings at a fixed offered rate over node count
∈ {1, 2, 4} and returns the curve.

Small runners measure one smoke cell per hosting; runners with
``PERCORE_MIN_CORES``+ cores sweep the full curve and print the
process-over-thread goodput ratio at 4 nodes.  The ratio of two wall-clock
goodputs is *not* asserted — on a shared runner it is a flaky gate.  What is
asserted is shape: every point's keys, zero errors, every scheduled
operation completed under both hostings, and a warm hit rate in every cell.
"""

from __future__ import annotations

import os

from benchmarks.conftest import run_once
from repro.bench.experiments import PERCORE_MIN_CORES, percore_openloop

#: Every measured point must report the full acceptance currency.
PERCORE_POINT_KEYS = (
    "hosting",
    "transport",
    "nodes",
    "offered_rate",
    "achieved_goodput",
    "p50_ms",
    "p99_ms",
    "queue_wait_p99_ms",
    "service_p99_ms",
    "hit_rate",
    "errors",
)


def test_percore_openloop_records_curve_under_both_hostings(benchmark):
    multicore = (os.cpu_count() or 1) >= PERCORE_MIN_CORES
    # Small runners measure one smoke cell per hosting (shape, not
    # scaling); multicore runners sweep the full {1,2,4}-node curve.
    result = run_once(benchmark, percore_openloop, smoke=not multicore)
    print("\n" + result.format_table())

    points = result.points
    assert len(points) == 2 * len(result.node_counts)  # both hostings per count
    for point in points:
        for key in PERCORE_POINT_KEYS:
            assert key in point, key
        assert point["errors"] == 0
        assert point["achieved_goodput"] > 0

    # Both hostings served the same open-loop schedule in full at every
    # node count (no errors above, equal completions here): the curve
    # compares like with like.
    for threaded, hosted in zip(result.results["thread-hosted"], result.results["process-hosted"]):
        assert threaded.completed == hosted.completed > 0
        assert threaded.hit_rate > 0.9 and hosted.hit_rate > 0.9

    if result.scaling_assertable:
        speedup = result.process_speedup_at(4)
        print(f"process-hosted over thread-hosted at 4 nodes: {speedup:.2f}x")
