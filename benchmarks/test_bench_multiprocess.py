"""Multi-process smoke: many RPCs in flight on one socket per node.

The claim under test: the multiplexed transport + event-loop node keep every
worker thread's RPC in flight on **one** socket per node, so an application
server's concurrency is not capped by a connection count.

The benchmark forks real worker processes (no client GIL in the
measurement), each driving the wall-clock engine closed-loop.  What is
asserted is *shape*, from counts the nodes keep — zero errors, the exact
operation count, a warm hit rate, and how many requests one connection
really had in flight — never a wall clock: forked workers on a shared
two-core runner make those flaky gates.  The throughput is printed.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.bench.loadgen import OpenLoopConfig, run_openloop_benchmark

#: 4 worker processes x 16 threads, 2 cache nodes, 20 ms modelled RTT.
WORKERS = dict(
    mode="closed",
    processes=4,
    threads_per_process=16,
    total_ops=1280,
    simulated_rpc_latency_seconds=2e-2,
    seed=7,
)


def test_worker_threads_overlap_their_rpcs_on_one_connection(benchmark):
    def run():
        return run_openloop_benchmark(OpenLoopConfig(label="multiprocess", **WORKERS))

    result = run_once(benchmark, run)
    counts = (
        f"{result.responses} responses in {result.sendmsg_calls} sendmsg, "
        f"<= {result.max_in_flight_per_connection} in flight per connection"
    )
    print(f"\n{result.summary()}  {counts}")
    assert result.errors == 0
    assert result.completed == 1280
    assert result.hit_rate > 0.9  # warmed shared cache actually served
    assert result.responses >= result.completed  # the nodes answered them
    # The headline, as a count: one socket carried several of a process's
    # RPCs at once.  A regression to serialized round trips shows as 1.
    assert result.max_in_flight_per_connection > 1, counts
