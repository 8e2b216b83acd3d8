"""Throughput-vs-threads scaling of the concurrent request path.

The claim under test: with the multiplexed socket transport and the
thread-safe cache tier, K worker threads (each its own ``TxCacheClient``, the paper's
one-library-per-application-server topology) overlap their cache RPCs and
wall-clock throughput scales with K, while a single thread is bound by one
round trip at a time.  The socket runs model the LAN round trip of the
paper's gigabit testbed (see ``CacheServerProcess.simulated_latency_seconds``)
— on bare loopback an RPC is pure CPU under the GIL and *no* transport could
scale, which the in-process series documents.

Each point is a closed-loop run of the one wall-clock engine
(``run_open_loop``) on a fresh deployment.  Asserted as *shape* — zero
errors, exact interaction counts, a warm hit rate, and how many RPCs one
connection really had in flight at once,
counted by the node (``CacheServerProcess.max_in_flight_per_connection``) —
never as a ratio of two wall clocks.  The scaling curve is still printed.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.bench.experiments import concurrent_clients


def test_concurrent_clients_scaling_curve(benchmark):
    """Socket transport: K threads keep K round trips in flight."""

    def run():
        return concurrent_clients(
            thread_counts=(1, 2, 4, 8), interactions_per_thread=300
        )

    result = run_once(benchmark, run)
    print("\n" + result.format_table())

    for transport in ("inprocess", "socket"):
        for point in result.results[transport]:
            assert point.errors == 0
            assert point.interactions == point.threads * 300
            assert point.hit_rate > 0.5  # the warmed cache served the hot table
            assert point.degraded_lookups == 0 and point.nodes_evicted == 0

    # Printed above, not gated.  The headline claim of the concurrency
    # refactor as a count: K threads genuinely overlap RPCs on the one
    # connection per node.  One thread never has two in flight; threads
    # that overlap do — a transport that serialized round trips would end
    # every run at exactly 1.
    overlapped = {
        point.threads: point.max_in_flight_per_connection
        for point in result.results["socket"]
    }
    print(f"socket: most RPCs in flight on one connection, by threads: {overlapped}")
    assert overlapped[1] == 1
    for threads in (2, 4, 8):
        assert 2 <= overlapped[threads] <= threads, overlapped
    assert all(
        point.max_in_flight_per_connection == 0 for point in result.results["inprocess"]
    )
