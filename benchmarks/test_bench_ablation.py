"""Ablation benchmarks for design choices called out in DESIGN.md.

* Lazy timestamp selection (pin sets) versus always demanding the freshest
  snapshot ("eager latest"): lazy selection should achieve a higher
  throughput because transactions can serialize wherever cached data exists
  instead of pinning a new snapshot each.
* The versioned cache (multiple entries per key with disjoint intervals)
  versus the effective behaviour with a very short staleness limit.
* Microbenchmarks of the cache server's core operations (lookup, put,
  invalidation processing), which the paper identifies as cheap relative to
  database work.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.apps.rubis.datagen import IN_MEMORY_CONFIG
from repro.bench.driver import BenchmarkConfig, run_benchmark
from repro.cache.server import CacheServer
from repro.comm.multicast import InvalidationMessage
from repro.db.invalidation import InvalidationTag
from repro.interval import Interval


def _config(staleness: float, label: str) -> BenchmarkConfig:
    return BenchmarkConfig(
        database_config=IN_MEMORY_CONFIG,
        cache_size_bytes=512 * 1024,
        staleness=staleness,
        scale=150,
        sessions=12,
        warmup_interactions=700,
        measure_interactions=1200,
        seed=4,
        label=label,
    )


def test_lazy_vs_eager_timestamp_selection(benchmark):
    """Lazy selection (staleness window + pin sets) vs demanding freshness.

    With a 30 s staleness window the library may serialize a transaction in
    the recent past wherever cached data is available; with a 0 s window it
    effectively always picks the newest snapshot (eager selection) and pays
    the database for a new pin at every BEGIN.

    The claim asserted is the throughput order.  The hit-rate order is
    printed, not asserted: ``lazy.hit_rate > eager.hit_rate`` used to hold
    on this 512 KiB cache only because every entry of the eager run is born
    at the latest commit, so it lost the most to the cache server storing a
    result read from a just-written row as a one-timestamp sliver (33 % then
    against 67 %).  With that validity kept the two are within two points.
    """

    def run_pair():
        lazy = run_benchmark(_config(30.0, "lazy-30s"))
        eager = run_benchmark(_config(0.0, "eager-latest"))
        return lazy, eager

    lazy, eager = run_once(benchmark, run_pair)
    print(
        f"\nlazy (30s window): {lazy.peak_throughput:,.1f} req/s, hit rate {lazy.hit_rate:.1%}"
        f"\neager (latest only): {eager.peak_throughput:,.1f} req/s, hit rate {eager.hit_rate:.1%}"
    )
    assert lazy.peak_throughput > eager.peak_throughput


def test_staleness_window_value(benchmark):
    """A moderate staleness window captures most of the benefit (Figure 7's
    diminishing returns), so 30 s vs 120 s should be close."""

    def run_pair():
        moderate = run_benchmark(_config(30.0, "staleness-30"))
        generous = run_benchmark(_config(120.0, "staleness-120"))
        return moderate, generous

    moderate, generous = run_once(benchmark, run_pair)
    print(
        f"\n30s window: {moderate.peak_throughput:,.1f} req/s"
        f"\n120s window: {generous.peak_throughput:,.1f} req/s"
    )
    assert generous.peak_throughput >= moderate.peak_throughput * 0.9
    assert generous.peak_throughput <= moderate.peak_throughput * 1.6


# ----------------------------------------------------------------------
# Cache-server microbenchmarks
# ----------------------------------------------------------------------
@pytest.fixture()
def populated_server():
    server = CacheServer(capacity_bytes=64 * 1024 * 1024)
    for i in range(5000):
        server.put(
            f"key-{i}",
            {"payload": "x" * 100, "index": i},
            Interval(0),
            frozenset({InvalidationTag.key("items", "id", i)}),
        )
    server.note_timestamp(10)
    return server


def test_cache_lookup_microbenchmark(benchmark, populated_server):
    counter = iter(range(10**9))

    def lookup():
        i = next(counter) % 5000
        return populated_server.lookup(f"key-{i}", 0, 10)

    result = benchmark(lookup)
    assert result is not None


def test_cache_put_microbenchmark(benchmark):
    server = CacheServer(capacity_bytes=256 * 1024 * 1024)
    counter = iter(range(10**9))

    def put():
        i = next(counter)
        server.put(f"key-{i}", {"payload": "x" * 100}, Interval(0))

    benchmark(put)


def test_invalidation_processing_microbenchmark(benchmark, populated_server):
    counter = iter(range(11, 10**9))

    def invalidate():
        ts = next(counter)
        populated_server.process_invalidation(
            InvalidationMessage(timestamp=ts, tags=(InvalidationTag.key("items", "id", ts % 5000),))
        )

    benchmark(invalidate)
