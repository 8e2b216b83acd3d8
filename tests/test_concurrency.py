"""Concurrency suite: the request path under real multi-threaded traffic.

Covers the thread-safety contract of every layer the concurrent request
path crosses — :class:`CacheServer` (one reentrant lock per server), the
:class:`InvalidationBus` (locked subscriber list and ordered delivery), the
:class:`Pincushion` (exact in-use counts), the multiplexed
:class:`SocketTransport`, and :class:`TxCacheDeployment` lifecycle — plus
the paper's one-snapshot invariant checked from eight threads at once via
:class:`tests.helpers.ConsistencyHarness` under both transports.

The stress tests are deliberately schedule-dependent (that is the point);
they assert invariants, never interleavings.  CI runs this file with
``pytest-timeout`` so a regression that deadlocks cannot hang a runner
silently.
"""

from __future__ import annotations

import itertools
import socket
import sys
import threading
import time

import pytest

from repro.cache.netserver import (
    CacheNodeUnreachableError,
    CacheServerProcess,
    SocketTransport,
)
from repro.cache.server import CacheServer
from repro.clock import ManualClock
from repro.comm.multicast import InvalidationBus, InvalidationMessage
from repro.core.api import ConsistencyMode
from repro.db.invalidation import InvalidationTag
from repro.deployment import TxCacheDeployment
from repro.interval import Interval
from repro.pincushion.pincushion import Pincushion
from tests.helpers import ConsistencyHarness, transports_under_test

THREADS = 8


def run_threads(worker, count=THREADS):
    """Run ``worker(index)`` on ``count`` threads; re-raise the first error."""
    errors = []

    def wrapped(index):
        try:
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - surfaced to the test
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(i,), name=f"stress-{i}")
        for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive(), "stress worker wedged (possible deadlock)"
    if errors:
        raise errors[0]


# ----------------------------------------------------------------------
# CacheServer: 8-thread mixed get/put/invalidate over one node
# ----------------------------------------------------------------------
def test_cache_server_mixed_stress_preserves_invariants():
    server = CacheServer(name="stress", capacity_bytes=256 * 1024)
    timestamps = itertools.count(1)
    tag = InvalidationTag("items", "id", "7")

    def worker(index):
        import random

        rng = random.Random(1000 + index)
        for step in range(300):
            key = f"key-{rng.randrange(64)}"
            action = rng.random()
            if action < 0.45:
                lo = rng.randrange(50)
                server.put(key, {"who": index, "step": step}, Interval(lo, lo + 10))
            elif action < 0.60:
                server.put(key, {"who": index}, Interval(rng.randrange(50), None),
                           tags=frozenset({tag}))
            elif action < 0.85:
                result = server.lookup(key, 0, 60)
                if result.hit:
                    assert result.value is not None
            elif action < 0.95:
                server.probe(key, 0, 60)
            else:
                server.process_invalidation(
                    InvalidationMessage(timestamp=next(timestamps), tags=(tag,))
                )

    run_threads(worker)

    # Structural invariants must hold exactly after arbitrary interleaving.
    stats = server.stats
    assert stats.lookups == stats.hits + stats.misses
    expected_bytes = sum(
        entry.size for key in server.keys() for entry in server.versions_of(key)
    )
    assert server.used_bytes == expected_bytes
    assert server.used_bytes <= server.capacity_bytes
    # Every put either inserted or was rejected — no third outcome.
    assert stats.insertions + stats.rejected_insertions > 0


# ----------------------------------------------------------------------
# Cluster: 8 threads x ConsistencyHarness, replicated, both transports
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transport", transports_under_test())
def test_cluster_stress_one_snapshot_invariant(transport):
    """The paper's core invariant, checked from every thread concurrently.

    Eight harnesses (one per thread, each with its own TxCacheClient and
    RNG) share one deployment and one ``state`` table over a replicated
    cluster.  Every read-only transaction must observe exactly one database
    state, whichever thread, replica, or transport served it; a single
    mixed-version read raises ConsistencyViolation and fails the test.
    """
    deployment = TxCacheDeployment(
        cache_nodes=3,
        cache_capacity_bytes_per_node=2 * 1024 * 1024,
        transport=transport,
        replication_factor=2,
        mode=ConsistencyMode.CONSISTENT,
    )
    try:
        harnesses = [
            ConsistencyHarness(deployment, seed=100 + i, create_table=(i == 0))
            for i in range(THREADS)
        ]

        def worker(index):
            harnesses[index].run(steps=40)

        run_threads(worker)
        total_reads = sum(h.reads for h in harnesses)
        total_writes = sum(h.writes for h in harnesses)
        assert total_reads > 0 and total_writes > 0
    finally:
        deployment.shutdown()


@pytest.mark.parametrize("transport", transports_under_test())
def test_single_server_cluster_stress(transport):
    """Same invariant with every key on one node (maximum lock contention)."""
    deployment = TxCacheDeployment(
        cache_nodes=1,
        cache_capacity_bytes_per_node=2 * 1024 * 1024,
        transport=transport,
    )
    try:
        harnesses = [
            ConsistencyHarness(deployment, seed=500 + i, create_table=(i == 0))
            for i in range(THREADS)
        ]
        run_threads(lambda index: harnesses[index].run(steps=30))
        assert sum(h.reads for h in harnesses) > 0
    finally:
        deployment.shutdown()


# ----------------------------------------------------------------------
# InvalidationBus: subscribe/unsubscribe racing an in-flight publish
# ----------------------------------------------------------------------
class _RecordingSubscriber:
    def __init__(self):
        self.received = []

    def process_invalidation(self, message):
        self.received.append(message.timestamp)


def test_bus_subscribe_unsubscribe_race_with_publish():
    """Regression: churning subscribers must never corrupt a delivery.

    Before the bus took a lock, a subscribe/unsubscribe landing between the
    subscriber-list snapshot and delivery could mutate the list mid-publish
    (or double-deliver through a stale snapshot).  A stable subscriber must
    see every message exactly once, in timestamp order, no matter how hard
    other threads churn the membership.
    """
    bus = InvalidationBus(synchronous=True)
    stable = _RecordingSubscriber()
    bus.subscribe(stable)
    total = 600
    stop = threading.Event()

    def churn(index):
        churner = _RecordingSubscriber()
        while not stop.is_set():
            bus.subscribe(churner)
            bus.unsubscribe(churner)

    churners = [
        threading.Thread(target=churn, args=(i,), daemon=True) for i in range(4)
    ]
    for thread in churners:
        thread.start()
    try:
        for timestamp in range(1, total + 1):
            bus.publish(InvalidationMessage(timestamp=timestamp))
    finally:
        stop.set()
        for thread in churners:
            thread.join(timeout=10)
            assert not thread.is_alive()

    assert stable.received == list(range(1, total + 1))


def test_bus_concurrent_publishers_stay_ordered():
    """Publishers racing for timestamps must serialize, never interleave."""
    bus = InvalidationBus(synchronous=True)
    subscriber = _RecordingSubscriber()
    bus.subscribe(subscriber)
    counter = itertools.count(1)
    publish_lock = threading.Lock()

    def worker(index):
        for _ in range(200):
            # Allocation and publish must be atomic together — exactly what
            # Database.commit does under its commit lock.
            with publish_lock:
                bus.publish(InvalidationMessage(timestamp=next(counter)))

    run_threads(worker, count=4)
    assert subscriber.received == sorted(subscriber.received)
    assert len(subscriber.received) == 800


# ----------------------------------------------------------------------
# Pincushion: exact reference counts under contention
# ----------------------------------------------------------------------
def test_pincushion_refcounts_exact_under_contention():
    clock = ManualClock()
    pincushion = Pincushion(clock=clock, expiry_seconds=0.0)
    pincushion.register(1, wallclock=clock.now(), in_use=False)

    def worker(index):
        for _ in range(500):
            pincushion.register(1, wallclock=0.0, in_use=True)
            pincushion.release([pincushion.snapshot(1)])

    run_threads(worker)
    snapshot = pincushion.snapshot(1)
    assert snapshot is not None
    # Every register was balanced by a release; a lost update would strand
    # the count above zero and pin the snapshot forever.
    assert snapshot.in_use == 0
    clock.advance(10.0)
    assert pincushion.expire_old_snapshots() == [1]


# ----------------------------------------------------------------------
# SocketTransport: one connection, however many callers
# ----------------------------------------------------------------------
def test_socket_transport_multiplexes_callers_over_one_connection():
    server = CacheServer(name="mux")
    with CacheServerProcess(server, simulated_latency_seconds=0.005) as process:
        transport = SocketTransport(process.address)
        try:
            connection = transport._connection
            barrier = threading.Barrier(6)

            def worker(index):
                barrier.wait()
                for _ in range(5):
                    transport.probe(f"k{index}", 0, 10)

            run_threads(worker, count=6)
            # Six threads shared the one connection the constructor dialled.
            assert transport._connection is connection and not connection.dead
        finally:
            transport.close()
    assert 2 <= process.max_in_flight_per_connection <= 6


def test_socket_transport_sets_tcp_nodelay():
    server = CacheServer(name="nagle")
    with CacheServerProcess(server) as process:
        transport = SocketTransport(process.address)
        try:
            sock = transport._connection._sock
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
        finally:
            transport.close()


def test_socket_transport_read_timeout_surfaces_as_unreachable():
    """A hung node must fail the RPC within the timeout, not block forever."""
    listener = socket.create_server(("127.0.0.1", 0))
    try:
        address = listener.getsockname()[:2]
        # Nothing ever accepts/responds beyond the TCP handshake: the
        # connection succeeds, the read must time out.
        transport = SocketTransport.__new__(SocketTransport)
        transport.address = address
        transport.timeout_seconds = 0.2
        transport._lock = threading.Lock()
        transport._connection = None
        transport._closed = False
        transport.op_counts = {}
        transport._count_lock = threading.Lock()
        transport.name = "hung"
        started = time.perf_counter()
        with pytest.raises(CacheNodeUnreachableError):
            transport._call("ping")
        assert time.perf_counter() - started < 5.0
        transport.close()
    finally:
        listener.close()


def test_socket_transport_close_is_idempotent_and_fails_fast():
    server = CacheServer(name="closing")
    with CacheServerProcess(server) as process:
        transport = SocketTransport(process.address)
        assert transport.probe("k", 0, 10) is False
        transport.close()
        transport.close()  # second close must be a no-op
        with pytest.raises(CacheNodeUnreachableError):
            transport.probe("k", 0, 10)


def test_shutdown_racing_a_connect_stops_the_loop():
    """shutdown() right after a connect lands anywhere in the loop's accept
    and register of that connection; the loop thread must still exit."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_number in range(400):
            process = CacheServerProcess(CacheServer(name="race"))
            client = socket.create_connection(process.address, timeout=5.0)
            try:
                for _ in range(round_number % 200):
                    pass  # sweep where in the accept loop the shutdown lands
                process.shutdown()
            finally:
                client.close()
            assert not process._thread.is_alive()
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# Deployment lifecycle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transport", transports_under_test())
def test_deployment_double_shutdown_is_idempotent(transport):
    deployment = TxCacheDeployment(cache_nodes=2, transport=transport)
    deployment.shutdown()
    deployment.shutdown()  # must not raise
    assert deployment.cache.node_count == 0


@pytest.mark.parametrize("transport", transports_under_test())
def test_shutdown_with_live_clients_does_not_raise(transport):
    """Tearing the cache tier down mid-traffic degrades, never crashes.

    Worker threads keep issuing read-only transactions while the main
    thread shuts the deployment down; a dead cache looks like an empty one
    (reads fall through to the database), so every interaction must still
    succeed.
    """
    from repro.db.query import Eq, Select
    from repro.db.schema import TableSchema

    deployment = TxCacheDeployment(
        cache_nodes=2, cache_capacity_bytes_per_node=1024 * 1024, transport=transport
    )
    deployment.database.create_table(
        TableSchema.build("state", ["id", "version"], primary_key="id")
    )
    deployment.database.bulk_load(
        "state", [{"id": i, "version": 0} for i in range(6)]
    )
    clients = [deployment.client() for _ in range(4)]

    readers_started = threading.Barrier(5)
    worker_errors = []

    def worker(index):
        client = clients[index]
        readers_started.wait()
        for _ in range(200):
            try:
                with client.read_only(staleness=30.0):
                    client.query(Select("state", Eq("id", index % 6)))
            except Exception as exc:  # noqa: BLE001
                worker_errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    readers_started.wait()
    deployment.shutdown()  # mid-traffic
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    deployment.shutdown()  # and again, after the dust settles
    assert worker_errors == []
