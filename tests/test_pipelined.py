"""The multiplexed transport + event-loop node: the wire stack's contracts.

Covers what the transport-parity suites cannot: out-of-order completion on
one multiplexed connection, per-connection backpressure, and
poisoned-connection semantics (timeouts fail every pending RPC and the
transport re-dials).  The tests are deterministic — slowness is injected
with events, never timing guesses.
"""

from __future__ import annotations

import threading

import pytest

from repro.cache.netserver import (
    CacheNodeUnreachableError,
    CacheServerProcess,
    CacheTransportError,
    SocketTransport,
)
from repro.cache.server import CacheServer
from repro.clock import ManualClock
from repro.interval import Interval
from tests.helpers import NODE_HOSTINGS, live_node


def make_server(name="node"):
    return CacheServer(name=name, capacity_bytes=4 * 1024 * 1024, clock=ManualClock())


# ----------------------------------------------------------------------
# Out-of-order completion (the reason the event loop exists)
# ----------------------------------------------------------------------
def test_fast_lookup_overtakes_slow_extract_on_one_connection():
    """A stalled extract_entries must not head-of-line-block a lookup.

    Both requests travel on the *same* pipelined connection.  The extract
    is blocked inside a worker on an event the test controls; the lookup
    must complete while the extract is still stuck, proving the event-loop
    server completes responses out of arrival order.
    """
    server = make_server()
    slow_started = threading.Event()
    release_slow = threading.Event()
    original = server.extract_entries

    def stalled_extract(cursor=None, limit=64):
        slow_started.set()
        assert release_slow.wait(timeout=10), "test deadlock: never released"
        return original(cursor, limit)

    server.extract_entries = stalled_extract
    with CacheServerProcess(server) as process:
        transport = SocketTransport(process.address)
        try:
            transport.put("k", {"v": 1}, Interval(0))
            slow_result = {}

            def run_slow():
                slow_result["value"] = transport.extract_entries()

            slow_thread = threading.Thread(target=run_slow)
            slow_thread.start()
            assert slow_started.wait(timeout=10)
            # The slow op is wedged in a pool worker; the fast op must
            # come back regardless (same socket, later request id).
            result = transport.lookup("k", 0, 5)
            assert result.hit and result.value == {"v": 1}
            assert "value" not in slow_result  # extract still in flight
            release_slow.set()
            slow_thread.join(timeout=10)
            assert not slow_thread.is_alive()
            records, cursor = slow_result["value"]
            assert [r.key for r in records] == ["k"]
        finally:
            release_slow.set()
            transport.close()


def test_reactor_stays_responsive_while_whole_store_op_holds_server_lock():
    """A maintenance op holding the server lock must not block the loop.

    ``evict_stale`` is wedged *while holding the CacheServer lock*.  A
    lookup issued meanwhile necessarily waits for the lock — but it must
    wait in a pool worker, not on the loop thread: lock-free requests
    (``ping``) from the same connection must keep completing throughout.
    Before the pooled-detour fix, the first inline lookup parked the whole
    reactor on the lock and every connection froze.
    """
    server = make_server()
    lock_held = threading.Event()
    release = threading.Event()
    original_evict = server.evict_stale

    def stalled_evict(oldest):
        with server._lock:
            lock_held.set()
            assert release.wait(timeout=30), "test deadlock: never released"
        return original_evict(oldest)

    server.evict_stale = stalled_evict
    with CacheServerProcess(server, worker_threads=4) as process:
        transport = SocketTransport(process.address)
        try:
            transport.put("k", 1, Interval(0))
            evict_thread = threading.Thread(target=lambda: transport.evict_stale(0))
            evict_thread.start()
            assert lock_held.wait(timeout=10)
            lookup_result = {}
            lookup_thread = threading.Thread(
                target=lambda: lookup_result.update(r=transport.lookup("k", 0, 5))
            )
            lookup_thread.start()
            # The lookup is parked on the server lock in a worker; the loop
            # must still serve lock-free traffic on the same connection.
            assert transport._call("ping") == server.name
            assert "r" not in lookup_result  # still waiting on the lock
            release.set()
            for thread in (evict_thread, lookup_thread):
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert lookup_result["r"].hit
        finally:
            release.set()
            transport.close()


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
def test_backpressure_bounds_queue_pauses_reads_and_recovers():
    """Flooding one connection past the bound pauses it without deadlock.

    Every request is a ``keys`` op (pool-dispatched) blocked on an event,
    so in-flight requests accumulate deterministically.  The server must
    (a) stop reading the connection at ``max_queued_per_connection``,
    (b) never exceed that bound, and (c) drain everything once released.
    """
    bound = 4
    flood = 16
    server = make_server()
    release = threading.Event()
    arrived = threading.Semaphore(0)
    original = server.keys

    def stalled_keys():
        arrived.release()
        assert release.wait(timeout=30), "test deadlock: never released"
        return original()

    server.keys = stalled_keys
    with CacheServerProcess(
        server, worker_threads=flood, max_queued_per_connection=bound
    ) as process:
        transport = SocketTransport(process.address)
        try:
            results = []
            threads = [
                threading.Thread(target=lambda: results.append(transport.keys()))
                for _ in range(flood)
            ]
            for thread in threads:
                thread.start()
            # Exactly `bound` requests reach the workers; the rest are
            # parked (unread or queued) behind the paused connection.
            for _ in range(bound):
                assert arrived.acquire(timeout=10)
            assert not arrived.acquire(timeout=0.3), "backpressure bound exceeded"
            assert process.backpressure_pauses >= 1
            assert process.max_in_flight_per_connection <= bound
            release.set()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive(), "flood worker wedged (deadlock)"
            assert len(results) == flood
            assert all(r == [] for r in results)
        finally:
            release.set()
            transport.close()


# ----------------------------------------------------------------------
# Server-side errors
# ----------------------------------------------------------------------
@pytest.mark.parametrize("hosting", NODE_HOSTINGS)
def test_server_side_errors_surface_without_poisoning(hosting):
    """Bad requests raise CacheTransportError; the stream keeps working.

    An unknown op fails fast, client-side (the transport checks its opcode
    table); a structurally bad request — wrong arity — crosses the wire and
    exercises the server's error response.  Neither may poison the
    connection.
    """
    with live_node(hosting) as process:
        transport = SocketTransport(process.address)
        try:
            with pytest.raises(CacheTransportError, match="unknown cache operation"):
                transport._call("no-such-op")
            with pytest.raises(CacheTransportError, match="TypeError"):
                transport._call("lookup")  # missing key/lo/hi
            assert transport.put("k", 1, Interval(0)) is True
            assert transport.lookup("k", 0, 5).hit
        finally:
            transport.close()


# ----------------------------------------------------------------------
# Failure semantics
# ----------------------------------------------------------------------
def test_timeout_poisons_connection_and_transport_redials():
    """A timed-out RPC fails every pending call; the next call reconnects."""
    server = make_server()
    release = threading.Event()
    original = server.keys

    def stalled_keys():
        assert release.wait(timeout=30)
        return original()

    server.keys = stalled_keys
    with CacheServerProcess(server) as process:
        transport = SocketTransport(process.address, timeout_seconds=0.3)
        try:
            with pytest.raises(CacheNodeUnreachableError, match="timed out"):
                transport.keys()
            release.set()
            # The poisoned connection is gone; a fresh call re-dials and
            # works (a response stream that lost a reply cannot be reused).
            assert transport.probe("k", 0, 5) is False
            assert transport.put("k", 1, Interval(0)) is True
        finally:
            release.set()
            transport.close()


def test_server_shutdown_fails_pending_pipelined_calls():
    server = make_server()
    release = threading.Event()
    original = server.keys

    def stalled_keys():
        release.wait(timeout=5)
        return original()

    server.keys = stalled_keys
    process = CacheServerProcess(server)
    transport = SocketTransport(process.address)
    try:
        failures = []

        def call_keys():
            try:
                transport.keys()
            except CacheNodeUnreachableError as exc:
                failures.append(exc)

        caller = threading.Thread(target=call_keys)
        caller.start()
        process.shutdown()
        release.set()
        caller.join(timeout=10)
        assert not caller.is_alive()
        assert len(failures) == 1
        with pytest.raises(CacheNodeUnreachableError):
            transport.probe("k", 0, 5)
    finally:
        release.set()
        transport.close()
        process.shutdown()


@pytest.mark.parametrize("hosting", NODE_HOSTINGS)
def test_transport_close_is_idempotent_and_fails_fast(hosting):
    with live_node(hosting) as process:
        transport = SocketTransport(process.address)
        assert transport.probe("k", 0, 5) is False
        transport.close()
        transport.close()  # second close must be a no-op
        with pytest.raises(CacheNodeUnreachableError):
            transport.probe("k", 0, 5)
