"""The multiplexed transport + event-loop node: the wire stack's contracts.

Covers what the transport-parity suites cannot: per-connection
backpressure, and poisoned-connection semantics (timeouts fail every pending
RPC and the transport re-dials).  The tests are deterministic — slowness is
injected with events or the node's modelled round trip, never timing
guesses.  That a node serves every frame in arrival order, one bounded page
at a time, is counted in ``benchmarks/test_bench_node_loop_shape.py``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cache.netserver import (
    CacheNodeUnreachableError,
    CacheServerProcess,
    CacheTransportError,
    SocketTransport,
)
from repro.cache.server import CacheServer
from repro.interval import Interval
from tests.helpers import NODE_HOSTINGS, live_node, lookup_one


def make_server(name="node"):
    return CacheServer(name=name, capacity_bytes=4 * 1024 * 1024)


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
def test_backpressure_bounds_queue_pauses_reads_and_recovers():
    """Flooding one connection past the bound pauses it without deadlock.

    The node holds every reply on its timer heap for a modelled round trip,
    so requests stay in flight until their timers fire.  The node must
    (a) stop reading the connection at ``max_queued_per_connection``,
    (b) never exceed that bound, and (c) drain everything afterwards.  The
    bound shows in when the node serves each request: the one ``bound``
    places behind another cannot be served before a reply it held for the
    whole round trip has gone out.
    """
    bound = 4
    flood = 16
    latency = 0.1
    server = make_server()
    served = []
    original = server.keys_in_range

    def timed_keys_in_range(*args):
        served.append(time.monotonic())
        return original(*args)

    server.keys_in_range = timed_keys_in_range
    with CacheServerProcess(
        server, simulated_latency_seconds=latency, max_queued_per_connection=bound
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
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive(), "flood worker wedged (deadlock)"
        finally:
            transport.close()
    assert len(results) == flood
    assert all(r == [] for r in results)
    assert process.backpressure_pauses >= 1
    assert process.max_in_flight_per_connection <= bound
    assert len(served) == flood
    assert all(late - early >= latency for early, late in zip(served, served[bound:]))


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
                transport._call("probe")  # missing key/lo/hi
            assert transport.put("k", 1, Interval(0)) is True
            assert lookup_one(transport, "k", 0, 5).hit
        finally:
            transport.close()


# ----------------------------------------------------------------------
# Failure semantics
# ----------------------------------------------------------------------
def test_timeout_poisons_connection_and_transport_redials():
    """A timed-out RPC fails every pending call; the next call reconnects."""
    server = make_server()
    release = threading.Event()
    original = server.keys_in_range

    def stalled_keys_in_range(*args):
        assert release.wait(timeout=30)
        return original(*args)

    server.keys_in_range = stalled_keys_in_range
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
    """A reply the node still holds when it shuts down never comes: the
    caller waiting for it fails, and so does the next call."""
    server = make_server()
    served = threading.Event()
    original = server.keys_in_range

    def keys_in_range(*args):
        served.set()
        return original(*args)

    server.keys_in_range = keys_in_range
    # The reply waits on the timer heap far longer than the test runs.
    process = CacheServerProcess(server, simulated_latency_seconds=60.0)
    transport = SocketTransport(process.address, name=server.name)  # no ping
    try:
        failures = []

        def call_keys():
            try:
                transport.keys()
            except CacheNodeUnreachableError as exc:
                failures.append(exc)

        caller = threading.Thread(target=call_keys)
        caller.start()
        assert served.wait(timeout=10)
        started = time.monotonic()
        process.shutdown()
        assert time.monotonic() - started < 2.0, "shutdown waited on the held reply"
        caller.join(timeout=10)
        assert not caller.is_alive()
        assert len(failures) == 1
        with pytest.raises(CacheNodeUnreachableError):
            transport.probe("k", 0, 5)
    finally:
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
