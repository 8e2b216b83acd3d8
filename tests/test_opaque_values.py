"""A cache node stores bytes: it never decodes, re-encodes or measures a value.

The client end of a socket connection (``SocketTransport``) pickles a value
once into a :class:`~repro.cache.entry.ValueBlob` and unpickles it once on
the way back; the node keeps, sizes, migrates and returns those bytes as
they are.  What this file pins:

* **The node never materializes a value.**  A poison-pill object — one
  whose ``__setstate__`` records the attempt and raises in any process but
  the test's — goes through every path a value takes across a child-process
  node (put, lookup, migration out and in, version introspection), comes
  back equal, and the pill never trips.
* **Bytes in, same accounting out.**  The blob's length is what an
  in-process node would have charged for the object, so the same put
  sequence fills, sizes and evicts identically on both kinds of node.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import random

import pytest

from repro.cache.entry import EntryRecord, LookupRequest, ValueBlob, estimate_size
from repro.cache.netserver import CacheServerProcess, SocketTransport
from repro.cache.procnode import CacheNodeHost
from repro.cache.server import CacheServer
from repro.comm.transport import InProcessTransport
from repro.db.invalidation import InvalidationTag
from repro.interval import Interval
from tests.helpers import NODE_HOSTINGS, live_node, lookup_one

_TEST_PID = os.getpid()


class PoisonPill:
    """A value only the test process may unpickle.

    Node processes are forked from the test process, so they inherit this
    class, ``_TEST_PID`` and the shared counter — and have a different pid.
    """

    #: Unpickling attempts made outside the test process (shared memory).
    trips = multiprocessing.Value("i", 0)

    def __init__(self, payload) -> None:
        self.payload = payload

    def __eq__(self, other) -> bool:
        return type(other) is PoisonPill and other.payload == self.payload

    def __hash__(self) -> int:  # pragma: no cover - defined with __eq__
        return hash(repr(self.payload))

    def __setstate__(self, state) -> None:
        if os.getpid() != _TEST_PID:
            with PoisonPill.trips.get_lock():
                PoisonPill.trips.value += 1
            raise RuntimeError("a cache node unpickled a cached value")
        self.__dict__.update(state)


@pytest.fixture
def two_process_nodes():
    with CacheNodeHost("a", capacity_bytes=1 << 20) as a:
        with CacheNodeHost("b", capacity_bytes=1 << 20) as b:
            yield a, b


def test_a_node_process_never_unpickles_a_value(two_process_nodes):
    PoisonPill.trips.value = 0
    host_a, host_b = two_process_nodes
    assert _TEST_PID not in (host_a.pid, host_b.pid)
    a = SocketTransport(host_a.address)
    b = SocketTransport(host_b.address)
    try:
        pill = PoisonPill({"rows": [{"id": i, "name": f"row{i}"} for i in range(5)]})
        tag = InvalidationTag("items", "id", 7)
        assert a.put("pill", pill, Interval(3), frozenset({tag})) is True
        assert a.put("old", PoisonPill("bounded"), Interval(1, 2)) is True

        hit, miss = a.multi_lookup(
            [LookupRequest("pill", 3, 9, 0), LookupRequest("never", 3, 9, 0)]
        )
        assert hit.hit and hit.value == pill and set(hit.tags) == {tag}
        assert not miss.hit and miss.value is None
        assert lookup_one(a, "pill", 3, 9).value == pill

        records, cursor = a.extract_entries()
        assert cursor is None
        assert {r.key: r.value for r in records} == {
            "pill": pill,
            "old": PoisonPill("bounded"),
        }
        assert b.install_entries(records) == 2
        assert lookup_one(b, "pill", 3, 9).value == pill
        assert lookup_one(b, "old", 1, 1).value == PoisonPill("bounded")

        (version,) = b.versions_of("pill")
        assert version.value == pill
        # Charged for the bytes it holds — the size an in-process node
        # charges for the object — not for a re-serialization.
        assert version.size == estimate_size("pill", pill)

        # Both nodes are still serving, and neither ever tripped the pill.
        assert a.put("after", PoisonPill(1), Interval(4)) is True
        assert lookup_one(a, "after", 4, 4).value == PoisonPill(1)
        assert b.keys() == ["old", "pill"]
        assert PoisonPill.trips.value == 0
    finally:
        a.close()
        b.close()


def test_the_pill_does_trip_where_a_value_is_unpickled(two_process_nodes):
    """The detector detects, and nothing but a blob can carry a value.

    A pill sent *outside* a blob is a type the wire format does not name:
    the client refuses it before a byte is sent, and no process trips it.
    A forked child that does unpickle a pill — what a node decoding a
    pickle would do — trips it."""
    PoisonPill.trips.value = 0
    host, _ = two_process_nodes
    transport = SocketTransport(host.address)
    try:
        with pytest.raises(TypeError, match="no encoding for 'PoisonPill'"):
            transport._call("put", "raw", PoisonPill(0), Interval(0), frozenset())
        assert PoisonPill.trips.value == 0
        assert transport.put("fine", PoisonPill(0), Interval(0)) is True
        assert lookup_one(transport, "fine", 0, 0).value == PoisonPill(0)
    finally:
        transport.close()
    child = multiprocessing.get_context("fork").Process(
        target=pickle.loads, args=(pickle.dumps(PoisonPill(0)),)
    )
    child.start()
    child.join(timeout=30)
    assert child.exitcode not in (0, None)
    assert PoisonPill.trips.value == 1


# ----------------------------------------------------------------------
# Accounting parity: blob length == what an in-process node charges
# ----------------------------------------------------------------------
def _seeded_puts(seed: int, count: int = 120):
    rng = random.Random(seed)
    for step in range(count):
        key = f"key-{rng.randrange(40)}"
        shape = rng.randrange(4)
        if shape == 0:
            value = {"id": step, "name": "n" * rng.randrange(1, 60), "score": rng.random()}
        elif shape == 1:
            value = [{"id": i, "bid": rng.randrange(10**6)} for i in range(rng.randrange(1, 12))]
        elif shape == 2:
            value = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80)))
        else:
            value = (step, None, "x" * rng.randrange(200))
        lo = step
        yield key, value, Interval(lo, lo + 1 + rng.randrange(3))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_socket_node_fills_sizes_and_evicts_like_an_in_process_node(seed):
    capacity = 4096  # a few dozen entries: the sequence evicts many times
    local = CacheServer(name="local", capacity_bytes=capacity)
    remote = CacheServer(name="remote", capacity_bytes=capacity)
    inproc = InProcessTransport(local)
    with CacheServerProcess(remote) as process:
        wire = SocketTransport(process.address)
        try:
            evictions = {"local": [], "remote": []}
            for key, value, interval in _seeded_puts(seed):
                for name, transport in (("local", inproc), ("remote", wire)):
                    before = set(transport.keys())
                    transport.put(key, value, interval)
                    evictions[name].append(sorted(before - set(transport.keys())))
                assert remote.used_bytes == local.used_bytes
            assert evictions["remote"] == evictions["local"]
            assert any(evictions["local"]), "the capacity never forced an eviction"
            assert wire.keys() == inproc.keys()
            for key in inproc.keys():
                assert [(e.interval, e.size, e.value) for e in wire.versions_of(key)] == [
                    (e.interval, e.size, e.value) for e in inproc.versions_of(key)
                ]
            # What the socket node itself holds is bytes, never the object.
            assert all(
                type(entry.value) is ValueBlob
                for key in remote.keys()
                for entry in remote.versions_of(key)
            )
        finally:
            wire.close()


@pytest.mark.parametrize("hosting", NODE_HOSTINGS)
@pytest.mark.parametrize("value", [b"", b"raw \x00 bytes", ValueBlob(b"looks like a blob")])
def test_a_bytes_value_round_trips_as_the_bytes_it_was(value, hosting):
    with live_node(hosting, "n", 1 << 20) as process:
        transport = SocketTransport(process.address)
        try:
            transport.put("k", value, Interval(0))
            got = lookup_one(transport, "k", 0, 5).value
            assert type(got) is type(value) and got == value
            (record,), _ = transport.extract_entries()
            assert type(record.value) is type(value) and record.value == value
            transport.install_entries([EntryRecord("k2", value, Interval(0))])
            got = lookup_one(transport, "k2", 0, 5).value
            assert type(got) is type(value) and got == value
        finally:
            transport.close()
