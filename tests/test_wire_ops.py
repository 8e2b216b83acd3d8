"""Every operation of the wire protocol answers what the server answers.

A node serves each request opcode through one table in
``repro.cache.netserver``; a wrong or missing entry there would turn one
operation into another, or into an error, for every client.  Each test here
sends one opcode of :data:`repro.comm.wire.OPCODES` through a
:class:`SocketTransport` to a live node — hosted in a thread and in a child
process — and makes the same calls through an :class:`InProcessTransport`
to a server prepared the same way.  The results must be equal, the calls
must have crossed the wire as that opcode and no other, and afterwards
everything observable about the two stores must be equal too: keys,
versions (value, validity, tags, charged size), watermark, counters and
what a lookup finds.
"""

from __future__ import annotations

import pytest

from repro.cache.cluster import CacheCluster
from repro.cache.entry import CacheEntry, EntryRecord, LookupRequest
from repro.cache.netserver import SocketTransport
from repro.cache.server import SCAN_PAGE_KEYS, CacheServer
from repro.comm import wire
from repro.comm.multicast import InvalidationMessage
from repro.comm.transport import InProcessTransport
from repro.db.invalidation import InvalidationTag
from repro.interval import Interval
from tests.helpers import FAR_FUTURE, NODE_HOSTINGS, live_node, lookup_one

NODE_NAME = "node"
CAPACITY = 1 << 20

ITEM_1 = InvalidationTag.key("items", "id", 1)
ITEM_2 = InvalidationTag.key("items", "id", 2)
USER_9 = InvalidationTag.key("users", "id", 9)

#: Hash-ring arcs: the full circle, two halves, and a wrapping arc.
ARCS = [(0, 0), (0, 1 << 63), (1 << 63, 0), (3 << 62, 1 << 62)]


def prepare(t) -> None:
    """The same store on either side: still-valid, bounded and truncated
    versions, tags, a watermark, and some counted lookups."""
    t.put("a", {"row": 1}, Interval(3), frozenset({ITEM_1}))
    t.put("a", {"row": 0}, Interval(1, 3))
    t.put("b", [1, 2, 3], Interval(2), frozenset({ITEM_2, USER_9}))
    t.put("c", b"raw \x00 bytes", Interval(1, 6))
    t.put("d", ("tuple", None, 1.5), Interval(5), frozenset({USER_9}))
    t.process_invalidations([InvalidationMessage(timestamp=4, tags=(ITEM_2,))])
    lookup_one(t, "a", 3, 9)
    lookup_one(t, "zz", 0, 9)


def ping(t):
    if isinstance(t, SocketTransport):
        return t._call("ping")
    return t.server.name


#: op -> the calls that exercise it.  Each sends that opcode only.
CASES = {
    "multi_lookup": lambda t: t.multi_lookup(
        [
            LookupRequest("a", 3, FAR_FUTURE),
            LookupRequest("a", 0, 9, 4),
            LookupRequest("a", 1, 2),
            LookupRequest("b", 2, 3),
            LookupRequest("b", 5, 9),
            LookupRequest("c", 7, 9),
            LookupRequest("d", 5, 9, 6),
            LookupRequest("zz", 0, 9),
        ]
    ),
    "put": lambda t: [
        t.put("e", {"new": True}, Interval(6), frozenset({ITEM_1, USER_9})),
        t.put("b", [0], Interval(2, 4)),
        # Born before the invalidation at 4 that names its tag: truncated.
        t.put("f", "late", Interval(3), frozenset({ITEM_2})),
        t.put("g", b"x" * (2 * CAPACITY), Interval(6)),  # larger than the cache
    ],
    "probe": lambda t: [t.probe("a", 3, 9), t.probe("b", 5, 9), t.probe("zz", 0, 9)],
    "evict_stale": lambda t: t.evict_stale(5),
    "stats": lambda t: t.stats(),
    "reset_stats": lambda t: t.reset_stats(),
    "extract_entries": lambda t: [t.extract_entries(None, 2), t.extract_entries("b", 64)],
    "install_entries": lambda t: t.install_entries(
        [
            EntryRecord("e", {"x": 1}, Interval(2), frozenset({ITEM_1})),
            EntryRecord("a", {"row": -1}, Interval(0, 1)),
        ]
    ),
    "discard_keys": lambda t: t.discard_keys(["a", "zz", "c"]),
    "watermark": lambda t: t.watermark(),
    "note_timestamp": lambda t: t.note_timestamp(8),
    "ping": ping,
    "key_digest": lambda t: [t.key_digest(ARCS), t.key_digest(ARCS, "b")],
    "keys_in_range": lambda t: [t.keys_in_range([arc], cursor) for arc in ARCS for cursor in (None, "b")],
    "invalidate_tags": lambda t: t.process_invalidations(
        [
            InvalidationMessage(timestamp=6, tags=(ITEM_1,)),
            InvalidationMessage(timestamp=7),
            InvalidationMessage(timestamp=9, tags=(InvalidationTag.wildcard("users"),)),
        ]
    ),
    "versions_of": lambda t: [t.versions_of(key) for key in ("a", "b", "c", "zz")],
}


def plain(value):
    """``value`` with each version's wall-clock access time left out."""
    if isinstance(value, CacheEntry):
        return (value.key, value.value, value.interval, value.tags, value.size)
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


def observe(t) -> dict:
    stats = t.stats()  # before the lookups below count
    keys = t.keys()
    return {
        "stats": stats,
        "keys": keys,
        "versions": {key: plain(t.versions_of(key)) for key in keys},
        "watermark": t.watermark(),
        "lookups": [
            lookup_one(t, key, lo, hi)
            for key in keys + ["zz"]
            for lo, hi in ((0, 2), (3, 9), (9, FAR_FUTURE))
        ],
    }


def test_every_opcode_has_a_case():
    assert set(CASES) == set(wire.OPCODES)


@pytest.mark.parametrize("hosting", NODE_HOSTINGS)
@pytest.mark.parametrize("op", sorted(CASES))
def test_an_op_over_the_wire_answers_and_acts_like_the_server(op, hosting):
    local = InProcessTransport(
        CacheServer(name=NODE_NAME, capacity_bytes=CAPACITY)
    )
    with live_node(hosting, NODE_NAME, CAPACITY) as host:
        remote = SocketTransport(host.address)
        try:
            for t in (local, remote):
                prepare(t)
                t.op_counts.clear()
            expected = CASES[op](local)
            got = CASES[op](remote)
            assert set(remote.op_counts) == {op}
            assert plain(got) == plain(expected)
            assert observe(remote) == observe(local)
        finally:
            remote.close()


@pytest.mark.parametrize("hosting", NODE_HOSTINGS)
def test_keys_walks_the_store_one_page_per_frame(hosting):
    """No frame carries the whole key set: ``keys`` over a socket is the
    full-circle ``keys_in_range`` walk, one bounded page per frame, for the
    transport and for the cluster's ``node_keys`` alike."""
    stored = sorted(f"key-{i:05d}" for i in range(2 * SCAN_PAGE_KEYS + SCAN_PAGE_KEYS // 2))
    pages = -(-len(stored) // SCAN_PAGE_KEYS)
    with live_node(hosting, NODE_NAME, 8 * CAPACITY) as host:
        transport = SocketTransport(host.address)
        cluster = CacheCluster(transport="socket", node_addresses={NODE_NAME: host.address})
        try:
            transport.install_entries([EntryRecord(key, 0, Interval(1)) for key in stored])
            if hosting == "thread":
                assert host.server.keys() == stored
            for reader, keys in (
                (transport, transport.keys),
                (cluster.transports[NODE_NAME], lambda: cluster.node_keys(NODE_NAME)),
            ):
                reader.op_counts.clear()
                assert keys() == stored
                assert reader.op_counts == {"keys_in_range": pages}
        finally:
            cluster.close()
            transport.close()
