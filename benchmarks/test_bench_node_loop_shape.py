"""A node is one thread, and no frame it serves walks more than a page.

A cache node serves every frame on its one loop thread, in arrival order,
and the operations that walk the store serve one bounded page per frame
(:data:`repro.cache.server.SCAN_PAGE_KEYS` keys at most).  Asserted as *shape*, by counting — threads, hashed keys,
keys per page, reply order — never by a clock:

* **one thread**: after every opcode, a put body far past one ``recv``
  among them, a thread-hosted node has started no thread but its loop, and
  a process-hosted one runs exactly two (the main thread parked on the
  control pipe, and the loop);
* **bounded pages**: on a 5 000-key store no ``key_digest`` or
  ``keys_in_range`` page hashes more keys than the page constant, no
  ``extract_entries`` page carries more keys than its limit or the
  constant, and the pages of a walk fold back into exactly the whole store;
* **arrival order**: a ``lookup`` pipelined behind an ``extract_entries``
  page on one connection is answered after it.
"""

from __future__ import annotations

import os
import socket
import threading

import pytest

from repro.cache import server as server_module
from repro.cache.entry import EntryRecord, LookupRequest
from repro.cache.hashring import HASH_SPACE
from repro.cache.netserver import SocketTransport
from repro.cache.server import SCAN_PAGE_KEYS, CacheServer
from repro.comm import wire
from repro.interval import Interval
from tests.helpers import NODE_HOSTINGS, live_node, recv_exactly
from tests.test_wire_ops import CAPACITY, CASES, prepare

STORE_KEYS = 5000
NODE = "shape-node"


def _keys(count):
    return [f"k{i:05d}" for i in range(count)]


@pytest.mark.parametrize("hosting", NODE_HOSTINGS)
def test_a_node_serves_every_opcode_on_its_one_loop_thread(hosting):
    with live_node(hosting, NODE, CAPACITY) as host:
        transport = SocketTransport(host.address)
        try:
            prepare(transport)
            for op in sorted(CASES):  # the put case carries a 2 MiB body
                CASES[op](transport)
            assert set(transport.op_counts) == set(wire.OPCODES)
        finally:
            transport.close()
        if hosting == "thread":
            named = sorted(t.name for t in threading.enumerate() if NODE in t.name)
            assert named == [f"cache-loop-{NODE}"]
        else:
            tasks = f"/proc/{host.pid}/task"
            if not os.path.isdir(tasks):
                pytest.skip("threads of another process are counted through /proc")
            assert len(os.listdir(tasks)) == 2


#: Two arcs that cover the circle: the lower half, and the upper half
#: written as an arc that wraps to 0.
HALVES = [(0, HASH_SPACE // 2), (HASH_SPACE // 2, 0)]


def _store():
    server = CacheServer(name=NODE, capacity_bytes=1 << 30)
    for key in _keys(STORE_KEYS):
        server.put(key, 0, Interval(1, None))
    return server


def _walk(method, *args, **limit):
    """Every page of a walk, in order; the cursor goes back in as given."""
    pages, cursor = [], None
    while True:
        page, cursor = method(*args, cursor, **limit)
        pages.append(page)
        if cursor is None:
            return pages


@pytest.mark.parametrize("page", [100, SCAN_PAGE_KEYS])
def test_every_page_of_a_store_walk_stays_within_its_limit(monkeypatch, page):
    monkeypatch.setattr(server_module, "SCAN_PAGE_KEYS", page)
    server = _store()
    ring_hash = server_module._ring_hash
    points = {key: ring_hash(key) for key in _keys(STORE_KEYS)}
    in_lower_half = sorted(key for key, point in points.items() if point < HASH_SPACE // 2)
    whole = [[0, 0, 0], [0, 0, 0]]
    for point in points.values():
        bucket = whole[point >= HASH_SPACE // 2]
        bucket[0] += 1
        bucket[1] ^= point
        bucket[2] = (bucket[2] + point) % HASH_SPACE
    hashed_per_call = []

    def counted_hash(key):
        hashed_per_call[-1] += 1
        return ring_hash(key)

    monkeypatch.setattr(server_module, "_ring_hash", counted_hash)
    full_pages = -(-STORE_KEYS // page)

    def hashing(method):
        def call(*args):
            hashed_per_call.append(0)
            return method(*args)

        return call

    digests = _walk(hashing(server.key_digest), HALVES)
    assert len(digests) == full_pages and max(hashed_per_call) <= page
    folded = [[0, 0, 0], [0, 0, 0]]
    for triples in digests:
        for bucket, (count, xor, total) in zip(folded, triples):
            bucket[0] += count
            bucket[1] ^= xor
            bucket[2] = (bucket[2] + total) % HASH_SPACE
    assert folded == whole

    hashed_per_call.clear()
    key_pages = _walk(hashing(server.keys_in_range), HALVES[:1])
    assert len(key_pages) == full_pages and max(hashed_per_call) <= page
    assert [key for keys in key_pages for key in keys] == in_lower_half

    # A peer's limit past the page is clamped to it; one below it holds.
    for limit in (10**9, page // 2):
        entry_pages = _walk(server.extract_entries, limit=limit)
        assert len(entry_pages) == -(-STORE_KEYS // min(limit, page))
        assert max(len({record.key for record in records}) for records in entry_pages) <= limit
        assert [record.key for records in entry_pages for record in records] == _keys(STORE_KEYS)


@pytest.mark.parametrize("hosting", NODE_HOSTINGS)
def test_a_lookup_pipelined_behind_a_page_is_answered_after_it(hosting):
    with live_node(hosting, NODE, 64 * 1024 * 1024) as host:
        filler = SocketTransport(host.address)
        try:
            keys = _keys(STORE_KEYS)
            for start in range(0, STORE_KEYS, 1000):
                filler.install_entries(
                    [EntryRecord(key, 0, Interval(1, None)) for key in keys[start : start + 1000]]
                )
        finally:
            filler.close()
        requests = [
            (1, "extract_entries", (None, 10**9)),
            (2, "probe", ("k00000", 1, 5)),
            (3, "multi_lookup", ([LookupRequest("k00001", 1, 5)],)),
        ]
        with socket.create_connection(host.address, timeout=10.0) as sock:
            sock.sendall(bytes([wire.WIRE_VERSION]))
            wire.send_buffers(
                sock,
                [
                    buffer
                    for request_id, op, args in requests
                    for buffer in wire.encode_binary_mux_frame(request_id, wire.OPCODES[op], args)
                ],
            )
            answered = []
            for _ in requests:
                request_id, opcode, length = wire.MUX_HEADER.unpack(
                    recv_exactly(sock, wire.MUX_HEADER.size)
                )
                recv_exactly(sock, length)
                answered.append((request_id, opcode))
        assert answered == [(request_id, wire.OP_OK) for request_id, _op, _args in requests]
