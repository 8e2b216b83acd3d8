"""Raw bytes at a live cache node: hostile ones, and a scripted session.

The node's read path cuts frames straight out of whatever ``recv`` returned
and answers them in the same event, so this file drives it below the client
library, with plain sockets, against both hostings of the event-loop node
(a thread of this process, and a child process):

* **Hostile bytes.**  No byte sequence may crash or wedge a node: the
  connection that sent it gets ``OP_ERR`` or is closed, a connection opened
  before the abuse keeps being served, and the node is still alive.
* **A scripted session.**  The same request bytes, however they are cut
  into segments, draw byte-identical replies — identical to what the node
  of the commit before the read path was rewritten sent (recorded below).
"""

from __future__ import annotations

import hashlib
import random
import socket
import struct

import pytest

from repro.cache.entry import LookupRequest, ValueBlob
from repro.cache.netserver import CacheServerProcess, SocketTransport
from repro.cache.procnode import CacheNodeHost
from repro.cache.server import CacheServer
from repro.clock import ManualClock
from repro.comm import wire
from repro.db.invalidation import InvalidationTag
from repro.interval import Interval

OP = wire.OPCODES
NODE_NAME = "node"
TAG = InvalidationTag("items", "id", 7)
REPLY_TIMEOUT = 10.0


@pytest.fixture(params=["thread", "process"])
def node(request):
    """A live event-loop node; yields ``(address, alive)``."""
    if request.param == "thread":
        server = CacheServer(
            name=NODE_NAME, capacity_bytes=8 * 1024 * 1024, clock=ManualClock()
        )
        with CacheServerProcess(server, style="eventloop", wire_codec="binary") as process:
            yield process.address, lambda: process.running and process._engine._thread.is_alive()
    else:
        host = CacheNodeHost(NODE_NAME, capacity_bytes=8 * 1024 * 1024, wire_codec="binary")
        try:
            yield host.address, lambda: host.running
        finally:
            host.shutdown()


def binary_transport(address):
    # Codec pinned, as on the nodes: REPRO_WIRE_CODEC must not move this file.
    return SocketTransport(
        address, pipelined=True, wire_codec="binary", timeout_seconds=REPLY_TIMEOUT
    )


def dial(address, hello=wire.MUX_MAGIC_BINARY):
    sock = socket.create_connection(address, timeout=REPLY_TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    if hello is not None:
        sock.sendall(bytes([hello]))
        if hello == wire.MUX_MAGIC_BINARY:
            assert wire.recv_exactly(sock, 1)[0] == wire.BINARY_ACK
    return sock


def flat(buffers) -> bytes:
    return b"".join(bytes(b) for b in buffers)


def binary_request(request_id, op, args) -> bytes:
    return flat(wire.encode_binary_request_frame(request_id, OP[op], args))


def pickled_request(request_id, op, args=()) -> bytes:
    return flat(wire.encode_mux_frame(request_id, OP[op], args))


def read_reply(sock):
    """One response frame as ``(request_id, opcode byte, raw body)``."""
    request_id, opcode, length = wire.MUX_HEADER.unpack(
        wire.recv_exactly(sock, wire.MUX_HEADER.size)
    )
    return request_id, opcode, wire.recv_exactly(sock, length)


def outcome(sock):
    """What became of a connection after abuse: a reply status, or "closed"."""
    try:
        return read_reply(sock)[1] & wire.OPCODE_MASK
    except (ConnectionError, OSError) as exc:
        assert not isinstance(exc, socket.timeout), "the node neither answered nor hung up"
        return "closed"


# ----------------------------------------------------------------------
# Hostile bytes
# ----------------------------------------------------------------------
PUT = binary_request(1, "put", ("victim", ValueBlob.pack(list(range(50))), Interval(1, None), frozenset({TAG})))
MULTI_LOOKUP = binary_request(2, "multi_lookup", ([LookupRequest("bystander", 1, 5, 1)],))

#: Where the blob's u32 length sits in PUT: right after its tag byte, and
#: the blob is the last thing in the body.
_BLOB = ValueBlob.pack(list(range(50)))
BLOB_LENGTH_AT = len(PUT) - len(_BLOB) - 4
#: Where the request's ``<qqq`` sits in MULTI_LOOKUP: the last 24 bytes.
QQQ_AT = len(MULTI_LOOKUP) - 24


def flip_bit(frame: bytes, first: int, span: int, rng: random.Random) -> bytes:
    at = first + rng.randrange(span)
    return frame[:at] + bytes([frame[at] ^ (1 << rng.randrange(8))]) + frame[at + 1 :]


def test_the_offsets_point_at_what_they_say():
    assert struct.unpack_from("<I", PUT, BLOB_LENGTH_AT)[0] == len(_BLOB)
    assert PUT[BLOB_LENGTH_AT - 1] == wire._T_BLOB
    assert struct.unpack_from("<qqq", MULTI_LOOKUP, QQQ_AT) == (1, 5, 1)


def header(request_id, opcode, length) -> bytes:
    return wire.MUX_HEADER.pack(request_id, opcode, length)


ERR, OK = wire.OP_ERR, wire.OP_OK


def abuses(seed):
    """name -> (hello byte or None, bytes to send, hang up afterwards, outcomes allowed)"""
    rng = random.Random(seed)
    cut = rng.randrange(1, wire.MUX_HEADER.size)
    body_cut = rng.randrange(wire.MUX_HEADER.size, len(PUT) - 1)
    garbage = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
    return {
        # The frame never completes; the sender gives up.  Nothing to answer.
        "truncated-header": (wire.MUX_MAGIC_BINARY, PUT[:cut], True, {"closed"}),
        "truncated-frame": (wire.MUX_MAGIC_BINARY, PUT[:body_cut], True, {"closed"}),
        # A whole frame whose body stops short of what it describes.
        "truncated-body": (
            wire.MUX_MAGIC_BINARY,
            header(3, OP["put"] | wire.FLAG_BIN, body_cut - wire.MUX_HEADER.size)
            + PUT[wire.MUX_HEADER.size : body_cut],
            False,
            {ERR},
        ),
        "oversized-length": (
            wire.MUX_MAGIC_BINARY,
            header(4, OP["put"] | wire.FLAG_BIN, wire.MAX_FRAME_BYTES + 1 + rng.randrange(1 << 20)),
            False,
            {"closed"},
        ),
        "unknown-opcode": (
            wire.MUX_MAGIC_BINARY,
            header(5, rng.choice([0, 15, 23, 31]) | wire.FLAG_BIN, 0),
            False,
            {ERR},
        ),
        "blob-length-flip": (
            wire.MUX_MAGIC_BINARY, flip_bit(PUT, BLOB_LENGTH_AT, 4, rng), False, {ERR},
        ),
        # Any three integers are a well-formed request, so a flipped bound
        # may just as well be answered; it must be answered, though.
        "qqq-flip": (
            wire.MUX_MAGIC_BINARY, flip_bit(MULTI_LOOKUP, QQQ_AT, 24, rng), False, {ERR, OK},
        ),
        "frame-flip-anywhere": (
            wire.MUX_MAGIC_BINARY,
            flip_bit(PUT, wire.MUX_HEADER.size, len(PUT) - wire.MUX_HEADER.size, rng),
            False,
            {ERR, OK},
        ),
        # No magic byte: the garbage reads as a legacy length header, which
        # is either absurd (hang up) or never satisfied (we hang up).
        "garbage-before-magic": (
            None, garbage + bytes([wire.MUX_MAGIC_BINARY]) + PUT, True, {"closed", "legacy"},
        ),
    }


@pytest.mark.parametrize("seed", range(6))
def test_hostile_bytes_cost_only_the_connection_that_sent_them(node, seed):
    address, alive = node
    bystander = binary_transport(address)
    try:
        bystander.put("bystander", {"n": 1}, Interval(1, None), frozenset({TAG}))
        for name, (hello, payload, hang_up, allowed) in abuses(seed).items():
            victim = dial(address, hello)
            try:
                victim.sendall(payload)
                if hang_up:
                    victim.shutdown(socket.SHUT_WR)
                if hello is None:
                    # Legacy framing has no reply header to parse: any
                    # bytes back are an error frame, none is a hang-up.
                    try:
                        got = "legacy" if victim.recv(4096) else "closed"
                    except ConnectionError:
                        got = "closed"
                else:
                    got = outcome(victim)
                assert got in allowed, f"{name} (seed {seed}): {got!r}"
            finally:
                victim.close()
            assert alive(), f"node died of {name} (seed {seed})"
            assert bystander._call("ping") == NODE_NAME
            (result,) = bystander.multi_lookup([LookupRequest("bystander", 1, 5, 1)])
            assert result.hit and result.value == {"n": 1}, name
    finally:
        bystander.close()


# ----------------------------------------------------------------------
# A scripted session, cut every which way
# ----------------------------------------------------------------------
BIG = ValueBlob(bytes(range(256)) * 1200)  # 300 KB, served by the worker pool

#: (request bytes, replies to wait for before sending more).  Requests in one
#: step are all inline-class, so their replies come back in order.
SESSION = [
    (
        binary_request(1, "put", ("k", ValueBlob.pack(("row", 7)), Interval(1, None), frozenset({TAG})))
        + binary_request(2, "multi_lookup", ([LookupRequest("k", 1, 5, 1)],))
        + binary_request(3, "multi_lookup", ([LookupRequest("absent", 1, 5, 1), LookupRequest("k", 2, 3)],))
        + binary_request(4, "invalidate_tags", ([(7, (TAG,)), (9, (InvalidationTag("items", "id", 8),))],))
        + binary_request(5, "multi_lookup", ([LookupRequest("k", 1, 20, 1)],))
        + pickled_request(6, "ping")
        + header(7, 15 | wire.FLAG_BIN, 0),
        7,
    ),
    (pickled_request(8, "keys"), 1),
    (binary_request(9, "put", ("big", BIG, Interval(3, None), frozenset())), 1),
    (binary_request(10, "multi_lookup", ([LookupRequest("big", 3, 5)],)), 1),
    (pickled_request(11, "was_ever_stored", ("k",)), 1),
]

#: What the node of the parent commit (7e0093f) answered, per reply:
#: (request_id, opcode byte, body length, first 16 hex digits of its SHA-256).
RECORDED = [
    (1, 0x60, 1, "4bf5122f344554c5"),
    (2, 0x60, 72, "583997e82da5b462"),
    (3, 0x60, 19, "cf82613ffebaedba"),
    (4, 0x60, 2, "75046585de3d1d05"),
    (5, 0x60, 66, "4c09061aa1a157da"),
    (6, 0x40, 19, "51287f946185fc91"),
    (7, 0x61, 47, "75d9cbdecd853595"),
    (8, 0x40, 19, "e40ca76d662b9829"),
    (9, 0x60, 1, "4bf5122f344554c5"),
    (10, 0x60, 307238, "a97560e9ecc8a9e5"),
    (11, 0x40, 4, "5280fce43ea9afbd"),
]


def run_session(address, chunk):
    """Send SESSION in ``chunk``-byte writes; return a digest of each reply."""
    sock = dial(address)
    replies = []
    try:
        for payload, expected in SESSION:
            step = chunk or len(payload)
            if step == 1 and len(payload) > 4096:
                step = 613  # a syscall per byte of 300 KB proves nothing more
            for start in range(0, len(payload), step):
                sock.sendall(payload[start : start + step])
            for _ in range(expected):
                request_id, opcode, body = read_reply(sock)
                replies.append(
                    (request_id, opcode, len(body), hashlib.sha256(body).hexdigest()[:16])
                )
    finally:
        sock.close()
    return replies


@pytest.mark.parametrize("chunk", [0, 1, 7, 4096], ids=["whole", "bytewise", "by-7", "by-4096"])
def test_scripted_session_replies_are_byte_identical_to_the_recorded_ones(node, chunk):
    address, _alive = node
    assert run_session(address, chunk) == RECORDED


# ----------------------------------------------------------------------
# A reader that stalls: the overflow route
# ----------------------------------------------------------------------
@pytest.mark.parametrize("write_coalescing", [True, False])
def test_a_client_that_stops_reading_gets_every_reply_once_it_reads(write_coalescing):
    """Forty pipelined lookups of a 300 KB value are 12 MB of replies to a
    client that is not reading: the socket fills, partial writes park in
    the connection's queue, the backpressure bound stops the node reading,
    and every reply still arrives whole, exactly once, when the client
    drains it.  (With coalescing off the parent commit wrote one reply
    twice here: its flush re-entered itself through the completion hook.)"""
    requests, bound = 40, 8
    server = CacheServer(name=NODE_NAME, capacity_bytes=8 * 1024 * 1024, clock=ManualClock())
    server.put("big", BIG, Interval(3, None), frozenset())
    with CacheServerProcess(
        server, style="eventloop", wire_codec="binary",
        write_coalescing=write_coalescing, max_queued_per_connection=bound,
    ) as process:
        bystander = binary_transport(process.address)
        sock = dial(process.address)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
            sock.sendall(
                b"".join(
                    binary_request(i, "multi_lookup", ([LookupRequest("big", 3, 5)],))
                    for i in range(requests)
                )
            )
            # While that connection is wedged, others are served.
            for _ in range(50):
                assert bystander._call("ping") == NODE_NAME
            assert process.backpressure_pauses >= 1
            answered = []
            for _ in range(requests):
                request_id, opcode, body = read_reply(sock)
                assert opcode & wire.OPCODE_MASK == OK
                (result,) = wire.decode_binary_body(body)
                assert result.hit and result.value == BIG
                answered.append(request_id)
            assert sorted(answered) == list(range(requests))
            assert process.max_in_flight_per_connection <= bound
        finally:
            sock.close()
            bystander.close()
