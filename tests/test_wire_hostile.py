"""Raw bytes at a live cache node: hostile ones, and a scripted session.

The node's read path cuts frames straight out of whatever ``recv`` returned
and answers them in the same event, so this file drives it below the client
library, with plain sockets, against both hostings of the event-loop node
(a thread of this process, and a child process) and, for the first two
below, on every route a reply can take out of it (``ROUTES``):

* **Hostile bytes.**  No byte sequence may crash or wedge a node: the
  connection that sent it gets ``OP_ERR`` or is closed, a connection opened
  before the abuse keeps being served, and the node is still alive.  A
  connection that does not open with the version byte — a retired
  protocol's first bytes, or noise — is closed at once.
* **Well-formed pickles.**  A pickled object whose unpickling would create
  a file, sent as a maintenance body or behind the retired pickle tag
  inside a ``put``, is refused like any other unknown bytes: the file never
  appears.  An AST check keeps ``pickle`` out of every module that decodes
  peer bytes.
* **Walks of the store, and oversized batches.**  A frame asking for the
  whole store in one reply gets one page of it, a limit below one is
  refused, and so is a batch of more items than one frame may carry.
* **A scripted session.**  The same request bytes, however they are cut
  into segments, draw byte-identical replies — identical to what the node
  of the commit before the read path was rewritten sent (recorded below).
"""

from __future__ import annotations

import ast
import hashlib
import pickle
import random
import socket
import struct
import time
from pathlib import Path

import pytest

import repro
from repro.cache.entry import EntryRecord, LookupRequest, ValueBlob
from repro.cache.netserver import CacheServerProcess, SocketTransport
from repro.cache.server import SCAN_PAGE_KEYS, CacheServer
from repro.clock import ManualClock
from repro.comm import wire
from repro.db.invalidation import InvalidationTag
from repro.interval import Interval
from tests.helpers import NODE_HOSTINGS, live_node

OP = wire.OPCODES
NODE_NAME = "node"
TAG = InvalidationTag("items", "id", 7)
REPLY_TIMEOUT = 10.0


#: Node settings that change the route a request takes through the event
#: loop: answered in the event that read it (replies gathered into one
#: write), answered one write per reply at a backpressure bound of one, held
#: on the timer heap for a modelled round trip, or both of the last two —
#: each reply held, so the frames behind it are parked and the connection
#: is not read until the timer has written it.
ROUTES = {
    "": {},
    "-bound-1": {"max_queued_per_connection": 1},
    "-latency": {"simulated_latency_seconds": 0.002},
    "-parked": {"max_queued_per_connection": 1, "simulated_latency_seconds": 0.002},
}


def serve(hosting, **options):
    """A live event-loop node; yields ``(address, alive)``."""
    with live_node(hosting, NODE_NAME, 8 * 1024 * 1024, **options) as host:
        if hosting == "thread":
            yield host.address, lambda: host.running and host._thread.is_alive()
        else:
            yield host.address, lambda: host.running


@pytest.fixture(params=NODE_HOSTINGS)
def node(request):
    yield from serve(request.param)


@pytest.fixture(
    params=[(hosting, route) for hosting in NODE_HOSTINGS for route in ROUTES],
    ids=lambda param: param[0] + param[1],
)
def routed_node(request):
    hosting, route = request.param
    yield from serve(hosting, **ROUTES[route])


def binary_transport(address):
    return SocketTransport(address, timeout_seconds=REPLY_TIMEOUT)


def dial(address, hello=wire.WIRE_VERSION):
    sock = socket.create_connection(address, timeout=REPLY_TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    if hello is not None:
        sock.sendall(bytes([hello]))
    return sock


def flat(buffers) -> bytes:
    return b"".join(bytes(b) for b in buffers)


def binary_request(request_id, op, args) -> bytes:
    return flat(wire.encode_binary_request_frame(request_id, OP[op], args))


def read_reply(sock):
    """One response frame as ``(request_id, opcode byte, raw body)``."""
    request_id, opcode, length = wire.MUX_HEADER.unpack(
        wire.recv_exactly(sock, wire.MUX_HEADER.size)
    )
    return request_id, opcode, wire.recv_exactly(sock, length)


def outcome(sock):
    """What became of a connection after abuse: a reply status, or "closed"."""
    try:
        return read_reply(sock)[1]
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
    garbage = bytes(
        [rng.choice([b for b in range(256) if b != wire.WIRE_VERSION])]
        + [rng.randrange(256) for _ in range(rng.randrange(40))]
    )
    return {
        # The frame never completes; the sender gives up.  Nothing to answer.
        "truncated-header": (wire.WIRE_VERSION, PUT[:cut], True, {"closed"}),
        "truncated-frame": (wire.WIRE_VERSION, PUT[:body_cut], True, {"closed"}),
        # A whole frame whose body stops short of what it describes.
        "truncated-body": (
            wire.WIRE_VERSION,
            header(3, OP["put"], body_cut - wire.MUX_HEADER.size)
            + PUT[wire.MUX_HEADER.size : body_cut],
            False,
            {ERR},
        ),
        "oversized-length": (
            wire.WIRE_VERSION,
            header(4, OP["put"], wire.MAX_FRAME_BYTES + 1 + rng.randrange(1 << 20)),
            False,
            {"closed"},
        ),
        "unknown-opcode": (
            wire.WIRE_VERSION,
            header(5, rng.choice([0, 15, 23, 31]), 0),
            False,
            {ERR},
        ),
        "blob-length-flip": (
            wire.WIRE_VERSION, flip_bit(PUT, BLOB_LENGTH_AT, 4, rng), False, {ERR},
        ),
        # Any three integers are a well-formed request, so a flipped bound
        # may just as well be answered; it must be answered, though.
        "qqq-flip": (
            wire.WIRE_VERSION, flip_bit(MULTI_LOOKUP, QQQ_AT, 24, rng), False, {ERR, OK},
        ),
        "frame-flip-anywhere": (
            wire.WIRE_VERSION,
            flip_bit(PUT, wire.MUX_HEADER.size, len(PUT) - wire.MUX_HEADER.size, rng),
            False,
            {ERR, OK},
        ),
        # Noise where the version byte belongs: the node hangs up.
        "garbage-before-version": (
            None, garbage + bytes([wire.WIRE_VERSION]) + PUT, True, {"closed"},
        ),
    }


@pytest.mark.parametrize("seed", range(6))
def test_hostile_bytes_cost_only_the_connection_that_sent_them(routed_node, seed):
    address, alive = routed_node
    bystander = binary_transport(address)
    try:
        bystander.put("bystander", {"n": 1}, Interval(1, None), frozenset({TAG}))
        for name, (hello, payload, hang_up, allowed) in abuses(seed).items():
            victim = dial(address, hello)
            try:
                victim.sendall(payload)
                if hang_up:
                    victim.shutdown(socket.SHUT_WR)
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


#: First bytes of connections that do not speak this protocol: a request of
#: the retired 4-byte-length + pickle framing, the retired 0xA7 hello and
#: the previous wire version (whose maintenance ops carried pickle bodies)
#: before a well-formed frame, and a lone zero byte.
FOREIGN_OPENINGS = {
    "length-prefixed-pickle": (
        struct.pack("!I", len(pickle.dumps(("ping", ())))) + pickle.dumps(("ping", ()))
    ),
    "retired-hello": bytes([0xA7]) + binary_request(1, "ping", ()),
    "previous-version": bytes([0xA8]) + binary_request(1, "ping", ()),
    "zero-byte": b"\x00",
}


@pytest.mark.parametrize("name", sorted(FOREIGN_OPENINGS))
def test_a_connection_without_the_version_byte_is_closed(node, name):
    """It costs only its own connection: a client connected before it, and
    one connecting after it, keep being served."""
    address, alive = node
    bystander = binary_transport(address)
    try:
        bystander.put("bystander", {"n": 1}, Interval(1, None), frozenset({TAG}))
        victim = dial(address, hello=None)
        try:
            victim.sendall(FOREIGN_OPENINGS[name])
            (result,) = bystander.multi_lookup([LookupRequest("bystander", 1, 5, 1)])
            assert result.hit and result.value == {"n": 1}
            assert outcome(victim) == "closed"
        finally:
            victim.close()
        assert alive()
        assert bystander._call("ping") == NODE_NAME
        late = binary_transport(address)
        try:
            assert late.lookup("bystander", 1, 5).value == {"n": 1}
        finally:
            late.close()
    finally:
        bystander.close()


# ----------------------------------------------------------------------
# Well-formed pickles: nothing a peer sends is ever unpickled
# ----------------------------------------------------------------------
class Probe:
    """Unpickling this opens ``path`` for writing, which creates the file."""

    def __init__(self, path) -> None:
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


def probe_frames(path):
    """name -> one whole frame that carries a pickled :class:`Probe`."""
    pickled = pickle.dumps(Probe(path))
    # A put body behind the tagged-args marker: tag 11 (the retired pickle
    # fallback), a u32 length, the pickle.
    tag_11 = bytes([0, 11]) + struct.pack("<I", len(pickled)) + pickled
    return {
        "keys-body": header(1, OP["keys"], len(pickled)) + pickled,
        "put-tag-11": header(2, OP["put"], len(tag_11)) + tag_11,
        # The same put as the previous wire version framed it, with the
        # binary-body bit 0x20 set on the opcode.
        "put-tag-11-flagged": header(3, OP["put"] | 0x20, len(tag_11)) + tag_11,
    }


def test_a_pickled_object_is_never_unpickled(routed_node, tmp_path):
    """Each frame costs only an ``OP_ERR`` or its own connection, the file
    its unpickling would create never appears, and a connection opened
    before keeps being served."""
    address, alive = routed_node
    marker = tmp_path / "unpickled"
    bystander = binary_transport(address)
    try:
        bystander.put("bystander", {"n": 1}, Interval(1, None), frozenset({TAG}))
        for name, frame in probe_frames(marker).items():
            victim = dial(address)
            try:
                victim.sendall(frame)
                assert outcome(victim) in {ERR, "closed"}, name
            finally:
                victim.close()
            assert not marker.exists(), f"{name}: the node ran the pickled callable"
            assert alive(), f"node died of {name}"
            assert bystander._call("ping") == NODE_NAME
            (result,) = bystander.multi_lookup([LookupRequest("bystander", 1, 5, 1)])
            assert result.hit and result.value == {"n": 1}, name
    finally:
        bystander.close()


#: Names that reach the unpickler: the modules, and what they export.
_PICKLE_MODULES = {"pickle", "_pickle", "cPickle"}
_PICKLE_NAMES = {"loads", "load", "dumps", "dump", "Unpickler", "PickleBuffer"}


def unpickling_references(source: str) -> list:
    """Every import of a pickle module, and every use of one or of the
    names that load and dump, in ``source``, as ``(line, name)``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name in _PICKLE_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.module in _PICKLE_MODULES:
            found.append((node.lineno, node.module))
        elif isinstance(node, ast.Name) and node.id in _PICKLE_MODULES | _PICKLE_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in _PICKLE_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Constant) and node.value in _PICKLE_MODULES:
            found.append((node.lineno, node.value))  # __import__("pickle")
    return found


def test_no_module_that_decodes_peer_bytes_can_unpickle():
    root = Path(repro.__file__).parent
    modules = sorted((root / "comm").glob("*.py")) + [root / "cache" / "netserver.py"]
    assert root / "comm" / "wire.py" in modules
    for path in modules:
        assert unpickling_references(path.read_text()) == [], path
    # The check sees what it is for.
    assert unpickling_references("import pickle") == [(1, "pickle")]
    assert unpickling_references("from pickle import loads") == [(1, "pickle")]
    assert unpickling_references("x = codec.loads(b)") == [(1, "loads")]
    assert unpickling_references("m = __import__('pickle')") == [(1, "pickle")]


# ----------------------------------------------------------------------
# A walk of the store: one page, whatever limit the peer asks for; a batch
# past the bound: refused
# ----------------------------------------------------------------------
STORE_KEYS = 5000
EVERY_ARC = [(0, 0)]

#: op -> (its arguments, from the start of the store, the keys a reply covers).
WALKS = {
    "extract_entries": ((None, 10**9), lambda page: len({r.key for r in page})),
    "key_digest": ((EVERY_ARC, None), lambda page: page[0][0]),
    "keys_in_range": ((EVERY_ARC, None), len),
}

#: 200 000 disjoint arcs covering the ring.
_ARC = (1 << 64) // 200_000
HOSTILE_ARCS = [(i * _ARC, (i + 1) * _ARC) for i in range(200_000)]

#: A batch far past what one frame may carry, each key of it stored, and a
#: store walk over far more arcs than one walk may name.
OVERSIZED = {
    "discard_keys": ([f"k{i:05d}" for i in range(STORE_KEYS)] * 40,),
    "multi_lookup": ([LookupRequest(f"k{i:05d}", 1, 5) for i in range(STORE_KEYS)] * 40,),
    "key_digest": (HOSTILE_ARCS, None),
    "keys_in_range": (HOSTILE_ARCS, None),
}


def test_a_peer_asking_for_the_whole_store_gets_one_page(node):
    """A frame asking to walk a 5 000-key store in one reply gets one page
    and a cursor, and an ``extract_entries`` limit below one is refused.  A
    batch of 200 000 items, or a walk over 200 000 arcs, is refused before
    it is decoded, and nothing of it is served.  A bystander's ping sent
    behind any of them is answered."""
    address, alive = node
    filler = binary_transport(address)
    try:
        for start in range(0, STORE_KEYS, 1000):
            filler.install_entries(
                [EntryRecord(f"k{i:05d}", i, Interval(1, None)) for i in range(start, start + 1000)]
            )
    finally:
        filler.close()
    walker, bystander = dial(address), dial(address)
    try:
        for op, (arguments, keys_covered) in WALKS.items():
            walker.sendall(binary_request(1, op, arguments))
            bystander.sendall(binary_request(2, "ping", ()))
            request_id, opcode, body = read_reply(bystander)
            assert (request_id, opcode, wire.decode_binary_body(body)) == (2, OK, NODE_NAME)
            request_id, opcode, body = read_reply(walker)
            assert (request_id, opcode) == (1, OK), op
            page, cursor = wire.decode_binary_body(body)
            assert keys_covered(page) == SCAN_PAGE_KEYS, op
            assert cursor == f"k{SCAN_PAGE_KEYS - 1:05d}", op
        for limit in (0, -1):
            walker.sendall(binary_request(3, "extract_entries", (None, limit)))
            assert read_reply(walker)[:2] == (3, ERR), limit
        for op, arguments in OVERSIZED.items():
            walker.sendall(binary_request(4, op, arguments))
            bystander.sendall(binary_request(5, "ping", ()))
            request_id, opcode, body = read_reply(bystander)
            assert (request_id, opcode, wire.decode_binary_body(body)) == (5, OK, NODE_NAME)
            request_id, opcode, body = read_reply(walker)
            assert (request_id, opcode) == (4, ERR), op
            assert "at most" in wire.decode_binary_body(body), op
        walker.sendall(binary_request(6, "keys", ()))
        request_id, opcode, body = read_reply(walker)
        assert (request_id, opcode, len(wire.decode_binary_body(body))) == (6, OK, STORE_KEYS)
        assert alive()
    finally:
        walker.close()
        bystander.close()


# ----------------------------------------------------------------------
# A scripted session, cut every which way
# ----------------------------------------------------------------------
BIG = ValueBlob(bytes(range(256)) * 1200)  # 300 KB: a frame many reads long

#: (request bytes, replies to wait for before sending more).  The node serves
#: frames in arrival order, so a step's replies come back in request order.
SESSION = [
    (
        binary_request(1, "put", ("k", ValueBlob.pack(("row", 7)), Interval(1, None), frozenset({TAG})))
        + binary_request(2, "multi_lookup", ([LookupRequest("k", 1, 5, 1)],))
        + binary_request(3, "multi_lookup", ([LookupRequest("absent", 1, 5, 1), LookupRequest("k", 2, 3)],))
        + binary_request(4, "invalidate_tags", ([(7, (TAG,)), (9, (InvalidationTag("items", "id", 8),))],))
        + binary_request(5, "multi_lookup", ([LookupRequest("k", 1, 20, 1)],))
        + binary_request(6, "ping", ())
        + header(7, 15, 0),
        7,
    ),
    (binary_request(8, "keys", ()), 1),
    (binary_request(9, "put", ("big", BIG, Interval(3, None), frozenset())), 1),
    (binary_request(10, "multi_lookup", ([LookupRequest("big", 3, 5)],)), 1),
    (binary_request(11, "was_ever_stored", ("k",)), 1),
]

#: What the node answers, per reply: (request_id, opcode byte, body length,
#: first 16 hex digits of its SHA-256).  The hot-op replies (all but 6, 8
#: and 11) carry the bodies the node of commit 7e0093f sent; only their
#: opcode byte lost the binary-body bit (0x60/0x61 became 0x40/0x41) when
#: every body became binary.  Replies 6, 8 and 11 were pickle bodies then
#: and are re-recorded as the binary bodies that replaced them.
RECORDED = [
    (1, 0x40, 1, "4bf5122f344554c5"),
    (2, 0x40, 72, "583997e82da5b462"),
    (3, 0x40, 19, "cf82613ffebaedba"),
    (4, 0x40, 2, "75046585de3d1d05"),
    (5, 0x40, 66, "4c09061aa1a157da"),
    (6, 0x40, 6, "82465ecde8cc40b5"),
    (7, 0x41, 47, "75d9cbdecd853595"),
    (8, 0x40, 5, "713b394814315d86"),
    (9, 0x40, 1, "4bf5122f344554c5"),
    (10, 0x40, 307238, "a97560e9ecc8a9e5"),
    (11, 0x40, 1, "4bf5122f344554c5"),
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
def test_scripted_session_replies_are_byte_identical_to_the_recorded_ones(routed_node, chunk):
    address, _alive = routed_node
    assert run_session(address, chunk) == RECORDED


@pytest.mark.parametrize("route", sorted(ROUTES), ids=lambda route: route[1:] or "inline")
def test_each_route_takes_the_path_it_names(route):
    """The session's first step is seven frames in one segment.  Unbounded,
    several are in flight at once, their replies share writes and no read
    is paused; at a bound of one, never more than one is, every reply is a
    write of its own, and a reply held for its modelled round trip pauses
    the connection's reads (so may one the socket would not take whole).  A
    modelled round trip holds every step's replies for at least that
    long."""
    options = ROUTES[route]
    with live_node("thread", NODE_NAME, 8 * 1024 * 1024, **options) as host:
        started = time.monotonic()
        assert run_session(host.address, 0) == RECORDED
        elapsed = time.monotonic() - started
    bounded = "max_queued_per_connection" in options
    assert (host.max_in_flight_per_connection == 1) == bounded
    assert (host.sendmsg_calls >= len(RECORDED)) == bounded
    if not bounded:
        assert host.backpressure_pauses == 0
    if route == "-parked":
        assert host.backpressure_pauses > 0
    assert elapsed >= len(SESSION) * options.get("simulated_latency_seconds", 0.0)


# ----------------------------------------------------------------------
# A reader that stalls: the overflow route
# ----------------------------------------------------------------------
def test_a_client_that_stops_reading_gets_every_reply_once_it_reads():
    """Forty pipelined lookups of a 300 KB value are 12 MB of replies to a
    client that is not reading: the socket fills, partial writes park in
    the connection's queue, the backpressure bound stops the node reading,
    and every reply still arrives whole, exactly once, when the client
    drains it.  (A flush that re-entered itself through the completion
    hook once wrote one reply twice here.)"""
    requests, bound = 40, 8
    server = CacheServer(name=NODE_NAME, capacity_bytes=8 * 1024 * 1024, clock=ManualClock())
    server.put("big", BIG, Interval(3, None), frozenset())
    with CacheServerProcess(server, max_queued_per_connection=bound) as process:
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
                assert opcode == OK
                (result,) = wire.decode_binary_body(body)
                assert result.hit and result.value == BIG
                answered.append(request_id)
            assert sorted(answered) == list(range(requests))
            assert process.max_in_flight_per_connection <= bound
        finally:
            sock.close()
            bystander.close()
