"""Unit tests for the wire codec: framing, opcodes, reassembly, copies."""

from __future__ import annotations

import random
import socket

import pytest

from repro.cache.entry import LookupRequest, LookupResult, ValueBlob
from repro.comm import wire
from repro.db.invalidation import InvalidationTag
from repro.interval import Interval


# ----------------------------------------------------------------------
# Body codec
# ----------------------------------------------------------------------
def test_plain_body_round_trips():
    payload = ("multi_lookup", ([LookupRequest("k", 0, 5)],))
    body = wire.encode_binary_body(payload)
    assert wire.decode_binary_body(bytes(body)) == payload


def test_mux_frame_header_layout():
    buffers = wire.encode_binary_mux_frame(42, wire.OPCODES["watermark"], ())
    header = bytes(buffers[0])
    request_id, opcode, length = wire.MUX_HEADER.unpack(header)
    assert request_id == 42
    assert opcode == wire.OPCODES["watermark"]  # the opcode byte is the opcode
    assert length == sum(len(b) for b in buffers[1:])


def test_opcode_table_is_bijective_and_reserves_zero():
    codes = list(wire.OPCODES.values())
    assert 0 not in codes
    assert len(set(codes)) == len(codes)
    for code in codes:
        assert code < wire.OP_OK  # requests and responses never collide


# ----------------------------------------------------------------------
# Frame reassembly
# ----------------------------------------------------------------------
def _flatten(buffers):
    return b"".join(bytes(b) for b in buffers)


def _request(request_id, op, args=()):
    return wire.encode_binary_mux_frame(request_id, wire.OPCODES[op], args)


def test_assembler_checks_the_version_byte_and_reassembles_partials():
    assembler = wire.FrameAssembler(hello=wire.WIRE_VERSION)
    stream = bytes([wire.WIRE_VERSION])
    stream += _flatten(_request(1, "ping"))
    stream += _flatten(_request(2, "probe", ("k", 0, 5)))
    frames = []
    for i in range(0, len(stream), 3):  # drip-feed in 3-byte chunks
        frames.extend(assembler.feed(stream[i : i + 3]))
    assert [(f[0], f[1]) for f in frames] == [
        (1, wire.OPCODES["ping"]),
        (2, wire.OPCODES["probe"]),
    ]
    assert wire.decode_binary_args(wire.OPCODES["probe"], frames[1][2]) == ("k", 0, 5)


@pytest.mark.parametrize(
    "first",
    [0xAA, 0xA9, 0xA8, 0xA7, 0x00],
    ids=["previous-version", "version-0xa9", "version-0xa8", "retired-hello", "length-prefix"],
)
def test_assembler_refuses_a_stream_that_does_not_open_with_the_version_byte(first):
    assembler = wire.FrameAssembler(hello=wire.WIRE_VERSION)
    with pytest.raises(ValueError, match="not a cache wire connection"):
        assembler.feed(bytes([first]) + _flatten(_request(1, "ping")))


def test_assembler_rejects_oversized_frames():
    assembler = wire.FrameAssembler()
    bogus = wire.MUX_HEADER.pack(1, wire.OPCODES["put"], wire.MAX_FRAME_BYTES + 1)
    with pytest.raises(ValueError, match="oversized"):
        assembler.feed(bogus)


def test_multiple_frames_in_one_feed():
    assembler = wire.FrameAssembler()
    stream = b""
    for i in range(20):
        stream += _flatten(_request(i, "watermark"))
    frames = assembler.feed(stream)
    assert [f[0] for f in frames] == list(range(20))


# ----------------------------------------------------------------------
# Chunking parity: one parser, whatever recv made of the stream
# ----------------------------------------------------------------------
_TAGS = frozenset({InvalidationTag("items", "id", 7), InvalidationTag("items", "?")})
_HIT = LookupResult(
    hit=True,
    key="k",
    value=ValueBlob.pack({"row": 7}),
    interval=Interval(3, 9),
    raw_interval=Interval(3, None),
    tags=_TAGS,
    key_ever_stored=True,
)
_MISS = LookupResult(hit=False, key="absent", fresh_version_exists=True)
_OP = wire.OPCODES

#: name -> the frames of a recorded stream, as encoded buffer vectors: what
#: a client receives (responses) and what a node receives (requests).
_STREAMS = {
    "hit-with-tags": [wire.encode_binary_mux_frame(1, wire.OP_OK, [_HIT])],
    "miss": [wire.encode_binary_mux_frame(2, wire.OP_OK, [_MISS])],
    "put": [
        wire.encode_binary_mux_frame(
            3, _OP["put"], ("k", ValueBlob.pack([1, 2]), Interval(3, None), _TAGS)
        )
    ],
    "invalidate-batch": [
        wire.encode_binary_mux_frame(
            4, _OP["invalidate_tags"], ([(t, tuple(_TAGS)) for t in range(5, 9)],)
        )
    ],
    "maintenance": [
        _request(5, "extract_entries", (None, 64)),
        wire.encode_binary_mux_frame(6, wire.OP_ERR, "ValueError: no"),
    ],
    "empty-body": [[wire.MUX_HEADER.pack(7, 15, 0)]],
    "32-frames": [
        wire.encode_binary_mux_frame(100 + i, wire.OP_OK, [_HIT if i % 3 else _MISS])
        for i in range(32)
    ],
}
_BIG = [
    wire.encode_binary_mux_frame(
        8, _OP["put"], ("big", ValueBlob(bytes(range(256)) * 1200), Interval(3, None), frozenset())
    ),
    _request(9, "ping"),
]


def _expected(frames):
    return [
        wire.MUX_HEADER.unpack(bytes(frame[0]))[:2] + (_flatten(frame[1:]),)
        for frame in frames
    ]


def _fed(chunks):
    assembler = wire.FrameAssembler(hello=wire.WIRE_VERSION)
    frames = assembler.feed(bytes([wire.WIRE_VERSION]))
    for chunk in chunks:
        frames.extend(assembler.feed(chunk))
    assert assembler._buffer == b"", "bytes left over after the last whole frame"
    return [(request_id, opcode, bytes(body)) for request_id, opcode, body in frames]


@pytest.mark.parametrize("name", sorted(_STREAMS))
def test_assembler_yields_the_same_frames_however_the_stream_is_cut(name):
    expected = _expected(_STREAMS[name])
    stream = b"".join(_flatten(frame) for frame in _STREAMS[name])
    assert _fed([stream]) == expected
    assert _fed([stream[i : i + 1] for i in range(len(stream))]) == expected
    for cut in range(len(stream) + 1):
        assert _fed([stream[:cut], stream[cut:]]) == expected, cut
    # The version byte may share a segment with the first frames, or not.
    hello = bytes([wire.WIRE_VERSION])
    assembler = wire.FrameAssembler(hello=wire.WIRE_VERSION)
    assert [
        (request_id, opcode, bytes(body))
        for request_id, opcode, body in assembler.feed(hello + stream)
    ] == expected


def test_assembler_reassembles_a_300_kb_body_from_any_cut():
    expected = _expected(_BIG)
    stream = b"".join(_flatten(frame) for frame in _BIG)
    assert len(stream) > 300_000
    assert _fed([stream]) == expected
    assert _fed([stream[i : i + 1] for i in range(len(stream))]) == expected
    assert _fed([stream[i : i + 65536] for i in range(0, len(stream), 65536)]) == expected
    edges = {0, 1, wire.MUX_HEADER.size - 1, wire.MUX_HEADER.size, wire.MUX_HEADER.size + 1}
    tail = len(stream) - len(_flatten(_BIG[1]))
    cuts = edges | {tail + edge for edge in edges} | {tail - 1, len(stream) - 1, len(stream)}
    cuts |= {random.Random(19).randrange(len(stream)) for _ in range(40)}
    for cut in sorted(cuts):
        assert _fed([stream[:cut], stream[cut:]]) == expected, cut


def test_assembler_keeps_no_copy_of_frames_that_arrived_whole():
    """Only the head of a frame split across reads is ever buffered."""
    stream = b"".join(_flatten(frame) for frame in _STREAMS["32-frames"])
    assembler = wire.FrameAssembler()
    assert len(assembler.feed(stream)) == 32 and not assembler._buffer
    assert len(assembler.feed(stream + stream[:20])) == 32
    assert bytes(assembler._buffer) == stream[:20]
    assert len(assembler.feed(stream[20:])) == 32 and not assembler._buffer


# ----------------------------------------------------------------------
# Vectored sends
# ----------------------------------------------------------------------
def test_send_buffers_writes_vector_without_copies():
    a, b = socket.socketpair()
    try:
        wire.WIRE_COUNTERS.reset()
        payload = [b"head", b"x" * 10_000, b"tail"]
        wire.send_buffers(a, payload)
        received = bytearray()
        while len(received) < 10_008:
            received += b.recv(65536)
        assert bytes(received) == b"".join(payload)
        assert wire.WIRE_COUNTERS.bytes_copied == 0
        assert wire.WIRE_COUNTERS.bytes_sent == 10_008
    finally:
        a.close()
        b.close()


def test_send_buffers_resumes_after_partial_sends():
    """A tiny kernel buffer forces partial sendmsg returns mid-vector."""
    import threading

    a, b = socket.socketpair()
    try:
        a.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        chunks = [bytes([i % 251]) * 3001 for i in range(40)]
        expected = b"".join(chunks)
        received = bytearray()

        def drain():
            while len(received) < len(expected):
                data = b.recv(65536)
                if not data:
                    return
                received.extend(data)

        reader = threading.Thread(target=drain)
        reader.start()
        wire.send_buffers(a, chunks)
        reader.join(timeout=10)
        assert bytes(received) == expected
    finally:
        a.close()
        b.close()
