"""Binary wire codec: round-trip properties, malformed-frame safety, and
the client's read lease.

The codec tests are property-based (Hypothesis): whatever the cache layer
puts in a response must survive encode -> decode unchanged, and *no* byte
stream — truncated, mutated, or garbage — may raise anything other than
:class:`~repro.comm.wire.WireDecodeError` out of the decoder.  The reactor
depends on that contract: a malformed frame becomes an error response, never
a crashed event loop.
"""

from __future__ import annotations

import dataclasses
import pickle
import socket
import sys
import threading
import time

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from repro.cache.entry import EntryRecord, LookupRequest, LookupResult, ValueBlob
from repro.cache.netserver import CacheServerProcess, SocketTransport
from repro.cache.server import CacheServer
from repro.comm import wire
from repro.comm.multicast import InvalidationMessage
from repro.db.invalidation import InvalidationTag
from repro.interval import Interval
from tests.helpers import NODE_HOSTINGS, live_node, lookup_one, recv_exactly


def make_server(name="node"):
    return CacheServer(name=name, capacity_bytes=4 * 1024 * 1024)


def round_trip(value):
    return wire.decode_binary_body(bytes(wire.encode_binary_body(value)))


# ----------------------------------------------------------------------
# Hypothesis strategies over wire-crossing data
# ----------------------------------------------------------------------
# Timestamps are logical commit counters: non-negative, far below 2**63
# (the codec packs interval bounds as little-endian i64).
timestamps = st.integers(min_value=0, max_value=2**48)

scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)  # past i64 -> the big-int tag
    | st.floats(allow_nan=False)
    | st.text(max_size=40)  # includes lone surrogates -> the surrogate tag
    | st.binary(max_size=40)
    | st.binary(max_size=40).map(ValueBlob)  # a value as a node holds it
)

values = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.tuples(children, children)
        | st.dictionaries(st.text(max_size=12) | st.integers(), children, max_size=4)
        | st.frozensets(st.integers() | st.text(max_size=8), max_size=4)
    ),
    max_leaves=16,
)

intervals = st.builds(
    lambda lo, span: Interval(lo, None if span is None else lo + span),
    timestamps,
    st.none() | st.integers(min_value=0, max_value=2**20),
)

# Records carry their tags as a tuple of distinct tags.
tags = st.frozensets(
    st.builds(
        InvalidationTag,
        st.sampled_from(["users", "state", "items"]),
        st.none() | st.sampled_from(["id", "region"]),
        st.none() | st.integers(min_value=-5, max_value=5000) | st.text(max_size=8),
    ),
    max_size=4,
).map(tuple)

keys = st.text(max_size=300)

lookup_requests = st.builds(LookupRequest, keys, timestamps, timestamps, timestamps)

entry_records = st.builds(EntryRecord, keys, values, intervals, tags)


@st.composite
def lookup_results(draw):
    hit = draw(st.booleans())
    key = draw(keys)
    if not hit:
        return LookupResult(
            False,
            key,
            key_ever_stored=draw(st.booleans()),
            fresh_version_exists=draw(st.booleans()),
            degraded=draw(st.booleans()),
        )
    interval = draw(intervals)
    # raw_interval is None, the same object (truncated entries), or distinct.
    raw_kind = draw(st.sampled_from(["none", "same", "other"]))
    if raw_kind == "none":
        raw_interval = None
    elif raw_kind == "same":
        raw_interval = interval
    else:
        raw_interval = draw(intervals)
    return LookupResult(
        True,
        key,
        value=draw(values),
        interval=interval,
        raw_interval=raw_interval,
        tags=draw(tags),
        key_ever_stored=True,
        fresh_version_exists=draw(st.booleans()),
    )


def assert_results_equal(actual, expected):
    assert actual.hit == expected.hit
    assert actual.key == expected.key
    assert actual.value == expected.value
    assert actual.interval == expected.interval
    assert actual.raw_interval == expected.raw_interval
    assert actual.tags == expected.tags
    assert actual.key_ever_stored == expected.key_ever_stored
    assert actual.fresh_version_exists == expected.fresh_version_exists
    assert actual.degraded == expected.degraded


# ----------------------------------------------------------------------
# Round-trip properties
# ----------------------------------------------------------------------
@given(values)
@settings(deadline=None)
def test_arbitrary_values_round_trip(value):
    assert round_trip(value) == value


@given(intervals)
@settings(deadline=None)
def test_intervals_round_trip(interval):
    decoded = round_trip(interval)
    assert decoded == interval
    assert decoded.lo == interval.lo and decoded.hi == interval.hi
    # Both construction routes give the same value, hash and dict/set key.
    rebuilt = Interval(interval.lo, interval.hi)
    assert decoded == rebuilt and hash(decoded) == hash(rebuilt) == hash(interval)
    assert {rebuilt: "v"}[decoded] == "v" and decoded in {interval}


@given(lookup_requests)
@settings(deadline=None)
def test_lookup_requests_round_trip(request):
    decoded = round_trip(request)
    assert decoded == request
    assert decoded == LookupRequest(request.key, request.lo, request.hi, request.fresh_lo)


def test_lookup_request_layout_carries_the_staleness_bound():
    """key, then lo / hi / fresh_lo as three i64 — no probe byte."""
    request = LookupRequest("k", 5, 9, fresh_lo=3)
    body = bytes(wire.encode_binary_body(request))
    assert len(body) == 1 + 1 + 1 + 24  # tag, key length, key, three bounds
    assert round_trip(request).fresh_lo == 3
    assert round_trip(LookupRequest("k", 5, 9)).fresh_lo == 0
    with pytest.raises(wire.WireDecodeError):
        wire.decode_binary_body(body[:-8])  # the two-bound layout of old


@given(st.binary(max_size=200))
@settings(deadline=None)
def test_value_blobs_round_trip_as_blobs_and_bytes_as_bytes(raw):
    """The mark survives the codec in both directions: a blob stays a blob
    (so the client end knows to unpickle it) and a user's ``bytes`` value
    stays plain ``bytes`` (so nobody tries to)."""
    blob = round_trip(ValueBlob(raw))
    assert type(blob) is ValueBlob and blob == raw
    plain = round_trip(raw)
    assert type(plain) is bytes and plain == raw


@pytest.mark.parametrize("size", [0, 1, 255, 64 * 1024, (1 << 24) + 1])
def test_value_blob_sizes_and_truncation(size):
    """Empty, past the one-byte and 24-bit inline lengths other byte runs
    use; inside every record that carries a value; and a truncated body is
    a WireDecodeError wherever it is cut."""
    blob = ValueBlob(bytes(range(256)) * (size // 256) + bytes(size % 256))
    hit = LookupResult(True, "k", value=blob, interval=Interval(1, 5), key_ever_stored=True)
    record = EntryRecord("k", blob, Interval(1))
    for payload in (hit, record):
        body = bytes(wire.encode_binary_body(payload))
        assert len(body) < size + 64  # the bytes as they are, plus a header
        carried = wire.decode_binary_body(body).value
        assert type(carried) is ValueBlob and carried == blob
    body = bytes(wire.encode_binary_body(hit))
    cuts = range(len(body)) if size <= 255 else (0, 1, 5, len(body) // 2, len(body) - 1)
    for cut in cuts:
        with pytest.raises(wire.WireDecodeError):
            wire.decode_binary_body(body[:cut])
    opcode = wire.OPCODES["put"]
    put = bytes(wire.encode_binary_args(opcode, ("k", blob, Interval(1), frozenset())))
    carried = wire.decode_binary_args(opcode, put)[1]
    assert type(carried) is ValueBlob and carried == blob
    with pytest.raises(wire.WireDecodeError):
        wire.decode_binary_args(opcode, put[:-1])


@given(entry_records)
@settings(deadline=None)
def test_entry_records_round_trip(record):
    decoded = round_trip(record)
    assert decoded == record


@given(lookup_results())
@settings(deadline=None)
def test_lookup_results_round_trip(result):
    decoded = round_trip(result)
    assert_results_equal(decoded, result)
    # Compared by value, whichever route built it: decoder or constructor.
    assert decoded == result == dataclasses.replace(result)


#: Keys at the one-byte length's edge (255 escapes to a u32), and with a
#: lone surrogate (strict UTF-8 refuses it).
EDGE_KEYS = ["k" * 254, "k" * 255, "k" * 256, "\ud800", "x\udfffy" * 40]


def _generic_request_decode(body):
    """``multi_lookup``'s body read by the generic walk: the definition."""
    wire._check_batch(body, 1)
    return wire.decode_binary_body(body)


@given(st.lists(lookup_requests, min_size=1, max_size=6))
@example(requests=[LookupRequest(key, 1, 5, 1) for key in EDGE_KEYS])
@settings(deadline=None)
def test_multi_lookup_request_payloads_round_trip(requests):
    """``multi_lookup``'s body is written and read without the generic walk,
    and the bytes are the walk's."""
    payload = (requests,)
    assert round_trip(payload) == payload
    opcode = wire.OPCODES["multi_lookup"]
    body = bytes(wire.encode_binary_args(opcode, payload))
    assert body == bytes(wire.encode_binary_body(payload))
    decoded = wire.decode_binary_args(opcode, body)
    assert type(decoded) is tuple and type(decoded[0]) is list
    assert decoded == payload == _generic_request_decode(body)


@pytest.mark.parametrize("count", [0, 1, 255, 256, wire.MAX_BATCH_ITEMS])
def test_multi_lookup_bodies_of_every_list_header_are_the_walks(count):
    """Both list headers (one-byte count below 256, u32 from there), to the
    most items a frame carries — and a list holding something else, which
    both directions hand to the generic walk."""
    opcode = wire.OPCODES["multi_lookup"]
    requests = [
        LookupRequest(EDGE_KEYS[i % len(EDGE_KEYS)] + str(i), i, i + 3, i // 2) for i in range(count)
    ]
    for payload in ((requests,), (requests + ["not a request"],), (requests + [None],)):
        if len(payload[0]) > wire.MAX_BATCH_ITEMS:
            continue
        body = bytes(wire.encode_binary_args(opcode, payload))
        assert body == bytes(wire.encode_binary_body(payload))
        assert wire.decode_binary_args(opcode, body) == payload == _generic_request_decode(body)
    with pytest.raises(TypeError, match="no encoding for 'function'"):
        wire.encode_binary_args(opcode, (requests + [lambda: None],))


@given(st.lists(lookup_requests, min_size=0, max_size=4), st.data())
@example(requests=[LookupRequest("k" * 300, 1, 5)], data=None)
@settings(deadline=None, max_examples=150)
def test_malformed_multi_lookup_bodies_are_refused_as_the_walk_refuses_them(requests, data):
    """Truncated or bit-flipped, a ``multi_lookup`` body decodes to what the
    generic walk makes of it, or is refused with the walk's message: an
    error reply's bytes do not depend on which path read the request."""
    opcode = wire.OPCODES["multi_lookup"]
    body = bytearray(wire.encode_binary_args(opcode, (requests,)))
    if data is None:
        body = body[:-30]
    elif data.draw(st.booleans()):
        body = body[: data.draw(st.integers(0, max(0, len(body) - 1)))]
    else:
        index = data.draw(st.integers(0, len(body) - 1))
        body[index] ^= data.draw(st.integers(1, 255))
    body = bytes(body)
    outcomes = []
    for decode in (lambda b: wire.decode_binary_args(opcode, b), _generic_request_decode):
        try:
            outcomes.append(("value", decode(body)))
        except wire.WireDecodeError as exc:  # the only acceptable exception
            outcomes.append(("refused", str(exc)))
    assert outcomes[0] == outcomes[1]


def _reply_cases():
    """Lookup results of every shape a node's reply carries."""
    tag_sets = [
        frozenset(),
        frozenset({InvalidationTag("items", "id", 7)}),
        frozenset(InvalidationTag("items", "id", i) for i in range(300)),
    ]
    values_ = [ValueBlob.pack({"row": list(range(10))}), {"row": 1}, None, "x" * 300]
    cases = []
    for i, key in enumerate(EDGE_KEYS + ["k"]):
        bounded = Interval(i, i + 4)
        cases += [
            LookupResult(False, key, key_ever_stored=bool(i % 2), fresh_version_exists=True),
            LookupResult(False, key, degraded=True),
            # A still-valid entry: effective bounded, stored unbounded.
            LookupResult(
                True, key, value=values_[i % len(values_)], interval=Interval(i, i + 9),
                raw_interval=Interval(i), tags=tag_sets[i % len(tag_sets)], key_ever_stored=True,
            ),
            # A truncated entry: the same interval object as both.
            LookupResult(
                True, key, value=values_[(i + 1) % len(values_)], interval=bounded,
                raw_interval=bounded, key_ever_stored=True,
            ),
            LookupResult(True, key, value=values_[(i + 2) % len(values_)], interval=Interval(i)),
        ]
    return cases


@pytest.mark.parametrize("count", [0, 1, 255, 256, wire.MAX_BATCH_ITEMS])
def test_the_one_buffer_multi_lookup_reply_carries_the_walks_body(count):
    cases = _reply_cases()
    results = [cases[i % len(cases)] for i in range(count)]
    for payload in (results, results + ["not a result"], "an error message"):
        frame = wire.encode_lookup_reply(9, payload)
        body = bytes(frame[wire.MUX_HEADER.size :])
        assert body == bytes(wire.encode_binary_body(payload))
        assert wire.MUX_HEADER.unpack_from(frame) == (9, wire.OP_OK, len(body))


@given(st.lists(lookup_results(), max_size=4))
@settings(deadline=None)
def test_the_one_buffer_multi_lookup_reply_of_any_results_is_the_walks(results):
    frame = wire.encode_lookup_reply(3, results)
    assert bytes(frame[wire.MUX_HEADER.size :]) == bytes(wire.encode_binary_body(results))


def test_a_node_answers_multi_lookup_with_one_buffer_holding_the_walks_body():
    server = make_server()
    blob = ValueBlob.pack({"row": 1})
    server.put("hit", blob, Interval(1), frozenset({InvalidationTag("items", "id", 7)}))
    server.put("old", blob, Interval(1, 3))
    requests = [LookupRequest(key, 1, 5, 1) for key in ("hit", "old", "absent")]
    opcode = wire.OPCODES["multi_lookup"]
    body = bytes(wire.encode_binary_args(opcode, (requests,)))
    # A lookup moves LRU order and counters, not the answers.
    expected = bytes(wire.encode_binary_body(server.multi_lookup(requests)))
    with CacheServerProcess(server) as process:
        (frame,) = process._execute(5, opcode, body)
    assert wire.MUX_HEADER.unpack_from(frame) == (5, wire.OP_OK, len(expected))
    assert bytes(frame[wire.MUX_HEADER.size :]) == expected


@given(keys, timestamps, timestamps)
@settings(deadline=None)
def test_probe_request_args_are_the_plain_tagged_body(key, lo, span):
    """Every request is the tagged encoding of its argument tuple, with no
    marker byte, and round-trips for every key and bound."""
    args = (key, lo, lo + span)
    opcode = wire.OPCODES["probe"]
    body = bytes(wire.encode_binary_args(opcode, args))
    assert body == bytes(wire.encode_binary_body(args))
    assert wire.decode_binary_args(opcode, body) == args
    payload = (["a", "b"],)
    body = bytes(wire.encode_binary_args(wire.OPCODES["multi_lookup"], payload))
    assert body == bytes(wire.encode_binary_body(payload))
    assert wire.decode_binary_args(wire.OPCODES["multi_lookup"], body) == payload


@given(keys, timestamps, timestamps, st.data())
@settings(deadline=None, max_examples=60)
def test_malformed_request_args_never_raise_anything_else(key, lo, span, data):
    opcode = wire.OPCODES["probe"]
    body = bytearray(wire.encode_binary_args(opcode, (key, lo, lo + span)))
    if data.draw(st.booleans()):
        body = body[: data.draw(st.integers(0, max(0, len(body) - 1)))]
    else:
        index = data.draw(st.integers(0, len(body) - 1))
        body[index] ^= data.draw(st.integers(1, 255))
    try:
        wire.decode_binary_args(opcode, bytes(body))
    except wire.WireDecodeError:
        pass  # the only acceptable exception


@given(st.tuples(keys, values, intervals, tags))
@example(args=(b"raw-key", 1, Interval(0), ()))
@example(args=("k", 1, None, ()))
@example(args=("k", 1, Interval(0), frozenset({InvalidationTag("t")})))  # an older client's set
@example(args=("k", 1, Interval(0)))
@example(args=("k",))
@settings(deadline=None)
def test_put_request_args_are_the_plain_tagged_body(args):
    """``put`` crosses like every other request: its body is the tagged
    encoding of its argument tuple, with no marker byte, exact for every
    key, value, interval and tag set the cache layer can send — and for
    the argument tuples only a peer would send (a non-str key, no interval,
    the wrong arity), which the node then refuses.  Tags cross as the
    tuple a client hands over, or as a frozenset."""
    opcode = wire.OPCODES["put"]
    body = bytes(wire.encode_binary_args(opcode, args))
    assert body == bytes(wire.encode_binary_body(args))
    assert wire.decode_binary_args(opcode, body) == args


@given(keys, intervals, tags, st.data())
@settings(deadline=None, max_examples=60)
def test_malformed_put_args_never_raise_anything_else(key, interval, tag_set, data):
    opcode = wire.OPCODES["put"]
    args = (key, {"row": 1}, interval, tag_set)
    body = bytearray(wire.encode_binary_args(opcode, args))
    if data.draw(st.booleans()):
        body = body[: data.draw(st.integers(0, max(0, len(body) - 1)))]
    else:
        index = data.draw(st.integers(0, len(body) - 1))
        body[index] ^= data.draw(st.integers(1, 255))
    try:
        wire.decode_binary_args(opcode, bytes(body))
    except wire.WireDecodeError:
        pass  # the only acceptable exception


def test_put_trailing_bytes_are_rejected():
    opcode = wire.OPCODES["put"]
    body = bytes(
        wire.encode_binary_args(opcode, ("k", 1, Interval(0, 5), frozenset()))
    )
    with pytest.raises(wire.WireDecodeError):
        wire.decode_binary_args(opcode, body + b"\x00")


def test_interval_object_sharing_survives_the_codec():
    """Truncated entries reuse one Interval as effective *and* raw interval;
    the decoder must reconstruct the sharing (transport parity compares
    canonical re-pickles, where sharing changes the bytes)."""
    shared = Interval(3, 9)
    result = LookupResult(True, "k", value=1, interval=shared, raw_interval=shared)
    decoded = round_trip(result)
    assert decoded.interval is decoded.raw_interval
    distinct = LookupResult(
        True, "k", value=1, interval=Interval(3, 9), raw_interval=Interval(2, None)
    )
    decoded = round_trip(distinct)
    assert decoded.interval is not decoded.raw_interval


# ----------------------------------------------------------------------
# Malformed frames: WireDecodeError or nothing
# ----------------------------------------------------------------------
@given(lookup_results(), st.data())
@settings(deadline=None, max_examples=60)
def test_truncated_bodies_never_raise_anything_else(result, data):
    body = bytes(wire.encode_binary_body(("multi_lookup", result)))
    cut = data.draw(st.integers(min_value=0, max_value=max(0, len(body) - 1)))
    try:
        wire.decode_binary_body(body[:cut])
    except wire.WireDecodeError:
        pass  # the only acceptable exception


@given(lookup_results(), st.data())
@settings(deadline=None, max_examples=60)
def test_mutated_bodies_never_raise_anything_else(result, data):
    body = bytearray(wire.encode_binary_body(result))
    index = data.draw(st.integers(min_value=0, max_value=len(body) - 1))
    flip = data.draw(st.integers(min_value=1, max_value=255))
    body[index] ^= flip
    try:
        wire.decode_binary_body(bytes(body))
    except wire.WireDecodeError:
        pass  # a mutation may still decode by luck; it must never crash


@given(st.binary(max_size=64))
@settings(deadline=None, max_examples=60)
def test_random_garbage_never_raises_anything_else(blob):
    try:
        wire.decode_binary_body(blob)
    except wire.WireDecodeError:
        pass


def test_trailing_bytes_are_rejected():
    body = bytes(wire.encode_binary_body(42)) + b"\x00"
    with pytest.raises(wire.WireDecodeError):
        wire.decode_binary_body(body)


def test_empty_body_is_rejected():
    with pytest.raises(wire.WireDecodeError):
        wire.decode_binary_body(b"")


def test_decode_error_is_a_value_error():
    # The dispatch layer catches Exception; this pins the public contract
    # that WireDecodeError is an ordinary (catchable) error type.
    assert issubclass(wire.WireDecodeError, ValueError)


# ----------------------------------------------------------------------
# A closed format: what it names, and what it refuses
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "value",
    [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1, -(2**64), 2**200, -(2**200)],
)
def test_ints_past_i64_round_trip_exactly(value):
    """Ring hashes and digest sums reach 2**64: the big-int tag carries
    them, alone and inside a key_digest reply."""
    assert round_trip(value) == value and type(round_trip(value)) is int
    reply = [(3, value, abs(value) % (1 << 64))]
    assert round_trip(reply) == reply


def test_strings_with_lone_surrogates_round_trip_in_every_position():
    odd = "a\ud800b"
    payload = {odd: [odd, (odd,)], "k": InvalidationTag(odd, odd, odd)}
    assert round_trip(payload) == payload
    assert round_trip(odd * 200) == odd * 200  # past the one-byte length


def test_the_retired_pickle_tag_is_refused_without_being_loaded():
    loaded = []
    _Tripwire.calls = loaded
    pickled = pickle.dumps(_Tripwire())
    body = bytes([11]) + len(pickled).to_bytes(4, "little") + pickled
    with pytest.raises(wire.WireDecodeError, match="unknown value tag 11"):
        wire.decode_binary_body(body)
    with pytest.raises(wire.WireDecodeError, match="unknown value tag 11"):
        wire.decode_binary_args(wire.OPCODES["put"], body)
    assert loaded == []


@pytest.mark.parametrize(
    "value", [{1, 2}, bytearray(b"x"), object(), len, ValueError("x")],
    ids=["set", "bytearray", "object", "builtin", "exception"],
)
def test_a_type_the_format_does_not_name_is_refused_at_the_sender(value):
    with pytest.raises(TypeError, match="no encoding for"):
        wire.encode_binary_body([1, value])
    with pytest.raises(TypeError, match="no encoding for"):
        wire.encode_binary_args(wire.OPCODES["keys_in_range"], ([value],))
    with pytest.raises(TypeError, match="no encoding for"):
        wire.encode_binary_args(wire.OPCODES["put"], ("k", 1, Interval(0), value))


def test_a_run_past_the_24_bit_length_is_refused_at_the_sender():
    with pytest.raises(ValueError, match="24-bit length"):
        wire.encode_binary_body(b"x" * (1 << 24))
    with pytest.raises(ValueError, match="24-bit length"):
        wire.encode_binary_body("x" * (1 << 24))
    # A value blob has a u32 length of its own.
    assert len(wire.encode_binary_body(ValueBlob(b"x" * (1 << 24)))) == 5 + (1 << 24)


def test_an_error_reply_always_encodes():
    """A request whose error text quotes its whole body — here a 5 MB
    string of invalid UTF-8, whose repr is longer than any string the
    format can carry — still gets an ``OP_ERR`` reply: the message is cut
    before it is encoded."""
    size = 5_000_000
    body = bytes([5]) + size.to_bytes(3, "little") + b"\xff" * size
    with CacheServerProcess(make_server()) as process:
        buffers = process._execute(9, wire.OPCODES["versions_of"], body)
        request_id, opcode, length = wire.MUX_HEADER.unpack(bytes(buffers[0]))
        assert (request_id, opcode) == (9, wire.OP_ERR)
        message = wire.decode_binary_body(bytes(buffers[1]))
        assert message.startswith("WireDecodeError") and len(message) <= 4096


class _Tripwire:
    """Records that it was unpickled."""

    calls: list = []

    def __reduce__(self):
        return (_tripped, ())


def _tripped():
    _Tripwire.calls.append(True)
    return None


# ----------------------------------------------------------------------
# Reactor safety: garbage binary frames against a live server
# ----------------------------------------------------------------------
def _dial_binary(address):
    sock = socket.create_connection(address)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.sendall(bytes([wire.WIRE_VERSION]))
    return sock


def _read_mux_response(sock):
    header = recv_exactly(sock, wire.MUX_HEADER.size)
    request_id, opcode, length = wire.MUX_HEADER.unpack(header)
    body = recv_exactly(sock, length)
    return request_id, opcode, wire.decode_binary_body(body)


@pytest.mark.parametrize("hosting", NODE_HOSTINGS)
def test_garbage_binary_body_yields_error_response_not_a_dead_server(hosting):
    """A frame with an undecodable body must produce OP_ERR and leave the
    connection (and the server) fully functional."""
    with live_node(hosting) as process:
        sock = _dial_binary(process.address)
        try:
            garbage = b"\xff\xfe\xfd\xfc"
            frame = wire.MUX_HEADER.pack(7, wire.OPCODES["multi_lookup"], len(garbage))
            sock.sendall(frame + garbage)
            request_id, status, value = _read_mux_response(sock)
            assert request_id == 7
            assert status == wire.OP_ERR
            assert "WireDecodeError" in value
            # Same connection, next request: still served.
            buffers = wire.encode_binary_mux_frame(
                8, wire.OPCODES["probe"], ("k", 0, 5)
            )
            sock.sendall(b"".join(bytes(b) for b in buffers))
            request_id, status, value = _read_mux_response(sock)
            assert request_id == 8
            assert status == wire.OP_OK
            assert value is False
        finally:
            sock.close()


@pytest.mark.parametrize("hosting", NODE_HOSTINGS)
def test_hot_and_maintenance_frames_interleave_on_one_connection(hosting):
    """A hot op and a maintenance op share one connection and one body
    format: the node keeps no per-connection codec state."""
    with live_node(hosting) as process:
        sock = _dial_binary(process.address)
        try:
            hot = wire.encode_binary_mux_frame(1, wire.OPCODES["probe"], ("k", 0, 5))
            maintenance = wire.encode_binary_mux_frame(
                2, wire.OPCODES["keys_in_range"], ([(0, 0)], None)
            )
            sock.sendall(
                b"".join(bytes(b) for b in hot)
                + b"".join(bytes(b) for b in maintenance)
            )
            responses = {}
            for _ in range(2):
                request_id, status, value = _read_mux_response(sock)
                assert status == wire.OP_OK
                responses[request_id] = value
            assert responses == {1: False, 2: ([], None)}
        finally:
            sock.close()


@pytest.mark.parametrize("hosting", NODE_HOSTINGS)
def test_hot_and_maintenance_ops_serve_traffic(hosting):
    with live_node(hosting) as process:
        transport = SocketTransport(process.address)
        try:
            assert transport.probe("k", 0, 5) is False
            transport.put("k", {"v": 1}, Interval(0), frozenset({InvalidationTag("t")}))
            result = lookup_one(transport, "k", 0, 5)
            assert result.hit and result.value == {"v": 1}
            assert set(result.tags) == {InvalidationTag("t")}
            results = transport.multi_lookup([LookupRequest("k", 0, 5)])
            assert results[0].hit
            # Maintenance ops ride the same binary bodies.
            assert transport.keys() == ["k"]
            assert transport.stats().insertions == 1
        finally:
            transport.close()


# ----------------------------------------------------------------------
# Read lease
# ----------------------------------------------------------------------
@pytest.mark.parametrize("hosting", NODE_HOSTINGS)
def test_concurrent_callers_share_the_lease(hosting):
    """Many threads hammering one mux connection get their own answers back
    through the lease handoff."""
    with live_node(hosting) as process:
        transport = SocketTransport(process.address)
        try:
            for i in range(16):
                transport.put(f"k{i}", i, Interval(0))
            errors = []

            def worker(start):
                try:
                    for i in range(start, start + 50):
                        index = i % 16
                        result = lookup_one(transport, f"k{index}", 0, 5)
                        assert result.hit and result.value == index
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i * 50,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert errors == []
        finally:
            transport.close()


@pytest.mark.parametrize("hosting", NODE_HOSTINGS)
def test_lazily_built_slot_events_lose_no_wakeup_under_forced_switching(hosting):
    """A slot builds its event only when its caller has to wait, while the
    reader settles it from another thread: with the interpreter switching
    threads every microsecond, a settle that raced the event's creation
    and got lost would strand its caller until the timeout."""
    threads, calls = 8, 250
    with live_node(hosting) as process:
        transport = SocketTransport(process.address, timeout_seconds=10.0)
        for i in range(threads):
            transport.put(f"k{i}", i, Interval(0))
        errors = []

        def worker(index):
            try:
                for _ in range(calls):
                    result = lookup_one(transport, f"k{index}", 0, 5)
                    assert result.hit and result.value == index
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            connection = transport._connection
            transport.close()
        assert errors == []
        assert not connection._lease_held


def test_unencodable_request_leaves_no_slot_to_absorb_the_lease_handoff():
    """A request that fails to encode was never sent, so no reply will ever
    settle its slot.  Left registered, it is the "first unsettled pending
    slot" every lease release kicks — and the follower that is really
    waiting is never told to take the lease over: its reply sits in the
    kernel buffer until its timeout poisons the connection."""
    server = make_server()
    gates = {"keys_in_range": threading.Event(), "evict_stale": threading.Event()}
    arrived = {name: threading.Event() for name in gates}

    def stalled(name, original):
        def call(*args):
            arrived[name].set()
            assert gates[name].wait(timeout=30)
            return original(*args)

        return call

    server.keys_in_range = stalled("keys_in_range", server.keys_in_range)
    server.evict_stale = stalled("evict_stale", server.evict_stale)
    timeout = 8.0
    with CacheServerProcess(server) as process:
        transport = SocketTransport(process.address, timeout_seconds=timeout)
        try:
            connection = transport._connection
            for op in ("keys_in_range", "multi_lookup", "put"):
                with pytest.raises(TypeError, match="no encoding for 'function'"):
                    transport._call(op, lambda: None)
            assert connection._pending == {} and not connection._lease_held

            results = {}

            def call(name, *args):
                started = time.monotonic()
                results[name] = (getattr(transport, name)(*args), time.monotonic() - started)

            leader = threading.Thread(target=call, args=("keys_in_range", [(0, 0)]))
            leader.start()
            assert arrived["keys_in_range"].wait(timeout=10)  # the leader is reading
            follower = threading.Thread(target=call, args=("evict_stale", 0))
            follower.start()
            # Wait until the follower is parked on its slot, so the lease
            # can only reach it by hand-off.  The node serves frames in
            # arrival order: the follower's is served once the leader's is.
            deadline = time.monotonic() + 10
            while not any(slot._event is not None for slot in list(connection._pending.values())):
                assert time.monotonic() < deadline, "the follower never parked on its slot"
                time.sleep(0.001)
            gates["keys_in_range"].set()
            assert arrived["evict_stale"].wait(timeout=10)
            leader.join(timeout=10)
            assert not leader.is_alive() and results["keys_in_range"][0] == ([], None)
            # The leader is gone; only a handed-over lease gets this reply read.
            released = time.monotonic()
            gates["evict_stale"].set()
            follower.join(timeout=timeout + 5)
            assert not follower.is_alive()
            assert results["evict_stale"][0] == 0
            assert time.monotonic() - released < timeout / 4
            assert connection is transport._connection and not connection.dead
            assert connection._pending == {} and not connection._lease_held
        finally:
            for gate in gates.values():
                gate.set()
            transport.close()


@pytest.mark.parametrize("hosting", NODE_HOSTINGS)
def test_a_failure_inside_send_poisons_even_when_it_is_not_an_oserror(monkeypatch, hosting):
    """Once ``send`` has been entered half a frame may be on the wire, and
    whatever is written next would be read as the rest of it: any exception
    from there on — not only ``OSError`` — costs the connection."""
    with live_node(hosting) as process:
        transport = SocketTransport(process.address, timeout_seconds=8.0)
        try:
            send_buffers = wire.send_buffers
            caller = threading.current_thread()

            def half_a_frame(sock, buffers):
                if threading.current_thread() is not caller:
                    return send_buffers(sock, buffers)
                sock.sendall(bytes(buffers[0])[:5])
                raise MemoryError("resuming a partial write")

            for op, args in (("ping", ()), ("multi_lookup", ([LookupRequest("k", 0, 5)],))):
                connection = transport._mux_connection()
                monkeypatch.setattr(wire, "send_buffers", half_a_frame)
                with pytest.raises(MemoryError):
                    connection.call(op, args)
                monkeypatch.setattr(wire, "send_buffers", send_buffers)
                assert connection.dead and connection._pending == {}
                assert not connection._lease_held
                assert transport._call("ping") == "node"  # on a fresh connection
                assert transport._connection is not connection
        finally:
            transport.close()


class _FirstSendsFirst:
    """A send lock that holds every other thread back until ``first`` has sent."""

    def __init__(self):
        self._lock = threading.Lock()
        self.first = None
        self.other_waiting = threading.Event()
        self._first_sent = threading.Event()

    def __enter__(self):
        if threading.current_thread() is not self.first:
            self.other_waiting.set()
            assert self._first_sent.wait(timeout=30)
        self._lock.acquire()

    def __exit__(self, *_exc):
        self._lock.release()
        if threading.current_thread() is self.first:
            self._first_sent.set()


def test_a_caller_blocked_in_send_does_not_hold_the_read_lease():
    """At a backpressure bound of 1 the node reads nothing more from a
    connection until its reply has drained.  Ask it for a reply larger than
    the socket buffers, then
    send it a request larger than them on the same connection: the node
    cannot finish the reply until the client reads, and the client cannot
    finish the request until the node reads.  Whoever is stuck in ``send``
    (or queued for the send lock) must therefore not be the one holding the
    read lease — else both ends wait until a timeout poisons the connection."""
    payload = bytes(range(256)) * (8 * 1024)  # 2 MB against 32 KB buffers
    timeout = 8.0
    with CacheServerProcess(make_server(), max_queued_per_connection=1) as process:
        for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):  # inherited on accept
            process._listener.setsockopt(socket.SOL_SOCKET, option, 32 * 1024)
        transport = SocketTransport(process.address, timeout_seconds=timeout)
        try:
            connection = transport._connection
            for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
                connection._sock.setsockopt(socket.SOL_SOCKET, option, 32 * 1024)
            transport.put("big", payload, Interval(0))
            gate = connection._send_lock = _FirstSendsFirst()
            results, errors = {}, []

            def call(name, *args):
                try:
                    results[name] = getattr(transport, name)(*args)
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            # The put registers first, the lookup sends first.
            big_request = threading.Thread(target=call, args=("put", "other", payload, Interval(0)))
            big_reply = gate.first = threading.Thread(
                target=call, args=("multi_lookup", [LookupRequest("big", 0, 5)])
            )
            started = time.monotonic()
            big_request.start()
            assert gate.other_waiting.wait(timeout=10)
            big_reply.start()
            for thread in (big_reply, big_request):
                thread.join(timeout=timeout + 5)
                assert not thread.is_alive()
            assert errors == []
            assert time.monotonic() - started < timeout / 4
            [result] = results["multi_lookup"]
            assert result.hit and result.value == payload
            assert lookup_one(transport, "other", 0, 5).value == payload
            assert connection is transport._connection and not connection.dead
            assert connection._pending == {} and not connection._lease_held
        finally:
            transport.close()


def test_the_lease_handoff_passes_over_a_caller_that_is_still_sending():
    """Same node, same sizes, three callers: the leader waits on a slow op,
    a follower is parked for the large reply, and a caller that registered
    before the follower is blocked sending the large request.  When the
    leader is done the sender's is the oldest unsettled slot, but it reads
    nothing and nothing it sends is read before the follower's reply is
    drained: the hand-off has to reach the parked follower."""
    payload = bytes(range(256)) * (8 * 1024)
    timeout = 8.0
    server = make_server()
    slow_op_arrived, slow_op_may_finish = threading.Event(), threading.Event()
    keys_in_range = server.keys_in_range

    def slow_keys_in_range(*args):
        slow_op_arrived.set()
        assert slow_op_may_finish.wait(timeout=30)
        return keys_in_range(*args)

    server.keys_in_range = slow_keys_in_range
    with CacheServerProcess(server, max_queued_per_connection=1) as process:
        for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
            process._listener.setsockopt(socket.SOL_SOCKET, option, 32 * 1024)
        transport = SocketTransport(process.address, timeout_seconds=timeout)
        try:
            connection = transport._connection
            for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
                connection._sock.setsockopt(socket.SOL_SOCKET, option, 32 * 1024)
            transport.put("big", payload, Interval(0))
            results, errors = {}, []

            def call(name, *args):
                try:
                    results[name] = getattr(transport, name)(*args)
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            leader = threading.Thread(target=call, args=("keys",))
            leader.start()
            assert slow_op_arrived.wait(timeout=10)  # the leader is reading
            gate = connection._send_lock = _FirstSendsFirst()
            sender = threading.Thread(target=call, args=("put", "other", payload, Interval(0)))
            follower = gate.first = threading.Thread(
                target=call, args=("multi_lookup", [LookupRequest("big", 0, 5)])
            )
            sender.start()
            assert gate.other_waiting.wait(timeout=10)  # registered, not sent
            follower.start()
            time.sleep(0.3)  # the follower parks on its slot, the sender blocks in send
            released = time.monotonic()
            slow_op_may_finish.set()
            for thread in (leader, follower, sender):
                thread.join(timeout=timeout + 5)
                assert not thread.is_alive()
            assert errors == []
            assert time.monotonic() - released < timeout / 4
            assert results["keys"] == ["big"]
            [result] = results["multi_lookup"]
            assert result.hit and result.value == payload
            assert lookup_one(transport, "other", 0, 5).value == payload
            assert connection is transport._connection and not connection.dead
            assert connection._pending == {} and not connection._lease_held
        finally:
            slow_op_may_finish.set()
            transport.close()


# ----------------------------------------------------------------------
# invalidate_tags: the wire-delivered invalidation stream's batch op
# ----------------------------------------------------------------------
def _invalidation_batch():
    return [
        (4, (InvalidationTag.key("items", "id", 1),)),
        (6, ()),  # a watermark-only advance rides the same batch
        (9, (InvalidationTag.wildcard("items"), InvalidationTag.key("u", "id", 2))),
    ]


def test_invalidate_tags_args_round_trip_binary():
    opcode = wire.OPCODES["invalidate_tags"]
    args = (_invalidation_batch(),)
    body = wire.encode_binary_args(opcode, args)
    assert wire.decode_binary_args(opcode, bytes(body)) == args


def test_every_op_crosses_as_its_bare_opcode_and_a_binary_body():
    # No flag bits ride on the opcode byte: every op, the invalidation
    # batch included, has the one binary body format.
    for op, opcode in wire.OPCODES.items():
        header, body = wire.encode_binary_mux_frame(1, opcode, ())
        assert wire.MUX_HEADER.unpack(bytes(header))[1] == opcode, op
        assert wire.decode_binary_args(opcode, bytes(body)) == (), op


_TAG = InvalidationTag.key("items", "id", 1)

#: Every opcode, the client call that sends it, and the argument tuple that
#: call puts on the wire (a value as the blob the client packs it into).
CLIENT_CALLS = {
    "multi_lookup": (
        lambda t: t.multi_lookup([LookupRequest("k", 1, 5)]), ([LookupRequest("k", 1, 5)],)
    ),
    "put": (
        lambda t: t.put("k", {"v": 1}, Interval(1), frozenset({_TAG})),
        ("k", ValueBlob.pack({"v": 1}), Interval(1), frozenset({_TAG})),
    ),
    "probe": (lambda t: t.probe("k", 1, 5), ("k", 1, 5)),
    "evict_stale": (lambda t: t.evict_stale(3), (3,)),
    "stats": (lambda t: t.stats(), ()),
    "reset_stats": (lambda t: t.reset_stats(), ()),
    "extract_entries": (lambda t: t.extract_entries(None, 64), (None, 64)),
    "install_entries": (
        lambda t: t.install_entries([EntryRecord("k", 1, Interval(1))]),
        ([EntryRecord("k", ValueBlob.pack(1), Interval(1))],),
    ),
    "discard_keys": (lambda t: t.discard_keys(["k"]), (["k"],)),
    "watermark": (lambda t: t.watermark(), ()),
    "note_timestamp": (lambda t: t.note_timestamp(7), (7,)),
    "ping": (lambda t: t._call("ping"), ()),
    "key_digest": (lambda t: t.key_digest([(0, 0)]), ([(0, 0)], None)),
    "keys_in_range": (lambda t: t.keys_in_range([(0, 0)]), ([(0, 0)], None)),
    "invalidate_tags": (
        lambda t: t.process_invalidation(InvalidationMessage(timestamp=4, tags=(_TAG,))),
        ([(4, (_TAG,))],),
    ),
    "versions_of": (lambda t: t.versions_of("k"), ("k",)),
}


@pytest.mark.parametrize("op", sorted(CLIENT_CALLS))
def test_the_client_sends_every_op_as_the_tagged_encoding_of_its_arguments(monkeypatch, op):
    """One request encoding on the wire: whatever the op, the one frame the
    client writes is the mux header and the tagged encoding of the call's
    argument tuple, which the node decodes for every op alike."""
    assert set(CLIENT_CALLS) == set(wire.OPCODES)
    call, args = CLIENT_CALLS[op]
    sent = []
    send_buffers = wire.send_buffers

    def recording(sock, buffers):
        sent.append(b"".join(bytes(b) for b in buffers))
        return send_buffers(sock, buffers)

    with live_node("thread") as process:
        transport = SocketTransport(process.address, name="node")
        try:
            monkeypatch.setattr(wire, "send_buffers", recording)
            call(transport)
        finally:
            monkeypatch.undo()
            transport.close()
    (frame,) = sent
    _request_id, opcode, length = wire.MUX_HEADER.unpack_from(frame)
    body = frame[wire.MUX_HEADER.size :]
    assert (opcode, length) == (wire.OPCODES[op], len(body))
    assert body == bytes(wire.encode_binary_body(args))
    assert wire.decode_binary_args(opcode, body) == args


@pytest.mark.parametrize("hosting", NODE_HOSTINGS)
def test_invalidate_tags_truncates_over_a_live_connection(hosting):
    from repro.comm.multicast import InvalidationMessage

    with live_node(hosting) as process:
        transport = SocketTransport(process.address)
        try:
            transport.put("k", {"v": 1}, Interval(2), frozenset({InvalidationTag.key("items", "id", 1)}))
            transport.process_invalidations(
                [
                    InvalidationMessage(
                        timestamp=ts, tags=tuple(tags)
                    )
                    for ts, tags in _invalidation_batch()
                ]
            )
            assert transport.watermark() == 9
            (entry,) = transport.versions_of("k")
            assert not entry.still_valid
            # The first matching invalidation after the entry's birth
            # truncates it (timestamp 4, the exact-tag message), not the
            # later wildcard.
            assert entry.interval.hi == 4
            assert transport.stats().invalidation_messages == 3
        finally:
            transport.close()


@pytest.mark.parametrize("hosting", NODE_HOSTINGS)
def test_single_message_rides_invalidate_tags(hosting):
    """One message is a one-element batch of the one stream op, not an op
    of its own."""
    from repro.comm.multicast import InvalidationMessage

    with live_node(hosting) as process:
        transport = SocketTransport(process.address)
        try:
            transport.put("k", {"v": 1}, Interval(2), frozenset({InvalidationTag.key("items", "id", 1)}))
            transport.op_counts.clear()
            transport.process_invalidation(
                InvalidationMessage(timestamp=4, tags=(InvalidationTag.key("items", "id", 1),))
            )
            assert transport.op_counts == {"invalidate_tags": 1}
            (entry,) = transport.versions_of("k")
            assert entry.interval.hi == 4
            assert transport.stats().invalidation_messages == 1
        finally:
            transport.close()


#: Opcodes a node no longer serves: 1 the single-key lookup, 5 the
#: ever-stored check, 7 emptying the node, 13 the whole key set in one
#: frame, 15 the pickled single-message ``invalidate``, and 18 the
#: membership-digest exchange.
RETIRED_OPCODES = [1, 5, 7, 13, 15, 18]


@pytest.mark.parametrize("opcode", RETIRED_OPCODES)
@pytest.mark.parametrize("hosting", NODE_HOSTINGS)
def test_a_retired_opcode_is_refused_not_misread(hosting, opcode):
    """A retired opcode stays unassigned: a frame from a client that still
    sends it gets OP_ERR, and the connection goes on serving."""
    assert "invalidate" not in wire.OPCODES
    assert opcode not in wire.OPCODES.values()
    with live_node(hosting) as process:
        sock = _dial_binary(process.address)
        try:
            sock.sendall(b"".join(bytes(b) for b in wire.encode_binary_mux_frame(3, opcode, ())))
            request_id, status, value = _read_mux_response(sock)
            assert (request_id, status) == (3, wire.OP_ERR)
            assert f"unknown cache operation opcode {opcode}" in value
            sock.sendall(
                b"".join(bytes(b) for b in wire.encode_binary_mux_frame(4, wire.OPCODES["ping"], ()))
            )
            assert _read_mux_response(sock) == (4, wire.OP_OK, "node")
        finally:
            sock.close()


# ----------------------------------------------------------------------
# The list bound: a batch or a store walk is refused from its header
# ----------------------------------------------------------------------
#: One item of each batch op's list argument, by its index.
BATCH_ITEMS = {
    "multi_lookup": lambda i: LookupRequest(f"key-{i}", 0, 40),
    "install_entries": lambda i: EntryRecord(f"key-{i}", i, Interval(1, None)),
    "discard_keys": lambda i: f"key-{i}",
    "invalidate_tags": lambda i: (i + 1, (InvalidationTag.key("items", "id", i),)),
}

WALK_OPS = ["key_digest", "keys_in_range"]


def _arcs(count):
    return [(i * 7, i * 7 + 5) for i in range(count)]


@pytest.mark.parametrize("op", sorted(BATCH_ITEMS))
def test_a_batch_is_bounded_at_max_batch_items_from_its_header(op):
    opcode = wire.OPCODES[op]
    full = ([BATCH_ITEMS[op](i) for i in range(wire.MAX_BATCH_ITEMS)],)
    assert wire.decode_binary_args(opcode, bytes(wire.encode_binary_args(opcode, full))) == full
    over = ([BATCH_ITEMS[op](i) for i in range(wire.MAX_BATCH_ITEMS + 1)],)
    body = bytes(wire.encode_binary_args(opcode, over))
    with pytest.raises(wire.WireDecodeError, match="at most"):
        wire.decode_binary_args(opcode, body)
    # The count is read from the list header: cut off after it, the body
    # is still refused for its size, not for being truncated.
    with pytest.raises(wire.WireDecodeError, match="at most"):
        wire.decode_binary_args(opcode, body[:8])


@pytest.mark.parametrize("op", WALK_OPS)
def test_a_store_walk_over_max_batch_items_arcs_decodes(op):
    opcode = wire.OPCODES[op]
    for cursor in (None, "key-00042"):
        args = (_arcs(wire.MAX_BATCH_ITEMS), cursor)
        body = bytes(wire.encode_binary_args(opcode, args))
        assert wire.decode_binary_args(opcode, body) == args


@pytest.mark.parametrize("op", WALK_OPS)
def test_a_store_walk_over_one_arc_too_many_is_refused_from_its_header(op):
    opcode = wire.OPCODES[op]
    for cursor in (None, "key-00042"):
        body = bytes(wire.encode_binary_args(opcode, (_arcs(wire.MAX_BATCH_ITEMS + 1), cursor)))
        with pytest.raises(wire.WireDecodeError, match="at most"):
            wire.decode_binary_args(opcode, body)
        with pytest.raises(wire.WireDecodeError, match="at most"):
            wire.decode_binary_args(opcode, body[:8])


@pytest.mark.parametrize("op", WALK_OPS)
def test_a_store_walk_with_an_argument_past_arcs_and_cursor_is_refused(op):
    # The bound is read from the first of at most two arguments; a third
    # would put an unbounded list out of the header's reach.
    opcode = wire.OPCODES[op]
    body = bytes(wire.encode_binary_args(opcode, (_arcs(4), None, _arcs(4))))
    with pytest.raises(wire.WireDecodeError, match="list argument"):
        wire.decode_binary_args(opcode, body)


# ----------------------------------------------------------------------
# Tags keep their bytes
# ----------------------------------------------------------------------
#: One tag of each shape the codec writes: small int, wildcard, non-ASCII
#: string, big int, None and float values.
_TAG_SHAPES = (
    InvalidationTag.key("items", "id", 7),
    InvalidationTag.wildcard("users"),
    InvalidationTag.key("users", "nickname", "zoë"),
    InvalidationTag.key("bids", "item_id", 1 << 40),
    InvalidationTag.key("t", "c", None),
    InvalidationTag.key("t", "c", 2.5),
)
#: A ``multi_lookup`` reply of one hit per tag shape, and an
#: ``invalidate_tags`` batch of them, as the codec wrote both while a tag
#: was a frozen dataclass.  A tag is a named tuple now; its bytes are not
#: allowed to notice.
_TAGGED_HITS_FRAME = bytes.fromhex(
    "0000000000000005400000010b16060ff301026b30030000000000000003000000000000"
    "001112056974656d731202696413071701000000760ff301026b31030000000000000003"
    "00000000000000111205757365727300001701000000760ff301026b3203000000000000"
    "000300000000000000111205757365727312086e69636b6e616d6512047a6fc3ab170100"
    "0000760ff301026b33030000000000000003000000000000001112046269647312076974"
    "656d5f69640300000000000100001701000000760ff301026b3403000000000000000300"
    "00000000000011120174120163001701000000760ff301026b3503000000000000000300"
    "00000000000011120174120163040000000000000440170100000076"
)
_INVALIDATE_TAGS_BODY = bytes.fromhex(
    "150116031502130415031112056974656d73120269641307111205757365727300001112"
    "05757365727312086e69636b6e616d6512047a6fc3ab1502130615001502130915031112"
    "046269647312076974656d5f696403000000000001000011120174120163001112017412"
    "0163040000000000000440"
)


def test_tags_cross_the_wire_in_the_bytes_they_always_had():
    hits = [
        LookupResult(True, f"k{i}", ValueBlob(b"v"), Interval(3), Interval(3), (tag,), True)
        for i, tag in enumerate(_TAG_SHAPES)
    ]
    assert bytes(wire.encode_lookup_reply(5, hits)) == _TAGGED_HITS_FRAME
    assert bytes(wire.encode_binary_body(hits)) == _TAGGED_HITS_FRAME[wire.MUX_HEADER.size :]
    decoded = wire.decode_binary_body(_TAGGED_HITS_FRAME[wire.MUX_HEADER.size :])
    assert decoded == hits
    assert [type(tag) for result in decoded for tag in result.tags] == [InvalidationTag] * 6

    opcode = wire.OPCODES["invalidate_tags"]
    batch = [(4, _TAG_SHAPES[:3]), (6, ()), (9, _TAG_SHAPES[3:])]
    assert bytes(wire.encode_binary_args(opcode, (batch,))) == _INVALIDATE_TAGS_BODY
    (decoded_batch,) = wire.decode_binary_args(opcode, _INVALIDATE_TAGS_BODY)
    assert [(timestamp, tuple(tags)) for timestamp, tags in decoded_batch] == batch
    assert all(type(tag) is InvalidationTag for _, tags in decoded_batch for tag in tags)
