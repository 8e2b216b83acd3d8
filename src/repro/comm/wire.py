"""The framed wire codec shared by both ends of the cache protocol.

A connection opens with one version byte, :data:`WIRE_VERSION`; the node
closes a connection that opens with anything else, so a peer speaking some
other protocol costs only its own connection.  Every frame then starts with
a struct-packed ``(request_id, opcode, length)`` header (:data:`MUX_HEADER`,
``!QBI``).  Any number of requests may be in flight on one connection, and
responses may arrive **out of order**: the ``request_id`` is how the client
matches a response to its caller.

Opcodes name the cache operation numerically (:data:`OPCODES`); the two
response opcodes ``OP_OK``/``OP_ERR`` carry the result.  The opcode byte is
the opcode and nothing else.

Bodies
------
Every body, of every opcode, in both directions, has one format: a compact
tagged **binary** encoding (little-endian structs for keys, timestamps,
intervals, lookup and entry records — see :func:`encode_binary_body`).  The
format names a closed set of shapes: ``None``, bools, ints of any size,
floats, strings (lone surrogates included), bytes, lists, tuples, dicts,
frozensets, and the cache's records.  Anything else raises ``TypeError`` at
the sender, before a byte is sent, and a decoder refuses any tag it does not
name.  Decoding therefore only ever builds those shapes: no byte sequence a
peer sends can make a node call anything.  Malformed bodies raise
:class:`WireDecodeError`, never anything that could take down a reactor.
A request body is its argument tuple in that encoding, for every op
(:func:`encode_binary_args`; ``multi_lookup``'s is written and read
without the generic walk, to the same bytes), and a reply body its result
(:func:`encode_binary_mux_frame`; :func:`encode_lookup_reply` for
``multi_lookup``).

Cached values
-------------
A cached value crosses the wire as a :class:`repro.cache.entry.ValueBlob`:
the client end of a connection (``SocketTransport``) pickles the value once
on the way in and unpickles it once on the way out, and everything in
between — the node's store, a migration chunk — carries that marked byte
run without looking inside.  The codec writes it as ``tag, u32 length, raw
bytes``.  A node therefore never runs ``pickle.loads`` or ``pickle.dumps``:
only the client trusts, and opens, its own values.

Copy discipline
---------------
Nothing in this module concatenates a header onto a body.  A body is
encoded into one buffer (a blob's bytes are appended to it once) — for a
lookup reply, behind room for the header, which is packed in place — and
frames are written as *vectors of buffers* via :func:`send_buffers`
(``socket.sendmsg`` gather I/O, with a join fallback for sockets that lack
it).  :class:`WireCounters` tallies the bytes that *were* copied again (the
join fallback) so the wire microbenchmark can assert the fast path stays
copy-free.
"""

from __future__ import annotations

import socket
import struct
import threading
from typing import List, Optional, Sequence, Tuple, Union

from repro.cache.entry import EntryRecord, LookupRequest, LookupResult, ValueBlob
from repro.comm.transport import MAX_BATCH_ITEMS
from repro.db.invalidation import InvalidationTag
from repro.interval import Interval

__all__ = [
    "MUX_HEADER",
    "WIRE_VERSION",
    "MAX_FRAME_BYTES",
    "MAX_BATCH_ITEMS",
    "OPCODES",
    "OP_OK",
    "OP_ERR",
    "WireCounters",
    "WIRE_COUNTERS",
    "WireDecodeError",
    "encode_binary_body",
    "decode_binary_body",
    "encode_binary_args",
    "decode_binary_args",
    "encode_binary_mux_frame",
    "encode_lookup_reply",
    "send_buffers",
]

#: Frame header: (request_id: u64, opcode: u8, length: u32).
MUX_HEADER = struct.Struct("!QBI")
_HEADER_SIZE = MUX_HEADER.size
_pack_header_into = MUX_HEADER.pack_into

#: The first byte of every connection, sent by the client without waiting
#: for an answer; the node closes a connection that opens with any other.
WIRE_VERSION = 0xAB

#: Upper bound on a single frame, as a sanity check against corrupt headers.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Request opcodes: every cache operation the transport protocol names.  A
#: number no longer listed stays unassigned, so an old client's frame is
#: refused rather than misread.
OPCODES = {
    # 1 was the single-key lookup; every lookup is a ``multi_lookup``.
    "multi_lookup": 2,
    "put": 3,
    "probe": 4,
    # 5 was the ever-stored check; a miss carries ``key_ever_stored``.
    "evict_stale": 6,
    # 7 emptied the node; nothing sent it.
    "stats": 8,
    "reset_stats": 9,
    "extract_entries": 10,
    "install_entries": 11,
    "discard_keys": 12,
    # 13 sent the whole key set in one frame; ``SocketTransport.keys``
    # pages ``keys_in_range`` over the full circle instead.
    "watermark": 14,
    # 15 was the pickled single-message ``invalidate``; the stream crosses
    # the wire only as ``invalidate_tags``.
    "note_timestamp": 16,
    "ping": 17,
    # 18 was the gossip membership-digest exchange; failure detection is
    # the routing threshold, which sends nothing of its own.
    # The per-arc interval-set digests anti-entropy repair plans from
    # instead of full key inventories.
    "key_digest": 19,
    "keys_in_range": 20,
    # Wire-delivered invalidation: a batch of (timestamp, tags) pairs
    # applied in order by the receiving node.  Process-hosted nodes cannot
    # share the in-process InvalidationBus, so the stream crosses the wire
    # as this op.
    "invalidate_tags": 21,
    # Stored-version introspection: the full entry list for one key, used
    # by replica-placement checks and debugging.  Process-hosted nodes
    # have no in-process server object to inspect, so the check crosses
    # the wire like everything else.
    "versions_of": 22,
}

#: The requests whose first argument is a list of items, and the most
#: arguments each takes: a batch is that one list, a store walk over ring
#: arcs (``key_digest``, ``keys_in_range``) the arcs and a cursor.
_LIST_ARGUMENTS = {
    OPCODES["multi_lookup"]: 1,
    OPCODES["install_entries"]: 1,
    OPCODES["discard_keys"]: 1,
    OPCODES["invalidate_tags"]: 1,
    OPCODES["key_digest"]: 2,
    OPCODES["keys_in_range"]: 2,
}

_MULTI_LOOKUP = OPCODES["multi_lookup"]

#: Response opcodes.
OP_OK = 0x40
OP_ERR = 0x41


class WireDecodeError(ValueError):
    """A frame body could not be decoded (malformed, truncated, or unknown tag)."""


Buffer = Union[bytes, bytearray, memoryview]


class WireCounters:
    """Bytes-copied / frames-encoded accounting for the wire microbenchmark.

    The counters are advisory (plain int adds; exact under the GIL for the
    single-threaded microbenchmark that reads them) and cost one attribute
    update per frame on the hot path.
    """

    __slots__ = ("frames_encoded", "frames_decoded", "bytes_sent", "bytes_copied")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: Frames encoded (requests and responses).
        self.frames_encoded = 0
        #: Frames decoded from received bytes.
        self.frames_decoded = 0
        #: Payload + header bytes handed to the socket layer.
        self.bytes_sent = 0
        #: Bytes copied again on the way to the socket: the joined frame
        #: of :func:`send_buffers`' fallback for sockets without
        #: ``sendmsg``.  Zero on the fast path.
        self.bytes_copied = 0


#: Process-wide counters; the microbenchmark resets and reads them.
WIRE_COUNTERS = WireCounters()


# ----------------------------------------------------------------------
# Binary body codec (every body of every op)
# ----------------------------------------------------------------------
# One tag byte per value.  Variable-length values (strings, bytes,
# containers) pack ``tag | length << 8`` into a single little-endian u32, so
# the common small string costs 4 bytes of overhead and one struct call;
# anything longer than 2**24-1 is refused at the sender.  Record tags
# delegate to the ``pack_into``/``unpack_from`` methods the record types
# themselves define (cache/entry.py, interval.py).  The tag table is closed:
# a value of any other type raises TypeError at the sender, and a decoder
# refuses any tag not listed here.
_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3
_T_FLOAT = 4
_T_STR = 5
_T_BYTES = 6
_T_LIST = 7
_T_TUPLE = 8
_T_DICT = 9
_T_FROZENSET = 10
# 11 is unassigned (it carried a pickle fallback, which let any peer make
# the decoding node call any callable), so a decoder refuses it.
_T_INTERVAL = 12
# 13 is unassigned (it carried interval sets, which no op sends), so a
# decoder refuses it.
_T_LOOKUP_REQUEST = 14
_T_LOOKUP_RESULT = 15
_T_ENTRY_RECORD = 16
_T_TAG = 17
# Compact forms of the hottest shapes: a one-byte length for short strings
# and small containers, and a bare byte for small non-negative ints.  Each
# dodges a struct call (~135 ns, measured) — most of the per-column decode
# cost of a row dict.
_T_STR8 = 18
_T_INT8 = 19
_T_DICT8 = 20
_T_TUPLE8 = 21
_T_LIST8 = 22
# A cached value already serialized by the client end (ValueBlob): one tag
# byte, a plain u32 length (values outgrow the 24-bit inline length), raw.
_T_BLOB = 23
# Cold shapes, decoded only at the tail of the tag chain: an int outside
# i64 (ring hashes reach 2**64) as signed little-endian bytes, and a string
# with lone surrogates as its ``surrogatepass`` UTF-8.  Both use the
# tagged-length u32.
_T_BIGINT = 24
_T_USTR = 25

#: Longest string/bytes/container the tagged-length u32 can describe.
_MAX_INLINE_LEN = (1 << 24) - 1

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_pack_u32 = _U32.pack
_unpack_u32 = _U32.unpack_from
_pack_i64 = _I64.pack
_unpack_i64 = _I64.unpack_from
_pack_f64 = _F64.pack
_unpack_f64 = _F64.unpack_from
_tuple_new = tuple.__new__

def _inline_len(count: int) -> int:
    """``count`` if the tagged-length u32 can carry it; else ValueError."""
    if count > _MAX_INLINE_LEN:
        raise ValueError(f"{count} items or bytes exceed the wire's 24-bit length")
    return count


def _enc_sized(out: bytearray, tag: int, raw: bytes) -> None:
    """A byte run behind its tagged-length u32."""
    out += _pack_u32(tag | (_inline_len(len(raw)) << 8))
    out += raw


def _enc_surrogates(out: bytearray, value: str) -> None:
    """A string strict UTF-8 cannot encode (it holds lone surrogates)."""
    _enc_sized(out, _T_USTR, value.encode("utf-8", "surrogatepass"))


def _enc_int_cold(out: bytearray, value: int) -> None:
    """Slow half of int encoding: anything outside the one-byte range."""
    try:
        packed = _pack_i64(value)
    except struct.error:
        size = (value.bit_length() + 8) // 8  # room for the sign bit
        _enc_sized(out, _T_BIGINT, value.to_bytes(size, "little", signed=True))
    else:
        out.append(_T_INT)
        out += packed


# The encoder/decoder below inline the string and small-int fast paths at
# every hot call site (dict and sequence element loops) instead of calling
# helpers: a helper call costs ~80 ns and a row dict pays it per column,
# which was the difference between beating pickle by 1.6x and by >2x.
# (The constants stay module globals on purpose: CPython 3.11+ inline-caches
# LOAD_GLOBAL, while hoisting them into keyword-only defaults costs ~200 ns
# of frame setup per call — measured slower on these recursive functions.)
def _enc_value(out: bytearray, value: object) -> None:
    kind = type(value)
    if kind is LookupResult:
        # First compare on purpose: with scalars inlined into the container
        # loops, the values reaching this dispatch on the hot path are
        # result records and their tags.
        out.append(_T_LOOKUP_RESULT)
        value.pack_into(out, _enc_value)
    elif kind is ValueBlob:
        # The value of every hit, put and migrated record: appended as it
        # stands, whatever the value's shape or size.
        out.append(_T_BLOB)
        out += _pack_u32(len(value))
        out += value
    elif kind is InvalidationTag:
        # A tag is a named 3-tuple: (table, column, value) in order.  The
        # table/column strings — short ASCII identifiers — and the value,
        # usually a small int or a string, take the inline paths.
        append = out.append
        append(_T_TAG)
        for part in value:
            kind2 = type(part)
            if kind2 is str:
                try:
                    raw = part.encode("utf-8")
                except UnicodeEncodeError:
                    _enc_surrogates(out, part)
                    continue
                size = len(raw)
                if size < 255:
                    append(_T_STR8)
                    append(size)
                    out += raw
                else:
                    _enc_sized(out, _T_STR, raw)
            elif kind2 is int and 0 <= part <= 255:
                append(_T_INT8)
                append(part)
            elif part is None:
                append(_T_NONE)
            else:
                _enc_value(out, part)
    elif kind is str:
        # Strict utf-8, with a tag of its own for lone surrogates: they are
        # rare enough that a cold path beats paying surrogatepass on every
        # ordinary string.
        try:
            raw = value.encode("utf-8")
        except UnicodeEncodeError:
            _enc_surrogates(out, value)
            return
        size = len(raw)
        if size < 255:
            out.append(_T_STR8)
            out.append(size)
            out += raw
        else:
            _enc_sized(out, _T_STR, raw)
    elif kind is int:
        if 0 <= value <= 255:
            out.append(_T_INT8)
            out.append(value)
        else:
            _enc_int_cold(out, value)
    elif kind is dict:
        count = len(value)
        append = out.append
        if count < 256:
            append(_T_DICT8)
            append(count)
        else:
            out += _pack_u32(_T_DICT | (_inline_len(count) << 8))
        for key, item in value.items():
            if type(key) is str:
                try:
                    raw = key.encode("utf-8")
                except UnicodeEncodeError:
                    _enc_surrogates(out, key)
                else:
                    size = len(raw)
                    if size < 255:
                        append(_T_STR8)
                        append(size)
                        out += raw
                    else:
                        _enc_sized(out, _T_STR, raw)
            else:
                _enc_value(out, key)
            kind2 = type(item)
            if kind2 is str:
                try:
                    raw = item.encode("utf-8")
                except UnicodeEncodeError:
                    _enc_surrogates(out, item)
                    continue
                size = len(raw)
                if size < 255:
                    append(_T_STR8)
                    append(size)
                    out += raw
                else:
                    _enc_sized(out, _T_STR, raw)
            elif kind2 is int:
                if 0 <= item <= 255:
                    append(_T_INT8)
                    append(item)
                else:
                    _enc_int_cold(out, item)
            elif kind2 is float:
                append(_T_FLOAT)
                out += _pack_f64(item)
            elif item is None:
                append(_T_NONE)
            else:
                _enc_value(out, item)
    elif kind is list or kind is tuple:
        count = len(value)
        append = out.append
        if count < 256:
            append(_T_TUPLE8 if kind is tuple else _T_LIST8)
            append(count)
        else:
            out += _pack_u32((_T_LIST if kind is list else _T_TUPLE) | (_inline_len(count) << 8))
        for item in value:
            kind2 = type(item)
            if kind2 is str:
                try:
                    raw = item.encode("utf-8")
                except UnicodeEncodeError:
                    _enc_surrogates(out, item)
                    continue
                size = len(raw)
                if size < 255:
                    append(_T_STR8)
                    append(size)
                    out += raw
                else:
                    _enc_sized(out, _T_STR, raw)
            elif kind2 is int:
                if 0 <= item <= 255:
                    append(_T_INT8)
                    append(item)
                else:
                    _enc_int_cold(out, item)
            elif item is None:
                append(_T_NONE)
            else:
                _enc_value(out, item)
    elif value is None:
        out.append(_T_NONE)
    elif kind is bool:
        out.append(_T_TRUE if value else _T_FALSE)
    elif kind is float:
        out.append(_T_FLOAT)
        out += _pack_f64(value)
    elif kind is Interval:
        out.append(_T_INTERVAL)
        value.pack_into(out)
    elif kind is bytes:
        _enc_sized(out, _T_BYTES, value)
    elif kind is LookupRequest:
        out.append(_T_LOOKUP_REQUEST)
        value.pack_into(out)
    elif kind is EntryRecord:
        out.append(_T_ENTRY_RECORD)
        value.pack_into(out, _enc_value)
    elif kind is frozenset:
        out += _pack_u32(_T_FROZENSET | (_inline_len(len(value)) << 8))
        for item in value:
            _enc_value(out, item)
    else:
        raise TypeError(f"the wire format has no encoding for {kind.__name__!r}")


# Truncation discipline: the hot paths below slice without bounds checks.
# A short slice still decodes, but it leaves ``offset`` past the end of the
# buffer, so the next one-byte read raises IndexError (wrapped into
# WireDecodeError by decode_binary_body) — and a truncated *final* value is
# caught by decode_binary_body's exact-length check.  Either way malformed
# input surfaces as WireDecodeError without paying a compare per value.
# The compare chain is ordered by measured frequency on lookup round trips:
# with strings/ints/floats inlined into the container loops, the values
# that actually reach this dispatch are result records, value blobs and
# tags.  Each position down the chain costs ~18 ns per decoded value.
def _dec_value(buf: bytes, offset: int) -> Tuple[object, int]:
    tag = buf[offset]
    if tag == _T_LOOKUP_RESULT:
        return LookupResult.unpack_from(buf, offset + 1, _dec_value)
    if tag == _T_BLOB:
        size = _unpack_u32(buf, offset + 1)[0]
        offset += 5
        end = offset + size
        if end > len(buf):
            raise WireDecodeError("truncated value blob")
        return ValueBlob(buf[offset:end]), end
    if tag == _T_TAG:
        # One tag per hit response makes this as hot as the result record
        # itself.  Table and column are short identifier strings and the
        # value is usually a small int or a string, so all three fields get
        # the inline fast paths before falling back to the generic decoder.
        offset += 1
        tag2 = buf[offset]
        if tag2 == _T_STR8:
            size = buf[offset + 1]
            offset += 2
            end = offset + size
            table = buf[offset:end].decode("utf-8")
            offset = end
        elif tag2 == _T_NONE:
            table = None
            offset += 1
        else:
            table, offset = _dec_value(buf, offset)
        tag2 = buf[offset]
        if tag2 == _T_STR8:
            size = buf[offset + 1]
            offset += 2
            end = offset + size
            column = buf[offset:end].decode("utf-8")
            offset = end
        elif tag2 == _T_NONE:
            column = None
            offset += 1
        else:
            column, offset = _dec_value(buf, offset)
        tag2 = buf[offset]
        if tag2 == _T_INT8:
            value = buf[offset + 1]
            offset += 2
        elif tag2 == _T_STR8:
            size = buf[offset + 1]
            offset += 2
            end = offset + size
            value = buf[offset:end].decode("utf-8")
            offset = end
        else:
            value, offset = _dec_value(buf, offset)
        # The named tuple's own __new__ is a Python frame; the tuple's is not.
        return _tuple_new(InvalidationTag, (table, column, value)), offset
    if tag == _T_DICT8:
        count = buf[offset + 1]
        offset += 2
        result = {}
        for _ in range(count):
            tag2 = buf[offset]
            if tag2 == _T_STR8:
                size = buf[offset + 1]
                offset += 2
                end = offset + size
                key = buf[offset:end].decode("utf-8")
                offset = end
            else:
                key, offset = _dec_value(buf, offset)
            tag2 = buf[offset]
            if tag2 == _T_STR8:
                size = buf[offset + 1]
                offset += 2
                end = offset + size
                item = buf[offset:end].decode("utf-8")
                offset = end
            elif tag2 == _T_INT8:
                item = buf[offset + 1]
                offset += 2
            elif tag2 == _T_FLOAT:
                item = _unpack_f64(buf, offset + 1)[0]
                offset += 9
            elif tag2 == _T_INT:
                item = _unpack_i64(buf, offset + 1)[0]
                offset += 9
            elif tag2 == _T_NONE:
                item = None
                offset += 1
            else:
                item, offset = _dec_value(buf, offset)
            result[key] = item
        return result, offset
    if tag == _T_STR8:
        size = buf[offset + 1]
        offset += 2
        end = offset + size
        return buf[offset:end].decode("utf-8"), end
    if tag == _T_INT8:
        return buf[offset + 1], offset + 2
    if tag == _T_FLOAT:
        return _unpack_f64(buf, offset + 1)[0], offset + 9
    if tag == _T_NONE:
        return None, offset + 1
    if tag == _T_TUPLE8 or tag == _T_LIST8:
        count = buf[offset + 1]
        offset += 2
        items = []
        for _ in range(count):
            tag2 = buf[offset]
            if tag2 == _T_STR8:
                size = buf[offset + 1]
                offset += 2
                end = offset + size
                item = buf[offset:end].decode("utf-8")
                offset = end
            elif tag2 == _T_INT8:
                item = buf[offset + 1]
                offset += 2
            elif tag2 == _T_INT:
                item = _unpack_i64(buf, offset + 1)[0]
                offset += 9
            elif tag2 == _T_NONE:
                item = None
                offset += 1
            else:
                item, offset = _dec_value(buf, offset)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE8 else items), offset
    if tag == _T_INT:
        return _unpack_i64(buf, offset + 1)[0], offset + 9
    if tag == _T_TRUE:
        return True, offset + 1
    if tag == _T_FALSE:
        return False, offset + 1
    if tag == _T_INTERVAL:
        return Interval.unpack_from(buf, offset + 1)
    if tag == _T_STR:
        size = _unpack_u32(buf, offset)[0] >> 8
        offset += 4
        end = offset + size
        if end > len(buf):
            raise WireDecodeError("truncated string")
        return buf[offset:end].decode("utf-8"), end
    if tag == _T_DICT:
        count = _unpack_u32(buf, offset)[0] >> 8
        offset += 4
        result = {}
        for _ in range(count):
            key, offset = _dec_value(buf, offset)
            item, offset = _dec_value(buf, offset)
            result[key] = item
        return result, offset
    if tag == _T_LIST or tag == _T_TUPLE:
        count = _unpack_u32(buf, offset)[0] >> 8
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _dec_value(buf, offset)
            items.append(item)
        return (items if tag == _T_LIST else tuple(items)), offset
    if tag == _T_BYTES:
        size = _unpack_u32(buf, offset)[0] >> 8
        offset += 4
        end = offset + size
        if end > len(buf):
            raise WireDecodeError("truncated bytes")
        return buf[offset:end], end
    if tag == _T_LOOKUP_REQUEST:
        return LookupRequest.unpack_from(buf, offset + 1)
    if tag == _T_ENTRY_RECORD:
        return EntryRecord.unpack_from(buf, offset + 1, _dec_value)
    if tag == _T_FROZENSET:
        count = _unpack_u32(buf, offset)[0] >> 8
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _dec_value(buf, offset)
            items.append(item)
        return frozenset(items), offset
    if tag == _T_BIGINT:
        size = _unpack_u32(buf, offset)[0] >> 8
        offset += 4
        end = offset + size
        if end > len(buf):
            raise WireDecodeError("truncated int")
        return int.from_bytes(buf[offset:end], "little", signed=True), end
    if tag == _T_USTR:
        size = _unpack_u32(buf, offset)[0] >> 8
        offset += 4
        end = offset + size
        if end > len(buf):
            raise WireDecodeError("truncated string")
        return buf[offset:end].decode("utf-8", "surrogatepass"), end
    raise WireDecodeError(f"unknown value tag {tag}")


def encode_binary_body(payload: object) -> bytearray:
    """Encode ``payload`` with the binary codec into one body buffer."""
    out = bytearray()
    _enc_value(out, payload)
    return out


def _as_bytes(body: Buffer) -> bytes:
    """A frame body as bytes, copied only when it has to be."""
    if type(body) is memoryview:
        # Frame bodies arrive as a memoryview over exactly the body bytes;
        # unwrap instead of copying.
        base = body.obj
        if type(base) is bytes and len(base) == len(body):
            return base
    return bytes(body)


def _malformed(exc: Exception) -> WireDecodeError:
    return WireDecodeError(f"malformed binary body: {exc!r}")


def _trailing(buf: bytes, offset: int) -> WireDecodeError:
    return WireDecodeError(f"malformed binary body: {len(buf) - offset} trailing bytes")


def decode_binary_body(body: Buffer) -> object:
    """Decode a binary frame body.

    Any malformed or truncated input raises :class:`WireDecodeError` — the
    reactor and the client reader rely on decode failures being typed and
    containable, exactly like a server-side dispatch error.
    """
    buf = body if type(body) is bytes else _as_bytes(body)
    try:
        value, offset = _dec_value(buf, 0)
    except WireDecodeError:
        raise
    except Exception as exc:
        raise _malformed(exc) from exc
    if offset != len(buf):
        raise _trailing(buf, offset)
    return value


def _check_batch(body: Buffer, arguments: int) -> None:
    """Refuse a request body unless its first of at most ``arguments``
    arguments is a list of at most :data:`MAX_BATCH_ITEMS` items, read from
    the list's header (or it has no argument, which the server refuses in
    turn)."""
    count = -1
    if len(body) == 2 and body[0] == _T_TUPLE8 and body[1] == 0:
        count = 0
    elif len(body) >= 4 and body[0] == _T_TUPLE8 and 1 <= body[1] <= arguments:
        if body[2] == _T_LIST8:
            count = body[3]
        elif body[2] == _T_LIST and len(body) >= 6:
            count = _unpack_u32(body, 2)[0] >> 8
    if count < 0:
        raise WireDecodeError("a batch request starts with a list argument")
    if count > MAX_BATCH_ITEMS:
        raise WireDecodeError(
            f"a batch of {count} items; a frame carries at most {MAX_BATCH_ITEMS}"
        )


def encode_binary_args(opcode: int, args: object) -> bytearray:
    """Encode a request argument tuple as ``opcode``'s binary body: the
    tagged encoding of the tuple, for every op alike.

    ``multi_lookup``'s ``(requests,)`` — a tuple of one list of
    :class:`~repro.cache.entry.LookupRequest` — is written without the
    generic walk: the tuple's and the list's headers, then the records.
    The bytes are the walk's.
    """
    if opcode == _MULTI_LOOKUP and type(args) is tuple and len(args) == 1:
        requests = args[0]
        if type(requests) is list:
            count = len(requests)
            if count < 256:
                out = bytearray((_T_TUPLE8, 1, _T_LIST8, count))
            else:
                out = bytearray((_T_TUPLE8, 1))
                out += _pack_u32(_T_LIST | (_inline_len(count) << 8))
            if LookupRequest.pack_batch_into(out, requests, _T_LOOKUP_REQUEST):
                return out
    return encode_binary_body(args)


def decode_binary_args(opcode: int, body: Buffer) -> object:
    """Decode a binary request body for ``opcode``.

    The inverse of :func:`encode_binary_args`; malformed input raises
    :class:`WireDecodeError` exactly like :func:`decode_binary_body`, and so
    does a batch request of more than :data:`MAX_BATCH_ITEMS` items or a
    store walk over more arcs, refused from the list's header.

    ``multi_lookup``'s ``(requests,)`` is read without the generic walk: the
    list's header, then the records.  A list holding anything but request
    records takes the walk, which decides what it is.
    """
    if opcode != _MULTI_LOOKUP:
        arguments = _LIST_ARGUMENTS.get(opcode)
        if arguments:
            _check_batch(body, arguments)
        return decode_binary_body(body)
    _check_batch(body, 1)
    if not body[1]:  # no argument, which the server refuses
        return decode_binary_body(body)
    buf = body if type(body) is bytes else _as_bytes(body)
    try:
        if buf[2] == _T_LIST8:
            count, offset = buf[3], 4
        else:
            count, offset = _unpack_u32(buf, 2)[0] >> 8, 6
        requests, offset = LookupRequest.unpack_batch_from(
            buf, offset, count, _T_LOOKUP_REQUEST
        )
        if requests is None:
            value, offset = _dec_value(buf, 0)
        else:
            value = (requests,)
    except WireDecodeError:
        raise
    except Exception as exc:
        raise _malformed(exc) from exc
    if offset != len(buf):
        raise _trailing(buf, offset)
    return value


# ----------------------------------------------------------------------
# Frame encoders
# ----------------------------------------------------------------------
def encode_binary_mux_frame(
    request_id: int, opcode: int, payload: object
) -> List[Buffer]:
    """One multiplexed frame as a buffer vector (header never concatenated).

    A request's payload is its argument tuple, a reply's its result or
    error message.
    """
    body = encode_binary_body(payload)
    header = MUX_HEADER.pack(request_id, opcode, len(body))
    WIRE_COUNTERS.frames_encoded += 1
    return [header, body]


def encode_lookup_reply(request_id: int, results: object) -> bytearray:
    """A ``multi_lookup`` ``OP_OK`` reply frame as one buffer.

    The body is written behind room left for the header, which is packed
    into it once the body's length is known — nothing is concatenated.  A
    list of :class:`~repro.cache.entry.LookupResult` is written without the
    generic walk's per-item dispatch; the bytes are
    ``encode_binary_body(results)``'s.
    """
    out = bytearray(_HEADER_SIZE)
    if type(results) is list:
        count = len(results)
        append = out.append
        if count < 256:
            append(_T_LIST8)
            append(count)
        else:
            out += _pack_u32(_T_LIST | (_inline_len(count) << 8))
        for result in results:
            if type(result) is LookupResult:
                append(_T_LOOKUP_RESULT)
                result.pack_into(out, _enc_value)
            else:
                _enc_value(out, result)
    else:
        _enc_value(out, results)
    _pack_header_into(out, 0, request_id, OP_OK, len(out) - _HEADER_SIZE)
    WIRE_COUNTERS.frames_encoded += 1
    return out


# ----------------------------------------------------------------------
# Socket I/O helpers
# ----------------------------------------------------------------------
def send_buffers(sock: socket.socket, buffers: Sequence[Buffer]) -> None:
    """Write a vector of buffers to ``sock`` without concatenating them.

    The caller's buffers go to one ``sendmsg`` as they are, which is the
    whole job whenever the kernel takes the frame whole; memoryviews are
    built only to resume after a partial write.  Falls back to one joined
    ``sendall`` where ``sendmsg`` is unavailable (the copy is counted in
    :data:`WIRE_COUNTERS`).
    """
    total = sum(map(len, buffers))
    WIRE_COUNTERS.bytes_sent += total
    try:
        sendmsg = sock.sendmsg
    except AttributeError:  # pragma: no cover - exotic platforms
        data = b"".join(buffers)
        WIRE_COUNTERS.bytes_copied += len(data)
        sock.sendall(data)
        return
    sent = sendmsg(buffers)
    if sent == total:
        return
    views = [memoryview(b).cast("B") for b in buffers if len(b)]
    while True:
        while sent >= len(views[0]):
            sent -= len(views.pop(0))
            if not views:
                return
        if sent:
            views[0] = views[0][sent:]
        sent = sendmsg(views)


# ----------------------------------------------------------------------
# Incremental frame parser (the read path of both ends of a connection)
# ----------------------------------------------------------------------
class FrameAssembler:
    """Cuts frames out of a byte stream, however ``recv`` chunked it.

    The one frame parser: the node feeds it requests, the client feeds it
    responses.  A frame that arrived whole is sliced straight out of the
    bytes :meth:`feed` was given; the assembler's own buffer holds only the
    head of a frame split across reads, until the rest arrives.  The node's
    assembler is built with the ``hello`` byte a connection must open with
    (:data:`WIRE_VERSION`); the client's expects none, since replies carry
    no version byte.
    """

    def __init__(self, hello: Optional[int] = None) -> None:
        #: The head of a split frame; empty between frames.
        self._buffer = bytearray()
        #: Bytes ``_buffer`` must hold before its frame can be cut: the
        #: header size until the header is in, then header + body.
        self._need = 0
        #: The byte the stream must open with; None once it has arrived.
        self._hello = hello

    def feed(self, data: Buffer) -> List[Tuple[int, int, bytes]]:
        """Add received bytes; return complete ``(request_id, opcode, body)``.

        Raises :class:`ValueError` on a stream that does not open with the
        expected hello byte, or on an oversized frame (neither can be
        resynchronized).
        """
        if self._buffer:
            self._buffer += data
            if len(self._buffer) < self._need:
                return []
            data, self._buffer = bytes(self._buffer), bytearray()
        elif type(data) is not bytes:
            data = bytes(data)
        if not data:
            return []
        offset = 0
        if self._hello is not None:
            if data[0] != self._hello:
                raise ValueError(f"not a cache wire connection: first byte 0x{data[0]:02x}")
            self._hello = None
            offset = 1
        size = MUX_HEADER.size
        frames: List[Tuple[int, int, bytes]] = []
        end = len(data)
        need = size
        while end - offset >= size:
            request_id, opcode, length = MUX_HEADER.unpack_from(data, offset)
            if length > MAX_FRAME_BYTES:
                raise ValueError(f"oversized frame: {length} bytes")
            stop = offset + size + length
            if stop > end:
                need += length
                break
            frames.append((request_id, opcode, data[offset + size : stop]))
            offset = stop
        if offset < end:
            self._buffer += memoryview(data)[offset:]
            self._need = need
        WIRE_COUNTERS.frames_decoded += len(frames)
        return frames


# ----------------------------------------------------------------------
# Client-side response slot (the read lease's rendezvous)
# ----------------------------------------------------------------------
class ResponseSlot:
    """One in-flight request's rendezvous between caller and reader.

    The reader is whichever caller currently holds the connection's read
    lease.  A caller that reads its
    own reply never waits, so the slot builds its ``Event`` on the first
    :meth:`wait` or :meth:`clear` and the settling side sets it only if it
    is there.  That loses no wakeup: ``settled`` is written after the
    value/error and before the event is looked for, and a waiter looks at
    ``settled`` only after its event is in place.

    A slot can be woken *without* settling (:meth:`kick` — "the lease is
    free, come take it"); waiters must therefore check :attr:`settled`
    after :meth:`wait` and re-arm with :meth:`clear` when they were merely
    kicked.  A kick that finds no event says so and the hand-off goes to
    another slot: that caller has not started waiting (it may be blocked in
    ``send``), and looks at the lease itself before it does.
    """

    __slots__ = ("_event", "value", "error", "settled")

    def __init__(self) -> None:
        self._event: Optional[threading.Event] = None
        self.value: object = None
        self.error: Optional[BaseException] = None
        #: True once resolve/fail ran; a set event without it is a kick.
        self.settled = False

    def resolve(self, value: object) -> None:
        self.value = value
        self.settled = True
        if self._event is not None:
            self._event.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.settled = True
        if self._event is not None:
            self._event.set()

    def kick(self) -> bool:
        """Wake the waiter without settling (read-lease handoff); False if
        nobody has started waiting on this slot."""
        if self._event is None:
            return False
        self._event.set()
        return True

    def clear(self) -> None:
        """Arm, or re-arm after a kick (caller then checks ``settled``)."""
        if self._event is None:
            self._event = threading.Event()
        else:
            self._event.clear()

    def wait(self, timeout: Optional[float]) -> bool:
        """True if the slot is settled, or was woken within ``timeout``."""
        if self._event is None:
            self._event = threading.Event()
        return self.settled or self._event.wait(timeout)
