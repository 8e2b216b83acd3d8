"""Cache entries and lookup results."""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro._compat import DATACLASS_SLOTS
from repro.db.invalidation import InvalidationTag
from repro.interval import Interval

__all__ = [
    "CacheEntry",
    "EntryRecord",
    "LookupRequest",
    "LookupResult",
    "ValueBlob",
    "estimate_size",
]

# Binary wire layouts (see repro.comm.wire).  Values and tags are encoded by
# the codec callbacks the wire module passes in, which keeps this module
# free of any dependency on the codec's tag table.  Keys carry a one-byte
# length (255 escapes to a u32 for longer keys) and records pack all their
# interval bounds with a single struct call — both measured wins over the
# straightforward one-struct-per-field layout.
_KEYLEN = struct.Struct("<I")
_LO_HI_FRESH = struct.Struct("<qqq")
_COUNT = struct.Struct("<I")
#: Interval bounds of a LookupResult, all packed at once; indexed by count.
_QS = (
    None,
    struct.Struct("<q"),
    struct.Struct("<qq"),
    struct.Struct("<qqq"),
    struct.Struct("<qqqq"),
)
_unpack_keylen = _KEYLEN.unpack_from
_unpack_lo_hi_fresh = _LO_HI_FRESH.unpack_from
_QS_PACK = (None,) + tuple(s.pack for s in _QS[1:])
_QS_UNPACK = (None,) + tuple(s.unpack_from for s in _QS[1:])

# LookupResult flag bits (one byte on the wire).  The interval bits say
# which bounds are present in the packed-bounds block: a bounded interval
# contributes (lo, hi), an unbounded one just lo.
_F_HIT = 1
_F_EVER_STORED = 2
_F_FRESH_EXISTS = 4
_F_DEGRADED = 8
_F_HAS_INTERVAL = 16
_F_INTERVAL_UNBOUNDED = 32
_F_HAS_RAW = 64
_F_RAW_UNBOUNDED = 128

_new = object.__new__
_set = object.__setattr__
_EMPTY_TAGS: Tuple[InvalidationTag, ...] = ()

#: Fixed per-entry bookkeeping overhead charged against the byte budget, in
#: addition to the serialized size of the key and value.
ENTRY_OVERHEAD_BYTES = 64


class ValueBlob(bytes):
    """A cached value as the bytes a networked node stores.

    The client end of a socket connection pickles a value once
    (:meth:`pack`) and unpickles it once (:meth:`unpack`); in between — on
    the wire, in the node's store, in a migration chunk — it is this marked
    byte run, which nothing walks or decodes.  The subclass is the mark: it
    tells a blob from a user value that happens to be ``bytes``.
    """

    __slots__ = ()

    @classmethod
    def pack(cls, value: Any) -> "ValueBlob":
        return cls(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))

    def unpack(self) -> Any:
        return pickle.loads(self)


def estimate_size(key: str, value: Any) -> int:
    """Bytes charged against a node's capacity for one entry.

    The byte budget models the RAM of a memcached-style server: the key, the
    serialized value and a fixed overhead.  A :class:`ValueBlob` *is* the
    serialized value, so its length is charged as it stands; any other value
    (an in-process node stores the object itself) is pickled with the same
    protocol just to be measured, which makes the two figures equal.
    """
    if type(value) is ValueBlob:
        value_bytes = len(value)
    else:
        try:
            value_bytes = len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:
            value_bytes = len(repr(value).encode())
    return len(key.encode()) + value_bytes + ENTRY_OVERHEAD_BYTES


@dataclass(**DATACLASS_SLOTS)
class CacheEntry:
    """One version of one cached key.

    Attributes:
        key: cache key (derived from the cacheable function and arguments).
        value: the cached result.
        interval: validity interval of the value.  An unbounded interval
            means the value was current when inserted and the entry is
            *still-valid*: invalidation messages may later truncate it.
        tags: invalidation tags, as the tuple they were read as (only a
            still-valid entry has any).
        size: charged size in bytes.
    """

    key: str
    value: Any
    interval: Interval
    tags: Tuple[InvalidationTag, ...] = ()
    size: int = 0

    @property
    def still_valid(self) -> bool:
        """True while no invalidation has truncated the entry."""
        return self.interval.unbounded

    def effective_interval(self, last_invalidation_ts: int) -> Interval:
        """The interval a lookup may rely on right now.

        A still-valid entry has survived every invalidation processed so far,
        so it is known valid through the last invalidation timestamp (but no
        further: a not-yet-seen update may already have changed it).  A
        truncated entry's interval is exact.
        """
        if not self.still_valid:
            return self.interval
        known_through = max(self.interval.lo, last_invalidation_ts)
        return Interval(self.interval.lo, known_through + 1)


@dataclass(frozen=True, **DATACLASS_SLOTS)
class EntryRecord:
    """One cache-entry version in transit between nodes (key migration).

    A record carries everything needed to reinstall the version on another
    node with identical semantics: the value, its validity interval, and —
    for still-valid entries — the invalidation tags that keep it truncatable.
    Records are produced by ``extract_entries`` and consumed by
    ``install_entries`` (see :class:`repro.comm.transport.CacheTransport`).
    """

    key: str
    value: Any
    interval: Interval
    tags: Tuple[InvalidationTag, ...] = ()

    # ------------------------------------------------------------------
    # Binary wire codec (see repro.comm.wire)
    # ------------------------------------------------------------------
    def pack_into(self, out: bytearray, enc_value: Callable[[bytearray, Any], None]) -> None:
        """Append key, interval, tags and value; values via ``enc_value``."""
        try:
            raw = self.key.encode("utf-8")
        except UnicodeEncodeError:
            raw = self.key.encode("utf-8", "surrogatepass")
        size = len(raw)
        if size < 255:
            out.append(size)
        else:
            out.append(255)
            out += _KEYLEN.pack(size)
        out += raw
        self.interval.pack_into(out)
        out += _COUNT.pack(len(self.tags))
        for tag in self.tags:
            enc_value(out, tag)
        enc_value(out, self.value)

    @classmethod
    def unpack_from(
        cls,
        buf: bytes,
        offset: int,
        dec_value: Callable[[bytes, int], Tuple[Any, int]],
    ) -> Tuple["EntryRecord", int]:
        keylen = buf[offset]
        offset += 1
        if keylen == 255:
            (keylen,) = _unpack_keylen(buf, offset)
            offset += 4
        end = offset + keylen
        raw = buf[offset:end]
        try:
            key = raw.decode("utf-8")
        except UnicodeDecodeError:
            key = raw.decode("utf-8", "surrogatepass")
        interval, offset = Interval.unpack_from(buf, end)
        (count,) = _COUNT.unpack_from(buf, offset)
        offset += _COUNT.size
        tags = []
        for _ in range(count):
            tag, offset = dec_value(buf, offset)
            tags.append(tag)
        value, offset = dec_value(buf, offset)
        record = _new(cls)
        _set(record, "key", key)
        _set(record, "value", value)
        _set(record, "interval", interval)
        _set(record, "tags", tuple(tags))
        return record, offset


@dataclass(**DATACLASS_SLOTS)
class LookupRequest:
    """One element of a batched (multi-key) cache lookup.

    ``[lo, hi]`` are the bounds of the transaction's pin set, which narrows
    as the transaction reads.  ``fresh_lo`` is the lower bound of the
    staleness window the transaction started with; on a miss the server
    reports in :attr:`LookupResult.fresh_version_exists` whether some
    version reaches past it, which is what tells a consistency miss from a
    stale one.  The default, 0, is a window open to all of time: any stored
    version counts.

    Immutable by convention, like :class:`LookupResult`: nothing assigns to
    a field after construction.  Not ``frozen``, which would cost one
    ``object.__setattr__`` per field on every cacheable call.
    """

    key: str
    lo: int
    hi: int
    fresh_lo: int = 0

    # ------------------------------------------------------------------
    # Binary wire codec (see repro.comm.wire)
    # ------------------------------------------------------------------
    def pack_into(self, out: bytearray) -> None:
        """Append the fixed little-endian encoding of this request."""
        try:
            raw = self.key.encode("utf-8")
        except UnicodeEncodeError:
            raw = self.key.encode("utf-8", "surrogatepass")
        size = len(raw)
        if size < 255:
            out.append(size)
        else:
            out.append(255)
            out += _KEYLEN.pack(size)
        out += raw
        out += _LO_HI_FRESH.pack(self.lo, self.hi, self.fresh_lo)

    @classmethod
    def unpack_from(cls, buf: bytes, offset: int) -> Tuple["LookupRequest", int]:
        keylen = buf[offset]
        offset += 1
        if keylen == 255:
            (keylen,) = _unpack_keylen(buf, offset)
            offset += 4
        end = offset + keylen
        raw = buf[offset:end]
        try:
            key = raw.decode("utf-8")
        except UnicodeDecodeError:
            key = raw.decode("utf-8", "surrogatepass")
        lo, hi, fresh_lo = _unpack_lo_hi_fresh(buf, end)
        request = _new(cls)
        request.key = key
        request.lo = lo
        request.hi = hi
        request.fresh_lo = fresh_lo
        return request, end + 24

    # A batch is :meth:`pack_into` / :meth:`unpack_from` over a list, each
    # record behind the codec's ``tag`` byte, unrolled into one call: the
    # bytes are the generic walk's (``tests/test_wire_binary.py`` compares).
    @classmethod
    def pack_batch_into(cls, out: bytearray, requests: list, tag: int) -> bool:
        """Append ``tag`` and the record of each request, in order.

        False at the first item that is not exactly a :class:`LookupRequest`,
        with the records before it already appended.
        """
        append = out.append
        pack = _LO_HI_FRESH.pack
        for request in requests:
            if type(request) is not cls:
                return False
            key = request.key
            try:
                raw = key.encode("utf-8")
            except UnicodeEncodeError:
                raw = key.encode("utf-8", "surrogatepass")
            size = len(raw)
            append(tag)
            if size < 255:
                append(size)
            else:
                append(255)
                out += _KEYLEN.pack(size)
            out += raw
            out += pack(request.lo, request.hi, request.fresh_lo)
        return True

    @classmethod
    def unpack_batch_from(
        cls, buf: bytes, offset: int, count: int, tag: int
    ) -> Tuple[Optional[list], int]:
        """``count`` records, each behind ``tag``, from ``offset``.

        ``(None, offset)`` at the first item behind another tag.  Truncated
        input raises as :meth:`unpack_from` does.
        """
        requests = []
        add = requests.append
        for _ in range(count):
            if buf[offset] != tag:
                return None, offset
            keylen = buf[offset + 1]
            offset += 2
            if keylen == 255:
                (keylen,) = _unpack_keylen(buf, offset)
                offset += 4
            end = offset + keylen
            raw = buf[offset:end]
            try:
                key = raw.decode("utf-8")
            except UnicodeDecodeError:
                key = raw.decode("utf-8", "surrogatepass")
            lo, hi, fresh_lo = _unpack_lo_hi_fresh(buf, end)
            request = _new(cls)
            request.key = key
            request.lo = lo
            request.hi = hi
            request.fresh_lo = fresh_lo
            add(request)
            offset = end + 24
        return requests, offset


@dataclass(**DATACLASS_SLOTS)
class LookupResult:
    """Outcome of a cache lookup.

    Slotted (with the other wire-crossing records above) where the
    interpreter supports it: lookup results are created once per cacheable
    call and pickled across the socket transports, so skipping the
    per-instance ``__dict__`` pays on both allocation and codec time.  For
    the same reason not ``frozen``: immutability is a convention — only
    the decoder that builds a result fills in its fields.
    """

    hit: bool
    key: str
    value: Any = None
    #: Effective validity interval of the returned entry: for a still-valid
    #: entry the upper bound reflects only invalidations processed so far,
    #: which is what the transaction's pin set may safely be narrowed to.
    interval: Optional[Interval] = None
    #: The entry's stored validity interval (unbounded for still-valid
    #: entries); used when propagating dependencies to enclosing cacheable
    #: functions.
    raw_interval: Optional[Interval] = None
    #: Invalidation tags of the returned entry (still-valid entries only).
    tags: Tuple[InvalidationTag, ...] = ()
    #: True if the key has ever been stored on the contacted server; used by
    #: the client library to classify misses (compulsory vs other).
    key_ever_stored: bool = False
    #: Set on a miss only: True if some stored version's effective interval
    #: reaches past the request's ``fresh_lo`` (the transaction's staleness
    #: window) although none intersects ``[lo, hi]`` — the same answer as
    #: ``probe(key, fresh_lo, FAR_FUTURE)``.  The client library reads it to
    #: tell a consistency miss (fresh enough, but not for this pin set) from
    #: a stale one.
    fresh_version_exists: bool = False
    #: True if this result is a synthetic miss produced because the
    #: responsible cache node was unreachable (failure-aware routing degraded
    #: the lookup instead of raising); such misses are classified separately.
    degraded: bool = False

    # ------------------------------------------------------------------
    # Binary wire codec (see repro.comm.wire)
    # ------------------------------------------------------------------
    def pack_into(self, out: bytearray, enc_value: Callable[[bytearray, Any], None]) -> None:
        """Append flags, has-tags byte, key, packed bounds, tags, value."""
        flags = 0
        if self.hit:
            flags |= _F_HIT
        if self.key_ever_stored:
            flags |= _F_EVER_STORED
        if self.fresh_version_exists:
            flags |= _F_FRESH_EXISTS
        if self.degraded:
            flags |= _F_DEGRADED
        interval = self.interval
        raw_interval = self.raw_interval
        tags = self.tags
        bounds: tuple = ()
        if interval is not None:
            flags |= _F_HAS_INTERVAL
            hi = interval.hi
            if hi is None:
                flags |= _F_INTERVAL_UNBOUNDED
                bounds = (interval.lo,)
            else:
                bounds = (interval.lo, hi)
        if raw_interval is not None:
            flags |= _F_HAS_RAW
            hi = raw_interval.hi
            if hi is None:
                flags |= _F_RAW_UNBOUNDED
                bounds += (raw_interval.lo,)
            else:
                bounds += (raw_interval.lo, hi)
        append = out.append
        append(flags)
        # Tag count as one byte (255 escapes to a u32): nearly every hit
        # carries a handful of tags, so the count never needs four bytes —
        # or the struct call that packing them would cost.
        count = len(tags)
        if count < 255:
            append(count)
        else:
            append(255)
            out += _COUNT.pack(count)
        try:
            raw = self.key.encode("utf-8")
        except UnicodeEncodeError:
            raw = self.key.encode("utf-8", "surrogatepass")
        size = len(raw)
        if size < 255:
            append(size)
        else:
            append(255)
            out += _KEYLEN.pack(size)
        out += raw
        if bounds:
            out += _QS_PACK[len(bounds)](*bounds)
        if count:
            for tag in tags:
                enc_value(out, tag)
        enc_value(out, self.value)

    @classmethod
    def unpack_from(
        cls,
        buf: bytes,
        offset: int,
        dec_value: Callable[[bytes, int], Tuple[Any, int]],
    ) -> Tuple["LookupResult", int]:
        flags = buf[offset]
        tag_count = buf[offset + 1]
        offset += 2
        if tag_count == 255:
            (tag_count,) = _COUNT.unpack_from(buf, offset)
            offset += 4
        keylen = buf[offset]
        offset += 1
        if keylen == 255:
            (keylen,) = _unpack_keylen(buf, offset)
            offset += 4
        end = offset + keylen
        raw = buf[offset:end]
        try:
            key = raw.decode("utf-8")
        except UnicodeDecodeError:
            key = raw.decode("utf-8", "surrogatepass")
        offset = end
        interval = None
        raw_interval = None
        if flags & 80:  # _F_HAS_INTERVAL | _F_HAS_RAW
            count = 0
            if flags & 16:
                count = 1 if flags & 32 else 2
            if flags & 64:
                count += 1 if flags & 128 else 2
            bounds = _QS_UNPACK[count](buf, offset)
            offset += count * 8
            index = 0
            # Construction bypasses __init__, so the hi >= lo invariant is
            # re-checked — a malformed frame must not mint an interval the
            # validity algebra would misinterpret.
            if flags & 16:
                lo = bounds[0]
                if flags & 32:
                    hi = None
                    index = 1
                else:
                    hi = bounds[1]
                    if hi < lo:
                        raise ValueError(f"invalid interval: hi={hi} < lo={lo}")
                    index = 2
                interval = _new(Interval)
                interval.lo = lo
                interval.hi = hi
            if flags & 64:
                lo = bounds[index]
                if flags & 128:
                    hi = None
                else:
                    hi = bounds[index + 1]
                    if hi < lo:
                        raise ValueError(f"invalid interval: hi={hi} < lo={lo}")
                if interval is not None and lo == interval.lo and hi == interval.hi:
                    # The server hands out the *same* Interval object as both
                    # the effective and the raw interval of a truncated entry;
                    # pickle's memo preserves that sharing across the wire, so
                    # the binary codec reconstructs it too (transport parity
                    # requires byte-identical re-pickles of results).
                    raw_interval = interval
                else:
                    raw_interval = _new(Interval)
                    raw_interval.lo = lo
                    raw_interval.hi = hi
        tags: Tuple[InvalidationTag, ...] = _EMPTY_TAGS
        if tag_count == 1:
            # One tag is the overwhelmingly common hit shape (one table/
            # column pair invalidates the entry); skip the list round trip.
            tag, offset = dec_value(buf, offset)
            tags = (tag,)
        elif tag_count:
            items = []
            for _ in range(tag_count):
                tag, offset = dec_value(buf, offset)
                items.append(tag)
            tags = tuple(items)
        value, offset = dec_value(buf, offset)
        result = _new(cls)
        result.hit = True if flags & 1 else False
        result.key = key
        result.value = value
        result.interval = interval
        result.raw_interval = raw_interval
        result.tags = tags
        result.key_ever_stored = True if flags & 2 else False
        result.fresh_version_exists = True if flags & 4 else False
        result.degraded = True if flags & 8 else False
        return result, offset
