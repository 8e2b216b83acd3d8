"""Validity intervals and interval sets.

TxCache tags every cached value and every database query result with a
*validity interval*: the range of (logical commit) timestamps over which the
value is the correct answer.  The lower bound is the commit timestamp of the
transaction that made the value current; the upper bound is the commit
timestamp of the first later transaction that changed it, or unbounded if the
value is still current (paper section 4.1).

Timestamps in this implementation are integer logical commit timestamps
assigned by the database (:class:`repro.db.database.Database`).  An interval
``Interval(lo, hi)`` covers the timestamps ``lo <= t < hi``; ``hi is None``
means the interval is unbounded on the right (the value is still valid).

:class:`IntervalSet` is a union of disjoint intervals.  It is used for the
*invalidity mask* of a query (paper section 5.2): the union of the validity
intervals of all tuples that matched the query predicate but failed the
snapshot visibility check (phantoms).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro._compat import DATACLASS_SLOTS

__all__ = ["Interval", "IntervalSet", "UNBOUNDED"]

#: Sentinel meaning "no upper bound" (the value is still valid).
UNBOUNDED: Optional[int] = None

# Binary wire layout of one interval: a bounded-flag byte, the i64 lower
# bound, and (bounded intervals only) the i64 upper bound.
_BOUNDED_LO = struct.Struct("<Bq")
_BOUNDED_LO_HI = struct.Struct("<Bqq")
_LO_HI = struct.Struct("<qq")


@dataclass(unsafe_hash=True, **DATACLASS_SLOTS)
class Interval:
    """A half-open validity interval ``[lo, hi)`` of logical timestamps.

    ``hi is None`` denotes an unbounded interval (still valid).  Intervals
    are immutable by convention: all operations return new intervals, and
    nothing assigns to ``lo`` or ``hi`` after construction — which is what
    makes the value hash (equal intervals hash equal) safe.  Not
    ``frozen``: a frozen dataclass pays one ``object.__setattr__`` per
    field, and one hit builds an interval.  Slotted on interpreters that
    support it: every cached value and every wire frame carries intervals,
    so skipping the per-instance ``__dict__`` roughly halves the record
    footprint and buys a few percent on construction and attribute reads
    (measured in ``benchmarks/test_bench_transport.py``).
    """

    lo: int
    hi: Optional[int] = UNBOUNDED

    def __init__(self, lo: int, hi: Optional[int] = UNBOUNDED) -> None:
        if hi is not None and hi < lo:
            raise ValueError(f"invalid interval: hi={hi} < lo={lo}")
        self.lo = lo
        self.hi = hi

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    @property
    def unbounded(self) -> bool:
        """True if the interval has no upper bound (still valid)."""
        return self.hi is None

    @property
    def empty(self) -> bool:
        """True if the interval contains no timestamps."""
        return self.hi is not None and self.hi <= self.lo

    def contains(self, timestamp: int) -> bool:
        """True if ``timestamp`` lies within the interval."""
        if timestamp < self.lo:
            return False
        return self.hi is None or timestamp < self.hi

    def intersects(self, other: "Interval") -> bool:
        """True if the two intervals share at least one timestamp.

        ``not self.intersect(other).empty``, asked of the bounds in place.
        """
        hi = self.hi
        if hi is None:
            hi = other.hi
        elif other.hi is not None and other.hi < hi:
            hi = other.hi
        return hi is None or (self.lo if self.lo > other.lo else other.lo) < hi

    def contains_interval(self, other: "Interval") -> bool:
        """True if ``other`` lies entirely within this interval."""
        if other.empty:
            return True
        if other.lo < self.lo:
            return False
        if self.hi is None:
            return True
        if other.hi is None:
            return False
        return other.hi <= self.hi

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------
    def intersect(self, other: "Interval") -> "Interval":
        """Return the intersection of the two intervals (possibly empty)."""
        lo = max(self.lo, other.lo)
        if self.hi is None:
            hi = other.hi
        elif other.hi is None:
            hi = self.hi
        else:
            hi = min(self.hi, other.hi)
        if hi is not None and hi < lo:
            hi = lo  # normalized empty interval
        return Interval(lo, hi)

    def union_hull(self, other: "Interval") -> "Interval":
        """Return the smallest interval covering both (not a true union)."""
        lo = min(self.lo, other.lo)
        hi = None if (self.hi is None or other.hi is None) else max(self.hi, other.hi)
        return Interval(lo, hi)

    def truncate(self, timestamp: int) -> "Interval":
        """Return this interval with its upper bound capped at ``timestamp``.

        Used when an invalidation arrives: a still-valid cache entry becomes
        invalid as of the invalidating transaction's commit timestamp.
        """
        if self.hi is not None and self.hi <= timestamp:
            return self
        hi = max(self.lo, timestamp)
        return Interval(self.lo, hi)

    def subtract(self, other: "Interval") -> List["Interval"]:
        """Return this interval minus ``other`` as a list of 0-2 intervals."""
        if other.empty or not self.intersects(other):
            return [] if self.empty else [self]
        pieces: List[Interval] = []
        # Left piece: [self.lo, other.lo)
        if self.lo < other.lo:
            pieces.append(Interval(self.lo, other.lo))
        # Right piece: [other.hi, self.hi)
        if other.hi is not None:
            if self.hi is None or other.hi < self.hi:
                pieces.append(Interval(other.hi, self.hi))
        return pieces

    # ------------------------------------------------------------------
    # Binary wire codec (see repro.comm.wire)
    # ------------------------------------------------------------------
    def pack_into(self, out: bytearray) -> None:
        """Append this interval's fixed little-endian encoding to ``out``."""
        if self.hi is None:
            out += _BOUNDED_LO.pack(0, self.lo)
        else:
            out += _BOUNDED_LO_HI.pack(1, self.lo, self.hi)

    @classmethod
    def unpack_from(cls, buf: bytes, offset: int) -> Tuple["Interval", int]:
        """Decode one interval; returns ``(interval, next_offset)``.

        Construction bypasses ``__init__`` for speed, so the ``hi < lo``
        invariant is re-checked here — a malformed frame must not produce an
        interval the validity algebra would misinterpret.
        """
        if buf[offset]:
            lo, hi = _LO_HI.unpack_from(buf, offset + 1)
            if hi < lo:
                raise ValueError(f"invalid interval: hi={hi} < lo={lo}")
            offset += _BOUNDED_LO_HI.size
        else:
            lo = _BOUNDED_LO.unpack_from(buf, offset)[1]
            hi = None
            offset += _BOUNDED_LO.size
        interval = object.__new__(cls)
        interval.lo = lo
        interval.hi = hi
        return interval, offset

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        hi = "inf" if self.hi is None else str(self.hi)
        return f"[{self.lo}, {hi})"


class IntervalSet:
    """A union of disjoint, sorted intervals.

    Used primarily for the invalidity mask during query execution and for
    bookkeeping of the timestamps covered by the versions of a cache key.
    """

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._intervals: List[Interval] = []
        for interval in intervals:
            self.add(interval)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, interval: Interval) -> None:
        """Add ``interval``, merging it with any overlapping members."""
        if interval.empty:
            return
        merged = interval
        kept: List[Interval] = []
        for existing in self._intervals:
            if _touches(existing, merged):
                merged = existing.union_hull(merged)
            else:
                kept.append(existing)
        kept.append(merged)
        kept.sort(key=lambda iv: iv.lo)
        self._intervals = kept

    def update(self, intervals: Iterable[Interval]) -> None:
        """Add every interval in ``intervals``."""
        for interval in intervals:
            self.add(interval)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __bool__(self) -> bool:
        return bool(self._intervals)

    @property
    def intervals(self) -> List[Interval]:
        """The disjoint member intervals, sorted by lower bound."""
        return list(self._intervals)

    def contains(self, timestamp: int) -> bool:
        """True if any member interval contains ``timestamp``."""
        return any(iv.contains(timestamp) for iv in self._intervals)

    def intersects(self, interval: Interval) -> bool:
        """True if any member interval intersects ``interval``."""
        return any(iv.intersects(interval) for iv in self._intervals)

    def subtract_from(self, interval: Interval) -> List[Interval]:
        """Return ``interval`` minus every member of this set."""
        pieces = [interval] if not interval.empty else []
        for mask in self._intervals:
            next_pieces: List[Interval] = []
            for piece in pieces:
                next_pieces.extend(piece.subtract(mask))
            pieces = next_pieces
            if not pieces:
                break
        return pieces

    def piece_containing(self, interval: Interval, timestamp: int) -> Interval:
        """Return the piece of ``interval - self`` that contains ``timestamp``.

        This is how the final validity interval of a query is derived: the
        result tuple validity minus the invalidity mask, restricted to the
        contiguous piece that includes the query's snapshot timestamp (the
        query result is known to be correct at that timestamp).
        """
        for piece in self.subtract_from(interval):
            if piece.contains(timestamp):
                return piece
        raise ValueError(
            f"timestamp {timestamp} not in {interval!r} minus mask {self._intervals!r}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntervalSet({self._intervals!r})"


def _touches(a: Interval, b: Interval) -> bool:
    """True if the intervals overlap or are adjacent (can be merged)."""
    a_hi = a.hi if a.hi is not None else float("inf")
    b_hi = b.hi if b.hi is not None else float("inf")
    return a.lo <= b_hi and b.lo <= a_hi
