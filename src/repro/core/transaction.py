"""Per-transaction state kept by the TxCache library.

A read-only transaction carries its pin set, the snapshots it fetched (and
marked in-use) from the pincushion, the lazily started database transaction,
and the stack of *frames* for nested cacheable functions.  Each frame
accumulates the validity intervals and invalidation tags of everything the
function observed; on return, the frame's cumulative interval and tag set
become the cache entry's metadata (paper sections 6.1 and 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro._compat import DATACLASS_SLOTS
from repro.core.pinset import PinSet
from repro.db.invalidation import InvalidationTag
from repro.db.transactions import ReadOnlyTransaction, ReadWriteTransaction
from repro.interval import Interval
from repro.pincushion.pincushion import PinnedSnapshot

__all__ = ["CacheableFrame", "ReadOnlyState", "ReadWriteState"]


class CacheableFrame:
    """Accumulated metadata for one in-flight cacheable function call.

    The cumulative validity is kept as its two bounds (``hi is None``:
    unbounded) while the function runs; :attr:`validity` builds the
    :class:`Interval` once, when it returns.
    """

    __slots__ = ("function_name", "key", "lo", "hi", "tags")

    def __init__(self, function_name: str, key: str) -> None:
        self.function_name = function_name
        self.key = key
        self.lo = 0
        self.hi: Optional[int] = None
        self.tags: Set[InvalidationTag] = set()

    def accumulate(self, interval: Interval, tags=()) -> None:
        """Fold one observed value's validity interval and tags into the frame."""
        if interval.lo > self.lo:
            self.lo = interval.lo
        hi = interval.hi
        if hi is not None and (self.hi is None or hi < self.hi):
            self.hi = hi
        self.tags.update(tags)

    @property
    def validity(self) -> Interval:
        """The intersection of every interval accumulated so far.

        An empty intersection is normalised to ``[lo, lo)``, as
        :meth:`Interval.intersect` normalises it.
        """
        lo, hi = self.lo, self.hi
        if hi is not None and hi < lo:
            hi = lo
        return Interval(lo, hi)


@dataclass(**DATACLASS_SLOTS)
class ReadOnlyState:
    """State of one read-only transaction.

    BEGIN supplies every list, so constructing one runs no default factory.
    """

    staleness: float
    pin_set: PinSet
    #: bounds of the pin set at BEGIN, before any narrowing.  Used to
    #: classify consistency misses: a miss is a consistency miss if a lookup
    #: over these original bounds would have hit.
    initial_bounds: Optional[tuple]
    #: the pincushion rows whose in-use count this transaction bumped,
    #: handed back to ``Pincushion.release`` as they are.
    held: List[PinnedSnapshot]
    #: stack of in-flight cacheable function frames (innermost last).
    frames: List[CacheableFrame]
    #: lazily created database read-only transaction (None until the first
    #: database query forces a timestamp choice).
    db_transaction: Optional[ReadOnlyTransaction] = None
    #: the timestamp chosen for database queries, once reified.
    chosen_timestamp: Optional[int] = None

    @property
    def read_only(self) -> bool:
        return True

    def accumulate_into_frames(self, interval: Interval, tags=()) -> None:
        """Fold an observed value into every frame on the call stack.

        The value was observed while each of these functions was executing,
        so each of their results now depends on it (paper section 6.3).
        """
        for frame in self.frames:
            frame.accumulate(interval, tags)


@dataclass
class ReadWriteState:
    """State of one read/write transaction (a thin wrapper around the DB's)."""

    db_transaction: ReadWriteTransaction

    @property
    def read_only(self) -> bool:
        return False
