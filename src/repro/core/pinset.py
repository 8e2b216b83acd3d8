"""Pin sets: the state behind lazy timestamp selection (paper section 6.2).

A read-only transaction's *pin set* is the set of timestamps at which the
transaction can still be serialized.  It starts as the set of all
sufficiently fresh pinned snapshots plus the special element ``?`` (rendered
here as :data:`STAR`), meaning "the transaction could also run in the
present, on a newly pinned snapshot".  Every time the transaction observes a
cached value or a database query result, the pin set is intersected with that
value's validity interval; once any data has been observed the transaction
can no longer run on an arbitrary new snapshot, so ``?`` is removed.

Two invariants (paper section 6.2.1) govern the pin set:

* **Invariant 1** — everything the transaction has seen is consistent with
  the database state at every timestamp in the pin set.
* **Invariant 2** — the pin set is never empty.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import FrozenSet, Iterable, List, Optional, Tuple

from repro.core.exceptions import EmptyPinSetError
from repro.interval import Interval

__all__ = ["STAR", "PinSet"]


class _Star:
    """Singleton sentinel for the ``?`` element of a pin set."""

    _instance: Optional["_Star"] = None

    def __new__(cls) -> "_Star":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "?"


#: The special pin-set element meaning "run in the present on a new snapshot".
STAR = _Star()


class PinSet:
    """The set of timestamps at which a transaction may be serialized.

    Held as one ascending list of distinct ints, so the bounds are its two
    ends and the survivors of a validity interval are one slice of it.  The
    constructor puts any iterable into that form; :meth:`from_ascending`
    adopts a list that is in it already — the pincushion hands a BEGIN its
    pins in id order — and costs nothing per timestamp.
    """

    __slots__ = ("_timestamps", "_star")

    def __init__(self, timestamps: Iterable[int] = (), star: bool = True) -> None:
        self._timestamps: List[int] = sorted({int(t) for t in timestamps})
        self._star = bool(star)
        if not self._timestamps and not self._star:
            raise EmptyPinSetError("a pin set must start with at least one element")

    @classmethod
    def from_ascending(cls, timestamps: List[int]) -> "PinSet":
        """The pin set of ``timestamps`` and ``?``.

        ``timestamps`` must be ints, ascending and distinct, and becomes the
        set's own list: the caller keeps no use of it.
        """
        pin_set = cls.__new__(cls)
        pin_set._timestamps = timestamps
        pin_set._star = True
        return pin_set

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def timestamps(self) -> FrozenSet[int]:
        """The concrete pinned-snapshot timestamps currently in the set."""
        return frozenset(self._timestamps)

    @property
    def has_star(self) -> bool:
        """True while the transaction may still run on a new snapshot."""
        return self._star

    @property
    def empty(self) -> bool:
        """True if the pin set has neither timestamps nor ``?``."""
        return not self._timestamps and not self._star

    def __len__(self) -> int:
        return len(self._timestamps) + (1 if self._star else 0)

    def __contains__(self, element: object) -> bool:
        if element is STAR:
            return self._star
        return element in self._timestamps

    def bounds(self) -> Optional[Tuple[int, int]]:
        """Lowest and highest concrete timestamps, or ``None`` if only ``?``.

        These bounds are what the library sends with a cache LOOKUP: any
        cached value whose validity interval overlaps them keeps the
        transaction serializable at one or more timestamps.
        """
        timestamps = self._timestamps
        return (timestamps[0], timestamps[-1]) if timestamps else None

    def most_recent(self) -> Optional[int]:
        """The highest concrete timestamp, or ``None`` if only ``?``."""
        return self._timestamps[-1] if self._timestamps else None

    def sorted_timestamps(self) -> List[int]:
        """All concrete timestamps, ascending."""
        return list(self._timestamps)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def remove_star(self) -> None:
        """Drop ``?``: the transaction has observed data and can no longer
        run on an arbitrary new snapshot."""
        if self._star and not self._timestamps:
            raise EmptyPinSetError("removing ? would empty the pin set")
        self._star = False

    def choose(self, timestamp: int) -> None:
        """Collapse the set to ``timestamp``: the database is being asked there.

        ``timestamp`` must be a member, or ``?`` must still be available to
        stand for it (a newly pinned snapshot) — anything else would break
        invariant 1, and raises :class:`EmptyPinSetError`.
        """
        if not self._star and timestamp not in self._timestamps:
            raise EmptyPinSetError(
                f"{timestamp} is not a serialization point of pin set {self._timestamps}"
            )
        self._timestamps = [int(timestamp)]
        self._star = False

    def restrict(self, interval: Interval) -> None:
        """Intersect the pin set with a validity interval.

        Removes every timestamp outside ``interval`` and drops ``?`` (the
        observed value need not be valid at a future new snapshot).  Raises
        :class:`EmptyPinSetError` if the restriction would empty the set —
        callers that treat that case as a cache miss use :meth:`narrow`.
        """
        if not self.narrow(interval):
            raise EmptyPinSetError(
                f"restricting pin set {self._timestamps} to {interval!r} "
                "would leave no serialization point"
            )

    def narrow(self, interval: Interval) -> bool:
        """:meth:`restrict` if a timestamp would survive it, else nothing.

        Returns whether the pin set was restricted: one pass for a cache
        hit's "is it usable, and if so take it".
        """
        survivors = self._within(interval)
        if not survivors:
            return False
        self._timestamps = survivors
        self._star = False
        return True

    def would_survive(self, interval: Interval) -> bool:
        """True if :meth:`restrict` with ``interval`` would keep a timestamp."""
        return bool(self._within(interval))

    def _within(self, interval: Interval) -> List[int]:
        """The timestamps inside ``interval``: a slice, found by bisection."""
        timestamps = self._timestamps
        start = bisect_left(timestamps, interval.lo)
        if interval.hi is None:
            return timestamps[start:]
        return timestamps[start : bisect_left(timestamps, interval.hi)]

    def copy(self) -> "PinSet":
        """An independent copy (used for what-if checks in tests)."""
        clone = PinSet.from_ascending(list(self._timestamps))
        clone._star = self._star
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        elements = [str(t) for t in self._timestamps]
        if self._star:
            elements.append("?")
        return "PinSet{" + ", ".join(elements) + "}"
