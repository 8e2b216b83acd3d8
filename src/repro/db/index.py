"""Secondary indexes over tuple versions.

Indexes map column values to tuple *versions* (not logical rows).  The query
executor uses them as access methods: an index equality lookup yields every
version whose indexed column equals the search key, and the executor then
applies the snapshot visibility check.  Versions that match the key but fail
the visibility check feed the invalidity mask (phantom tracking, paper
section 5.2), which is why indexes deliberately return invisible versions as
well.

Two kinds are provided, matching the paper's access-method taxonomy:

* :class:`HashIndex` — equality lookups only; produces precise
  ``TABLE:KEY`` invalidation tags.
* :class:`OrderedIndex` — also supports range scans; range scans produce
  wildcard ``TABLE:?`` tags because the set of keys they depend on is open.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.db.errors import ConstraintError
from repro.db.schema import IndexSpec
from repro.db.tuples import TupleVersion, UncommittedMark

__all__ = ["HashIndex", "OrderedIndex", "build_index"]


class HashIndex:
    """Equality-only index from column value to tuple versions.

    ``_buckets`` maps a key to its one version, or to a list of its
    versions, oldest first, once it has a second, as ``Table._rows`` does
    for a row: most keys never get one.  A list never turns back into a
    lone version.  Writers and vacuum change the buckets under
    :attr:`_lock`; readers take no lock (see "Storage concurrency" in
    :mod:`repro.db.database`).
    """

    def __init__(self, spec: IndexSpec, position: int) -> None:
        self.spec = spec
        #: Where the indexed column sits in a version's values; the table
        #: that owns the index hands it over.
        self.position = position
        self.unique = spec.unique
        #: key -> its one version, or a list of its versions, oldest first.
        self._buckets: Dict[Any, Union[TupleVersion, List[TupleVersion]]] = {}
        #: Keys of a unique index whose bucket has held versions of more
        #: than one row (a deleted key inserted again).  Every other bucket
        #: of a unique index holds one row's versions, oldest first.
        self._mixed: Set[Any] = set()
        #: Held by every change to ``_buckets``, ``_mixed`` and an ordered
        #: index's sorted keys.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def key_of(self, version: TupleVersion) -> Any:
        """The indexed column's value in ``version``."""
        return version.values[self.position]

    def insert(self, version: TupleVersion) -> bool:
        """Index a newly created tuple version; True if its key was new.

        A unique index refuses a second *current* row for one key: a version
        no transaction deleted, or one deleted by a transaction still in
        flight other than the inserting one (that delete may yet abort).
        """
        key = version.values[self.position]  # key_of, inline: a load runs this per index per row
        buckets = self._buckets
        # acquire/release rather than ``with`` (here and in ``remove``): half
        # the cost, paid once per index per stored version.
        lock = self._lock
        lock.acquire()
        try:
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = version
                self._key_added(key)
                return True
            lone = type(bucket) is not list
            first = bucket if lone else bucket[0]
            if self.unique and (key in self._mixed or first.row_id != version.row_id):
                # A bucket of this row's own versions cannot conflict: an update.
                inserter = version.xmin
                for existing in (bucket,) if lone else bucket:
                    xmax = existing.xmax
                    if existing.row_id != version.row_id and (
                        xmax is None or (type(xmax) is UncommittedMark and xmax != inserter)
                    ):
                        raise ConstraintError(
                            f"unique index {self.spec.name} violated for key {key!r}"
                        )
                # Marked before the version is published.
                self._mixed.add(key)
            if lone:
                buckets[key] = [bucket, version]
            else:
                bucket.append(version)
            return False
        finally:
            lock.release()

    def remove(self, version: TupleVersion) -> bool:
        """Drop a version (called by vacuum once it is dead to all snapshots,
        and by an abort); True if that emptied and deleted its key's bucket."""
        key = self.key_of(version)
        buckets = self._buckets
        lock = self._lock
        lock.acquire()
        try:
            bucket = buckets.get(key)
            if type(bucket) is list:
                try:
                    bucket.remove(version)
                except ValueError:
                    return False
                if bucket:
                    return False
            elif bucket is not version:
                return False
            del buckets[key]
            self._mixed.discard(key)
            self._key_removed(key)
            return True
        finally:
            lock.release()

    def _key_added(self, key: Any) -> None:
        """A bucket for ``key`` was created (called under :attr:`_lock`)."""

    def _key_removed(self, key: Any) -> None:
        """``key``'s bucket was deleted (called under :attr:`_lock`)."""

    # ------------------------------------------------------------------
    # Access methods
    # ------------------------------------------------------------------
    def lookup(self, key: Any) -> List[TupleVersion]:
        """All versions (visible or not) whose indexed column equals ``key``."""
        bucket = self._buckets.get(key)
        if bucket is None:
            return []
        return bucket[:] if type(bucket) is list else [bucket]

    def walk(self, key: Any) -> Tuple[List[TupleVersion], bool]:
        """``lookup(key)`` in the order a scan visits it, and whether that
        order is one row's versions newest first.

        It is, on a unique index, unless the bucket has held a second row;
        otherwise the versions come oldest first.
        """
        bucket = self._buckets.get(key)
        if bucket is None:
            return [], False
        if type(bucket) is not list:
            return [bucket], self.unique
        if self.unique:
            versions = bucket[::-1]
            if key not in self._mixed:  # after the copy: see "Storage concurrency" in database.py
                return versions, True
        return bucket[:], False

    def keys(self) -> Iterator[Any]:
        """Iterate over distinct indexed keys."""
        return iter(list(self._buckets))

    def __len__(self) -> int:
        return sum(
            len(bucket) if type(bucket) is list else 1
            for bucket in list(self._buckets.values())
        )


class OrderedIndex(HashIndex):
    """Index supporting both equality lookups and range scans.

    Implemented as a hash index plus a sorted key list maintained with
    ``bisect``: a key enters the list exactly when an insert created its
    bucket, and leaves exactly when a remove deleted it, under the same
    hold of the index's lock.
    """

    def __init__(self, spec: IndexSpec, position: int) -> None:
        super().__init__(spec, position)
        self._sorted_keys: List[Any] = []

    def _key_added(self, key: Any) -> None:
        bisect.insort(self._sorted_keys, _orderable(key))

    def _key_removed(self, key: Any) -> None:
        self._sorted_keys.remove(_orderable(key))

    def range_scan(
        self,
        lo: Optional[Any] = None,
        hi: Optional[Any] = None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> Iterable[TupleVersion]:
        """Yield versions whose indexed key falls in ``[lo, hi]``.

        ``None`` bounds are open.  Versions are yielded in key order.
        """
        keys = self._sorted_keys[:]
        start = 0
        if lo is not None:
            olo = _orderable(lo)
            start = bisect.bisect_left(keys, olo) if lo_inclusive else bisect.bisect_right(keys, olo)
        end = len(keys)
        if hi is not None:
            ohi = _orderable(hi)
            end = bisect.bisect_right(keys, ohi) if hi_inclusive else bisect.bisect_left(keys, ohi)
        buckets = self._buckets
        for orderable_key in keys[start:end]:
            key = orderable_key.value if isinstance(orderable_key, _NoneLow) else orderable_key
            bucket = buckets.get(key)
            if type(bucket) is list:
                yield from bucket[:]
            elif bucket is not None:
                yield bucket


class _NoneLow:
    """Wrapper ordering ``None`` keys below everything else."""

    __slots__ = ("value",)

    def __init__(self, value: Any = None) -> None:
        self.value = value

    def __lt__(self, other: object) -> bool:
        return not isinstance(other, _NoneLow)

    def __gt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return True

    def __ge__(self, other: object) -> bool:
        return isinstance(other, _NoneLow)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _NoneLow)

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash(None)


def _orderable(key: Any) -> Any:
    """Map ``None`` keys onto a totally ordered sentinel."""
    return _NoneLow() if key is None else key


def build_index(spec: IndexSpec, position: int) -> HashIndex:
    """Construct the right index implementation for ``spec``, over the
    column at ``position`` of a version's values."""
    return OrderedIndex(spec, position) if spec.ordered else HashIndex(spec, position)
