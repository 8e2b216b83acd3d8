"""Secondary indexes over tuple versions.

Indexes map column values to tuple *versions* (not logical rows).  The query
executor uses them as access methods: an index equality lookup yields every
version whose indexed column equals the search key, and the executor then
applies the snapshot visibility check.  Versions that match the key but fail
the visibility check feed the invalidity mask (phantom tracking, paper
section 5.2), which is why indexes deliberately return invisible versions as
well.

There is one kind, :class:`HashIndex`: equality lookups only, which is the
one access path that earns precise ``TABLE:COL=VALUE`` invalidation tags
(paper section 5.3).  Every other read is a sequential scan with a wildcard
``TABLE:?`` tag, so an index that could also walk a key range would tag
nothing more precisely.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.db.errors import ConstraintError
from repro.db.schema import IndexSpec
from repro.db.tuples import TupleVersion, UncommittedMark

__all__ = ["HashIndex"]


class HashIndex:
    """Equality-only index from column value to tuple versions.

    ``_buckets`` maps a key to its one version, or to a list of its
    versions, oldest first, once it has a second: most keys never get one.
    A list never turns back into a lone version.  A table's primary-key
    index is its row store: a row is its key's bucket.  Writers and vacuum
    change the buckets under :attr:`_lock`; readers take no lock (see
    "Storage concurrency" in :mod:`repro.db.database`).
    """

    def __init__(self, spec: IndexSpec, position: int) -> None:
        self.spec = spec
        #: Where the indexed column sits in a version's values; the table
        #: that owns the index hands it over.
        self.position = position
        self.unique = spec.unique
        #: key -> its one version, or a list of its versions, oldest first.
        self._buckets: Dict[Any, Union[TupleVersion, List[TupleVersion]]] = {}
        #: Keys of a unique index whose bucket has taken a version that was
        #: not the next version of a row already under the key (a deleted
        #: key inserted again, or an update that moved a row to the key).
        #: Every other bucket of a unique index holds one row's versions,
        #: oldest first.
        self._mixed: Set[Any] = set()
        #: Held by every change to ``_buckets`` and ``_mixed``.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def key_of(self, version: TupleVersion) -> Any:
        """The indexed column's value in ``version``."""
        return version.values[self.position]

    def insert(self, version: TupleVersion, prior: Optional[TupleVersion] = None) -> None:
        """Index a newly created tuple version.

        ``prior`` is the version ``version`` supersedes (an UPDATE), if any;
        where both carry the same key, ``version`` is the next version of
        the row already under it.  A unique index refuses a second *current*
        row for one key: a version other than ``prior`` that no transaction
        deleted, or one deleted by a transaction still in flight other than
        the inserting one (that delete may yet abort).
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
                return
            lone = type(bucket) is not list
            if self.unique and (
                prior is None or key in self._mixed or prior.values[self.position] != key
            ):
                # A bucket of one row's versions cannot conflict with the
                # row's next version: an update that keeps the key.
                inserter = version.xmin
                for existing in (bucket,) if lone else bucket:
                    xmax = existing.xmax
                    if existing is not prior and (
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
            return True
        finally:
            lock.release()

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

    def versions(self) -> List[TupleVersion]:
        """Every indexed version, key by key, each key's oldest first."""
        versions: List[TupleVersion] = []
        append, extend = versions.append, versions.extend
        for bucket in list(self._buckets.values()):
            if type(bucket) is list:
                extend(bucket)
            else:
                append(bucket)
        return versions

    def keys(self) -> Iterator[Any]:
        """Iterate over distinct indexed keys."""
        return iter(list(self._buckets))

    def key_count(self) -> int:
        """Number of distinct indexed keys."""
        return len(self._buckets)

    def __len__(self) -> int:
        return sum(
            len(bucket) if type(bucket) is list else 1
            for bucket in list(self._buckets.values())
        )
