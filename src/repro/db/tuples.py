"""Tuple versions and snapshot visibility.

The storage engine is *no-overwrite* (like the POSTGRES storage manager the
paper builds on): every update creates a new :class:`TupleVersion` and marks
the old one deleted.  Each version carries the commit timestamp of its
creating transaction (``xmin``) and, once superseded or deleted, the commit
timestamp of the deleting transaction (``xmax``).  A version is visible to a
snapshot taken at logical timestamp ``ts`` if it was created at or before
``ts`` and not deleted at or before ``ts``.

Versions created or deleted by an in-flight read/write transaction carry an
:class:`UncommittedMark` instead of a timestamp; such versions are visible
only to the owning transaction, mirroring how PostgreSQL treats uncommitted
tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional, Tuple, Union

from repro._compat import DATACLASS_SLOTS
from repro.interval import Interval

__all__ = ["UncommittedMark", "TupleVersion", "visible_at", "validity_of"]

_mark_counter = itertools.count(1)


@dataclass(frozen=True)
class UncommittedMark:
    """Placeholder for an xmin/xmax set by a not-yet-committed transaction."""

    tx_id: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<uncommitted tx {self.tx_id}>"


Stamp = Union[int, UncommittedMark]


@dataclass(**DATACLASS_SLOTS)
class TupleVersion:
    """One version of a logical row.

    A row's identity is its primary-key value: its versions are the ones
    its table's primary-key index holds under that value (see
    :class:`repro.db.table.Table`).

    Attributes:
        values: this version's values, one per column in its table's
            schema order (see :class:`repro.db.table.Table`, the one
            module that maps a column name to its position).
        xmin: commit timestamp of the creating transaction (or an
            :class:`UncommittedMark` while that transaction is in flight).
        xmax: commit timestamp of the deleting/superseding transaction,
            ``None`` while the version is current.
    """

    values: Tuple[Any, ...]
    xmin: Stamp
    xmax: Optional[Stamp] = None

    def is_current(self) -> bool:
        """True if no committed or pending transaction has deleted it."""
        return self.xmax is None

    def created_by(self, tx_id: int) -> bool:
        """True if this version was created by the given in-flight transaction."""
        return isinstance(self.xmin, UncommittedMark) and self.xmin.tx_id == tx_id

    def deleted_by(self, tx_id: int) -> bool:
        """True if this version was deleted by the given in-flight transaction."""
        return isinstance(self.xmax, UncommittedMark) and self.xmax.tx_id == tx_id


def visible_at(version: TupleVersion, timestamp: int, tx_id: Optional[int] = None) -> bool:
    """Snapshot visibility check.

    A version is visible at ``timestamp`` if its creating transaction
    committed at or before ``timestamp`` and it has not been deleted by a
    transaction that committed at or before ``timestamp``.  When ``tx_id`` is
    given (a read/write transaction reading its own writes), versions created
    by that transaction are visible and versions it deleted are not.
    """
    xmin = version.xmin
    if isinstance(xmin, UncommittedMark):
        if tx_id is None or xmin.tx_id != tx_id:
            return False
    elif xmin > timestamp:
        return False

    xmax = version.xmax
    if xmax is None:
        return True
    if isinstance(xmax, UncommittedMark):
        # Deleted by an in-flight transaction: invisible only to that
        # transaction itself; other snapshots still see the old version.
        return not (tx_id is not None and xmax.tx_id == tx_id)
    return xmax > timestamp


def validity_of(version: TupleVersion) -> Optional[Interval]:
    """Return the committed validity interval of a version.

    Returns ``None`` if the version's creation has not committed yet (its
    validity is unknown and it must not contribute to validity tracking).
    An uncommitted deletion leaves the interval unbounded, since the deletion
    is not yet visible to anyone else.
    """
    if isinstance(version.xmin, UncommittedMark):
        return None
    hi = version.xmax if not isinstance(version.xmax, UncommittedMark) else None
    return Interval(version.xmin, hi)


def next_uncommitted_mark_id() -> int:
    """Allocate a unique id for an in-flight read/write transaction."""
    return next(_mark_counter)
