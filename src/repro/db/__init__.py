"""Multiversion relational database substrate.

This package reproduces the database-side support TxCache requires
(paper section 5):

* multiversion storage with snapshot isolation, so read-only transactions can
  run against slightly stale *pinned* snapshots (``PIN`` / ``UNPIN`` /
  ``BEGIN SNAPSHOTID`` in the paper's modified PostgreSQL);
* a small structured query model (:mod:`repro.db.query`): a select over an
  ``Eq``, an ``And`` of ``Eq``s or every row, with an optional ordering and
  limit, and a ``count`` or ``max`` over one;
* per-query *validity intervals*, computed as the intersection of the
  validity times of the returned tuples minus an *invalidity mask* built from
  tuples that matched the query predicate but failed the visibility check;
* *invalidation tags* derived from the access methods in the query plan
  (``TABLE:KEY`` for index equality lookups, ``TABLE:?`` wildcards for scans)
  and, at update time, from the indexes each modified tuple appears in;
* an ordered *invalidation stream* published at commit time.

The public entry point is :class:`repro.db.database.Database`.
"""

from repro.db.database import Database, DatabaseStats
from repro.db.errors import (
    ConstraintError,
    DatabaseError,
    SerializationError,
    SnapshotTooOldError,
    UnknownIndexError,
    UnknownTableError,
)
from repro.db.executor import QueryResult
from repro.db.invalidation import InvalidationTag
from repro.db.query import Aggregate, And, Eq, Select, TruePredicate
from repro.db.schema import Column, IndexSpec, TableSchema
from repro.db.transactions import ReadOnlyTransaction, ReadWriteTransaction

__all__ = [
    "Database",
    "DatabaseStats",
    "DatabaseError",
    "SerializationError",
    "SnapshotTooOldError",
    "ConstraintError",
    "UnknownTableError",
    "UnknownIndexError",
    "QueryResult",
    "InvalidationTag",
    "Select",
    "Aggregate",
    "Eq",
    "And",
    "TruePredicate",
    "Column",
    "TableSchema",
    "IndexSpec",
    "ReadOnlyTransaction",
    "ReadWriteTransaction",
]
