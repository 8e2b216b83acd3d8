"""Query execution with validity-interval tracking.

This module implements the core of the paper's database modification
(section 5.2): every query result is returned together with its *validity
interval* — the range of logical timestamps over which the result would be
identical — and the set of invalidation tags describing its dependencies.

The validity interval is computed from two pieces:

* the **result tuple validity**: the intersection of the validity intervals
  of every tuple returned (each version knows the commit timestamps that
  created and superseded it);
* the **invalidity mask**: the union of the validity intervals of tuples
  that matched the query predicate but failed the snapshot visibility check
  (phantoms — tuples that *would* have appeared had the query run at a
  different time).

The final interval is the contiguous piece of ``result tuple validity minus
invalidity mask`` containing the query's snapshot timestamp.

Like the paper's modified PostgreSQL, the executor evaluates the query
predicate *before* the visibility check during scans, so the invalidity mask
only accumulates tuples that actually affect this query, keeping validity
intervals as wide as possible.  Setting ``track_validity=False`` reproduces
the stock-database behaviour for the overhead experiment (section 8.1).

What the scan keeps
-------------------
Both pieces are kept as integers, because that is all the final interval is
ever asked.  A version joins the mask only if its validity interval does
*not* contain the snapshot timestamp ``ts``, so every member lies wholly
below ``ts`` or wholly above it, and the piece of ``validity minus mask``
around ``ts`` is bounded by the nearest member edge on each side: the
greatest upper bound below (``floor``) and the least lower bound above
(``ceil``).  How the members overlap, merge or sort cannot matter, so no
member is ever stored.  :meth:`Executor._scan` reads each version's
``xmin``/``xmax`` once and decides visibility and committed bounds from that
one pair; :meth:`Executor.execute` builds the query's one
:class:`~repro.interval.Interval`.

The *definitions* stay where they were and are what the tests hold this
module to: :func:`repro.db.tuples.visible_at` (visibility),
:func:`repro.db.tuples.validity_of` (a version's committed interval) and
:meth:`repro.interval.IntervalSet.piece_containing` (validity minus mask).
``tests/test_db_executor.py`` runs a reference executor written with those
three beside this one over seeded histories and requires equal results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro._compat import DATACLASS_SLOTS
from repro.db.errors import UnknownTableError
from repro.db.invalidation import InvalidationTag
from repro.db.planner import AccessPath, plan_select
from repro.db.query import Aggregate, Predicate, Query, Select
from repro.db.table import Table
from repro.db.tuples import TupleVersion, UncommittedMark
from repro.interval import Interval

__all__ = ["QueryResult", "Executor", "ExecutorStats"]


@dataclass(**DATACLASS_SLOTS)
class QueryResult:
    """The rows of a query plus its consistency metadata.

    Attributes:
        rows: result rows (dicts).
        validity: validity interval of the result (always contains the
            query's snapshot timestamp).
        tags: invalidation tags describing the query's dependencies.
        timestamp: snapshot timestamp the query ran at.
        examined: number of tuple versions the scan visited (used by the
            benchmark cost model to approximate I/O and CPU work).
        access_methods: access-method kinds used, for diagnostics.
    """

    rows: List[Dict[str, Any]]
    validity: Interval
    tags: FrozenSet[InvalidationTag]
    timestamp: int
    examined: int = 0
    access_methods: tuple = ()

    @property
    def still_valid(self) -> bool:
        """True if the result was current as of the query (unbounded interval)."""
        return self.validity.unbounded

    def scalar(self) -> Any:
        """Return the single value of a one-row, one-column result."""
        if len(self.rows) != 1:
            raise ValueError(f"scalar() on a result with {len(self.rows)} rows")
        row = self.rows[0]
        if len(row) != 1:
            raise ValueError(f"scalar() on a row with {len(row)} columns")
        return next(iter(row.values()))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


@dataclass
class ExecutorStats:
    """Counters describing executor work (reset-able)."""

    queries: int = 0
    tuples_examined: int = 0
    rows_returned: int = 0
    seq_scans: int = 0
    index_lookups: int = 0

    def reset(self) -> None:
        self.queries = 0
        self.tuples_examined = 0
        self.rows_returned = 0
        self.seq_scans = 0
        self.index_lookups = 0


class _Accumulator:
    """Mutable validity/tag accumulator of one query.

    ``[lo, hi)`` is the result tuple validity (``hi is None``: unbounded).
    ``floor`` and ``ceil`` are the invalidity mask (see the module
    docstring): the greatest ``xmax <= ts`` and the least ``xmin > ts`` over
    matching, invisible, committed versions; 0 and ``None`` while there is
    none on that side.
    """

    __slots__ = ("lo", "hi", "floor", "ceil", "tags", "examined", "access_methods")

    def __init__(self) -> None:
        self.lo = 0
        self.hi: Optional[int] = None
        self.floor = 0
        self.ceil: Optional[int] = None
        self.tags: Set[InvalidationTag] = set()
        self.examined = 0
        self.access_methods: List[str] = []


class Executor:
    """Executes queries against a table catalog at a snapshot timestamp."""

    def __init__(self, catalog: Dict[str, Table], track_validity: bool = True) -> None:
        self._catalog = catalog
        self.track_validity = track_validity
        self.stats = ExecutorStats()
        #: callables invoked as ``observer(query, result)`` after every query;
        #: the benchmark cost model uses this to attribute database work.
        self._observers: List = []

    def add_observer(self, observer) -> None:
        """Register a callback invoked with ``(query, result)`` per query."""
        self._observers.append(observer)

    def remove_observer(self, observer) -> None:
        """Unregister a previously added observer."""
        if observer in self._observers:
            self._observers.remove(observer)

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def execute(self, query: Query, timestamp: int, tx_id: Optional[int] = None) -> QueryResult:
        """Execute ``query`` at snapshot ``timestamp``.

        ``tx_id`` identifies an in-flight read/write transaction whose own
        uncommitted writes should be visible to it.
        """
        acc = _Accumulator()
        if isinstance(query, Select):
            rows = self._execute_select(query, timestamp, tx_id, acc)
        elif isinstance(query, Aggregate):
            rows = self._execute_aggregate(query, timestamp, tx_id, acc)
        else:
            raise TypeError(f"unsupported query type {type(query).__name__}")

        self.stats.queries += 1
        self.stats.tuples_examined += acc.examined
        self.stats.rows_returned += len(rows)

        if self.track_validity:
            # Result tuple validity minus the mask, around the snapshot.
            lo = acc.lo if acc.lo > acc.floor else acc.floor
            hi = acc.hi
            if acc.ceil is not None and (hi is None or acc.ceil < hi):
                hi = acc.ceil
            if timestamp < lo or (hi is not None and timestamp >= hi):
                raise ValueError(
                    f"timestamp {timestamp} not in result validity "
                    f"[{acc.lo}, {acc.hi}) minus mask (floor {acc.floor}, ceil {acc.ceil})"
                )
            validity = Interval(lo, hi)
            tags = frozenset(acc.tags)
        else:
            validity = Interval(timestamp, None)
            tags = frozenset()
        result = QueryResult(
            rows=rows,
            validity=validity,
            tags=tags,
            timestamp=timestamp,
            examined=acc.examined,
            access_methods=tuple(acc.access_methods),
        )
        for observer in self._observers:
            observer(query, result)
        return result

    # ------------------------------------------------------------------
    # Select
    # ------------------------------------------------------------------
    def _table(self, name: str) -> Table:
        try:
            return self._catalog[name]
        except KeyError:
            raise UnknownTableError(f"unknown table {name!r}") from None

    def _execute_select(
        self,
        select: Select,
        timestamp: int,
        tx_id: Optional[int],
        acc: _Accumulator,
    ) -> List[Dict[str, Any]]:
        table, versions = self._select_versions(select, timestamp, tx_id, acc)
        # Where a row leaves the database it becomes a dict.
        row_of = table.row_of
        return [row_of(version) for version in versions]

    def _select_versions(
        self,
        select: Select,
        timestamp: int,
        tx_id: Optional[int],
        acc: _Accumulator,
    ) -> Tuple[Table, List[TupleVersion]]:
        """The table and the visible versions ``select`` returns, ordered and
        limited as it asks."""
        table = self._table(select.table)
        path = plan_select(select, table)
        kind = path.kind
        acc.access_methods.append(kind)
        self._note_access(kind)
        if self.track_validity:
            acc.tags.update(path.tags())
        versions = self._scan(path, table, select.predicate, timestamp, tx_id, acc)
        if select.order_by is not None or select.limit is not None:
            # An unknown column reads None in every row: the order stays.
            position = table.positions.get(select.order_by)
            if position is None:
                key = None
            else:

                def key(version: TupleVersion) -> Tuple[bool, Any]:
                    value = version.values[position]
                    return (value is None, value)

            versions = self._order_limit(versions, key, select.descending, select.limit)
        return table, versions

    def visible_versions(
        self, table: Table, predicate: Predicate, timestamp: int, tx_id: Optional[int]
    ) -> List[TupleVersion]:
        """The versions an UPDATE/DELETE targets, found the way SELECT finds rows.

        Candidates come from the planner's access path (an index lookup when
        the predicate allows, a sequential scan otherwise), so an indexed
        statement pays nothing for dead versions of other rows kept for
        stale snapshots.
        The list is complete before the caller adds or claims any version.
        Not a query: it counts in no statistic and tracks no validity.
        """
        path = plan_select(Select(table.name, predicate), table)
        return self._scan(path, table, predicate, timestamp, tx_id, None)

    def _scan(
        self,
        path: AccessPath,
        table: Table,
        predicate: Predicate,
        timestamp: int,
        tx_id: Optional[int],
        acc: Optional[_Accumulator],
    ) -> List[TupleVersion]:
        """The candidates of ``path`` that match and are visible, in path order.

        The one place the executor decides visibility.  With an accumulator
        it also counts the versions examined and, when validity is tracked,
        folds each matching version's committed bounds into it: a visible
        one narrows the result tuple validity, an invisible one moves the
        mask edge on its side of ``timestamp``.

        When the path hands over one row's versions newest first, the walk
        stops at the first matching version born at or before ``timestamp``
        that is visible or carries a committed end above its start.  Each
        older version of the row ended no later than that one began: it is
        invisible, and its end, a mask floor, is no greater than the bound
        that version already set (its start as the result's lower bound, or
        its end as the floor).  Neither stop may be taken at a version born
        and gone in one commit, nor at the reader's own uncommitted delete:
        those bound nothing, so an older version's end still counts.
        """
        track = acc is not None and self.track_validity
        if track:
            lo, hi, floor, ceil = acc.lo, acc.hi, acc.floor, acc.ceil
        # Evaluate the predicate before the visibility check so that the
        # invalidity mask only reflects tuples relevant to this query (the
        # paper's delayed-visibility-check refinement) — unless the access
        # path has already decided it for every candidate.
        matches = None if path.decides(predicate) else predicate.matches
        positions = table.positions
        visible: List[TupleVersion] = []
        examined = 0
        candidates, newest_first = path.walk(table)
        for version in candidates:
            examined += 1
            if matches is not None and not matches(version.values, positions):
                continue
            xmin = version.xmin
            xmax = version.xmax
            # Deletion, as visible_at and validity_of read it: ``deleted`` is
            # whether this snapshot sees the version gone, ``end`` the
            # committed upper bound of its validity.  An uncommitted deletion
            # hides the version from the deleting transaction alone and
            # bounds nothing.
            if xmax is None:
                deleted = False
                end = None
            elif type(xmax) is UncommittedMark:
                deleted = tx_id is not None and xmax.tx_id == tx_id
                end = None
            else:
                deleted = xmax <= timestamp
                end = xmax
            if type(xmin) is UncommittedMark:
                # Creation not committed: visible to its own transaction
                # only, and its validity is unknown, so it contributes none.
                if not deleted and tx_id is not None and xmin.tx_id == tx_id:
                    visible.append(version)
                continue
            if xmin <= timestamp and not deleted:
                visible.append(version)
                if track:
                    if xmin > lo:
                        lo = xmin
                    if end is not None and (hi is None or end < hi):
                        hi = end
                if newest_first:
                    break
            elif end != xmin:
                # A phantom, valid over the committed facts [xmin, end) —
                # nothing at all when one commit created and deleted it.
                if xmin > timestamp:
                    if track and (ceil is None or xmin < ceil):
                        ceil = xmin
                elif end is not None:
                    # Deleted at or before the snapshot.  ``end is None``
                    # here is our own provisional delete: the committed
                    # interval still contains the snapshot, and a version
                    # invisible only to us must not constrain the result.
                    if track and end > floor:
                        floor = end
                    if newest_first:
                        break
        if acc is not None:
            acc.examined += examined
            if track:
                acc.lo, acc.hi, acc.floor, acc.ceil = lo, hi, floor, ceil
        return visible

    def _execute_aggregate(
        self,
        aggregate: Aggregate,
        timestamp: int,
        tx_id: Optional[int],
        acc: _Accumulator,
    ) -> List[Dict[str, Any]]:
        table, versions = self._select_versions(aggregate.source, timestamp, tx_id, acc)
        if aggregate.function == "count":
            return [{"value": len(versions)}]
        # ``max``.  A column the table lacks reads None in every row, and
        # None values are left out.
        position = table.positions.get(aggregate.column)
        read = [] if position is None else [version.values[position] for version in versions]
        values = [value for value in read if value is not None]
        return [{"value": max(values) if values else None}]

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _order_limit(
        items: List[Any],
        key: Optional[Callable[[Any], Tuple[bool, Any]]],
        descending: bool,
        limit: Optional[int],
    ) -> List[Any]:
        """``items`` sorted by ``key`` (``(value is None, value)`` of the
        ordering column, so ``None`` sorts last, first when descending;
        ``key is None`` keeps their order), cut to ``limit``."""
        if key is not None:
            items = sorted(items, key=key, reverse=descending)
        if limit is not None:
            items = items[:limit]
        return items

    def _note_access(self, kind: str) -> None:
        if kind == "seq_scan":
            self.stats.seq_scans += 1
        elif kind == "index_eq":
            self.stats.index_lookups += 1
