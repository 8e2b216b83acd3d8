"""Access-method selection (a miniature query planner).

The planner inspects a select's predicate and the available indexes and picks
one of two access paths, the distinction the paper's modified PostgreSQL
draws when assigning invalidation tags (section 5.3):

* **index equality lookup** — when the predicate is, or has as a
  conjunct, an ``Eq`` on an indexed column.  Produces the precise
  ``TABLE:KEY`` invalidation tag of the looked-up key.
* **sequential scan** — everything else.  Produces a wildcard ``TABLE:?``
  tag.

A conjunct the path does not decide is a filter: the executor applies the
whole predicate to every candidate before its visibility check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Iterable, List, Tuple

from repro._compat import DATACLASS_SLOTS
from repro.db.invalidation import InvalidationTag
from repro.db.query import And, Eq, Predicate, Select
from repro.db.table import Table
from repro.db.tuples import TupleVersion

__all__ = ["AccessPath", "IndexEqualityPath", "SeqScanPath", "plan_select"]


@dataclass(**DATACLASS_SLOTS)
class AccessPath:
    """Base class: how the executor obtains candidate tuple versions."""

    table: str

    def candidates(self, table: Table) -> Iterable[TupleVersion]:
        """Yield every candidate version (visible or not)."""
        raise NotImplementedError

    def walk(self, table: Table) -> Tuple[Iterable[TupleVersion], bool]:
        """The candidates in the order the executor's scan visits them, and
        whether they are the versions of one row, newest first.

        Only then may the scan stop before the last candidate (see
        :meth:`repro.db.executor.Executor._scan`).
        """
        return self.candidates(table), False

    def tags(self) -> FrozenSet[InvalidationTag]:
        """Invalidation tags describing what this access depends on."""
        raise NotImplementedError

    def decides(self, predicate: Predicate) -> bool:
        """True if every candidate is already known to satisfy ``predicate``.

        The executor then does not evaluate it again per version.  A path
        only needs to produce a superset of the matching rows, so the safe
        answer, and the default, is False.
        """
        return False

    @property
    def kind(self) -> str:
        """Short name of the access method (for diagnostics and stats)."""
        raise NotImplementedError


@dataclass(**DATACLASS_SLOTS)
class IndexEqualityPath(AccessPath):
    """Equality lookup against an index."""

    column: str = ""
    key: Any = None

    def candidates(self, table: Table) -> List[TupleVersion]:
        # ``lookup`` copies the bucket, and that copy is what the executor
        # iterates: a concurrent vacuum's ``list.remove`` on the live bucket
        # would make a reader skip a version.
        return table.index_on(self.column).lookup(self.key)

    def walk(self, table: Table) -> Tuple[Iterable[TupleVersion], bool]:
        return table.index_on(self.column).walk(self.key)

    def decides(self, predicate: Predicate) -> bool:
        # A bucket holds the versions whose column ``==`` the key, which is
        # all a bare Eq asks — of a key that equals itself.  Eq on a NaN
        # matches nothing, yet a dict finds a NaN key by identity.
        if type(predicate) is not Eq or predicate.column != self.column:
            return False
        value = predicate.value
        return self.key is value and value == value

    def tags(self) -> FrozenSet[InvalidationTag]:
        return frozenset((InvalidationTag(self.table, self.column, self.key),))

    @property
    def kind(self) -> str:
        return "index_eq"


@dataclass(**DATACLASS_SLOTS)
class SeqScanPath(AccessPath):
    """Full sequential scan of the table."""

    def candidates(self, table: Table) -> List[TupleVersion]:
        return table.scan_versions()

    def tags(self) -> FrozenSet[InvalidationTag]:
        return frozenset({InvalidationTag.wildcard(self.table)})

    @property
    def kind(self) -> str:
        return "seq_scan"


def _conjuncts(predicate: Predicate) -> List[Predicate]:
    """Flatten a predicate into top-level AND conjuncts."""
    if isinstance(predicate, And):
        return list(predicate.parts)
    return [predicate]


def plan_select(select: Select, table: Table) -> AccessPath:
    """Choose the access path for ``select`` against ``table``.

    An index equality lookup if any conjunct allows one, else a sequential
    scan.  The executor re-applies the full predicate to every candidate
    unless the path :meth:`~AccessPath.decides` it, so the path only needs
    to be a superset of the matching rows.
    """
    predicate = select.predicate
    # The commonest statement of all, a primary-key select, is a bare Eq.
    if type(predicate) is Eq and table.has_index_on(predicate.column):
        return IndexEqualityPath(select.table, predicate.column, predicate.value)
    for part in _conjuncts(predicate):
        if isinstance(part, Eq) and table.has_index_on(part.column):
            return IndexEqualityPath(select.table, part.column, part.value)
    return SeqScanPath(table=select.table)
