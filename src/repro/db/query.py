"""Query and predicate model.

The RUBiS and MediaWiki applications in the paper issue SQL through PHP; this
reproduction uses a small structured query model instead of a SQL parser.
It holds the statements the applications and benchmarks send — a select
with an optional ordering and limit, and a ``count`` or ``max`` over one —
while keeping the planner's access-method choice (and therefore
invalidation-tag assignment) explicit and testable.

A predicate is an :class:`Eq`, an :class:`And` of predicates, or
:class:`TruePredicate` (no predicate: every row):

* an :class:`Eq` on an indexed column plans as an index equality lookup
  and yields a precise ``TABLE:COL=VALUE`` invalidation tag;
* anything else plans as a sequential scan with a wildcard tag, and a
  conjunct beside an indexed ``Eq`` filters the lookup's rows.

A predicate reads a stored row, a tuple of values in its table's column
order, through the table's ``positions`` map (column name -> position); a
column the table does not have reads as ``None``.

Every record is hashable and equal by value (``unsafe_hash``) but not
``frozen``: nothing assigns to a field after construction, and a frozen
dataclass pays an ``object.__setattr__`` per field on every statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Tuple

__all__ = [
    "Predicate",
    "TruePredicate",
    "Eq",
    "And",
    "Query",
    "Select",
    "Aggregate",
]


# ----------------------------------------------------------------------
# Predicates
# ----------------------------------------------------------------------
class Predicate:
    """Base class for row predicates."""

    def matches(self, row: Tuple[Any, ...], positions: Mapping[str, int]) -> bool:
        """Return True if ``row``, read through ``positions``, satisfies the
        predicate."""
        raise NotImplementedError


@dataclass(unsafe_hash=True)
class TruePredicate(Predicate):
    """Matches every row (a full-table select)."""

    def matches(self, row: Tuple[Any, ...], positions: Mapping[str, int]) -> bool:
        return True


@dataclass(unsafe_hash=True)
class Eq(Predicate):
    """``column = value``."""

    column: str
    value: Any

    def matches(self, row: Tuple[Any, ...], positions: Mapping[str, int]) -> bool:
        position = positions.get(self.column)
        return (None if position is None else row[position]) == self.value


@dataclass(unsafe_hash=True)
class And(Predicate):
    """Conjunction of predicates."""

    parts: Tuple[Predicate, ...]

    def __init__(self, *parts: Predicate) -> None:
        flattened = []
        for part in parts:
            if isinstance(part, And):
                flattened.extend(part.parts)
            else:
                flattened.append(part)
        self.parts = tuple(flattened)

    def matches(self, row: Tuple[Any, ...], positions: Mapping[str, int]) -> bool:
        return all(part.matches(row, positions) for part in self.parts)


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
class Query:
    """Base class for executable queries."""


@dataclass(unsafe_hash=True)
class Select(Query):
    """Select rows from one table.

    Attributes:
        table: table name.
        predicate: row filter (default: match all rows).
        order_by: optional column to sort the result by.
        descending: sort direction for ``order_by``.
        limit: optional maximum number of rows returned.  The validity
            interval is still computed over all matching rows, which is
            conservative but always correct.
    """

    table: str
    predicate: Predicate = field(default_factory=TruePredicate)
    order_by: Optional[str] = None
    descending: bool = False
    limit: Optional[int] = None

    def __init__(
        self,
        table: str,
        predicate: Optional[Predicate] = None,
        order_by: Optional[str] = None,
        descending: bool = False,
        limit: Optional[int] = None,
    ) -> None:
        self.table = table
        self.predicate = predicate or TruePredicate()
        self.order_by = order_by
        self.descending = descending
        self.limit = limit


@dataclass(unsafe_hash=True)
class Aggregate(Query):
    """Aggregate over the rows of a select.

    Supported functions: ``count`` and ``max``.  The result is a single row
    ``{"value": ...}``; ``max`` leaves ``None`` values out and over no
    value is ``None``.
    """

    source: Select
    function: str
    column: Optional[str] = None

    _SUPPORTED = ("count", "max")

    def __post_init__(self) -> None:
        if self.function not in self._SUPPORTED:
            raise ValueError(f"unsupported aggregate {self.function!r}")
        if self.function != "count" and self.column is None:
            raise ValueError(f"aggregate {self.function!r} requires a column")
