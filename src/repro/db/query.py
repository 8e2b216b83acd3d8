"""Query and predicate model.

The RUBiS and MediaWiki applications in the paper issue SQL through PHP; this
reproduction uses a small structured query model instead of a SQL parser.
The model is expressive enough for everything the evaluation needs —
predicate selects, ordering/limits, and aggregates — while keeping the
planner's access-method choice (and therefore invalidation-tag assignment)
explicit and testable.

Predicates are structured so the planner can recognise index-friendly shapes:

* :class:`Eq` / :class:`In` on an indexed column plan as index equality
  lookups and yield precise ``TABLE:COL=VALUE`` invalidation tags;
* anything else (a :class:`Range`, or :class:`Func`, an arbitrary Python
  predicate, among them) plans as a sequential scan with a wildcard tag, and
  a conjunct beside an indexed ``Eq`` filters the lookup's rows.

A predicate reads a stored row, a tuple of values in its table's column
order, through the table's ``positions`` map (column name -> position); a
column the table does not have reads as ``None``.

Every record is hashable and equal by value (``unsafe_hash``) but not
``frozen``: nothing assigns to a field after construction, and a frozen
dataclass pays an ``object.__setattr__`` per field on every statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Predicate",
    "TruePredicate",
    "Eq",
    "In",
    "Range",
    "And",
    "Or",
    "Not",
    "Func",
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
class In(Predicate):
    """``column IN (values)``."""

    column: str
    values: Tuple[Any, ...]

    def __init__(self, column: str, values: Sequence[Any]) -> None:
        self.column = column
        self.values = tuple(values)

    def matches(self, row: Tuple[Any, ...], positions: Mapping[str, int]) -> bool:
        position = positions.get(self.column)
        return (None if position is None else row[position]) in self.values


@dataclass(unsafe_hash=True)
class Range(Predicate):
    """``lo <= column <= hi`` with optional open bounds."""

    column: str
    lo: Optional[Any] = None
    hi: Optional[Any] = None
    lo_inclusive: bool = True
    hi_inclusive: bool = True

    def matches(self, row: Tuple[Any, ...], positions: Mapping[str, int]) -> bool:
        position = positions.get(self.column)
        if position is None:
            return False
        value = row[position]
        if value is None:
            return False
        if self.lo is not None:
            if self.lo_inclusive:
                if value < self.lo:
                    return False
            elif value <= self.lo:
                return False
        if self.hi is not None:
            if self.hi_inclusive:
                if value > self.hi:
                    return False
            elif value >= self.hi:
                return False
        return True


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


@dataclass(unsafe_hash=True)
class Or(Predicate):
    """Disjunction of predicates (always planned as a sequential scan)."""

    parts: Tuple[Predicate, ...]

    def __init__(self, *parts: Predicate) -> None:
        self.parts = tuple(parts)

    def matches(self, row: Tuple[Any, ...], positions: Mapping[str, int]) -> bool:
        return any(part.matches(row, positions) for part in self.parts)


@dataclass(unsafe_hash=True)
class Not(Predicate):
    """Negation of a predicate (always planned as a sequential scan)."""

    part: Predicate

    def matches(self, row: Tuple[Any, ...], positions: Mapping[str, int]) -> bool:
        return not self.part.matches(row, positions)


@dataclass(unsafe_hash=True)
class Func(Predicate):
    """Arbitrary Python predicate.  Forces a sequential scan.

    ``fn`` is called with the row as a column name -> value dict.
    ``description`` is used in diagnostics and plan explanations; the
    function itself must be deterministic and side-effect free.
    """

    fn: Callable[[Dict[str, Any]], bool]
    description: str = "<func>"

    def matches(self, row: Tuple[Any, ...], positions: Mapping[str, int]) -> bool:
        # ``positions`` lists the columns in row order.
        return bool(self.fn(dict(zip(positions, row))))


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
        columns: optional projection (column names to keep).
        order_by: optional column to sort the result by.
        descending: sort direction for ``order_by``.
        limit: optional maximum number of rows returned.  The validity
            interval is still computed over all matching rows, which is
            conservative but always correct.
    """

    table: str
    predicate: Predicate = field(default_factory=TruePredicate)
    columns: Optional[Tuple[str, ...]] = None
    order_by: Optional[str] = None
    descending: bool = False
    limit: Optional[int] = None

    def __init__(
        self,
        table: str,
        predicate: Optional[Predicate] = None,
        columns: Optional[Sequence[str]] = None,
        order_by: Optional[str] = None,
        descending: bool = False,
        limit: Optional[int] = None,
    ) -> None:
        self.table = table
        self.predicate = predicate or TruePredicate()
        self.columns = tuple(columns) if columns is not None else None
        self.order_by = order_by
        self.descending = descending
        self.limit = limit


@dataclass(unsafe_hash=True)
class Aggregate(Query):
    """Aggregate over the rows of a select.

    Supported functions: ``count``, ``sum``, ``max``, ``min``, ``avg``.
    The result is a single row ``{"value": ...}``; for ``max``/``min`` over
    an empty input the value is ``None``, for ``count``/``sum`` it is ``0``.
    """

    source: Select
    function: str
    column: Optional[str] = None

    _SUPPORTED = ("count", "sum", "max", "min", "avg")

    def __post_init__(self) -> None:
        if self.function not in self._SUPPORTED:
            raise ValueError(f"unsupported aggregate {self.function!r}")
        if self.function != "count" and self.column is None:
            raise ValueError(f"aggregate {self.function!r} requires a column")
