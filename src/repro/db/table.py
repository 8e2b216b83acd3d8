"""Tables: no-overwrite version storage plus their indexes."""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.db.errors import ConstraintError, UnknownIndexError
from repro.db.index import HashIndex, OrderedIndex, build_index
from repro.db.schema import TableSchema
from repro.db.tuples import Stamp, TupleVersion

__all__ = ["Table"]


class Table:
    """Storage for one table: all versions of all rows, plus indexes.

    The table itself is oblivious to transactions; creating and stamping
    versions is driven by :class:`repro.db.transactions.ReadWriteTransaction`
    and the loader.  The executor reads versions through the scan and index
    accessors and applies visibility itself.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.name = schema.name
        self._row_counter = itertools.count(1)
        #: row_id -> list of versions, oldest first.
        self._rows: Dict[int, List[TupleVersion]] = {}
        self._indexes: Dict[str, HashIndex] = {}
        for spec in schema.all_index_specs():
            self._indexes[spec.column] = build_index(spec)
        #: The indexed column names, in index order (fixed by the schema).
        self.indexed_columns = tuple(self._indexes)
        #: ``(name, type, nullable, column)`` of each column that can refuse
        #: a value (a type other than ``object``, or not nullable), in
        #: schema order; ``add_version`` checks a row against these.
        self._checked_columns = tuple(
            (column.name, column.type, column.nullable, column)
            for column in schema.columns
            if column.type is not object or not column.nullable
        )
        self._column_names = frozenset(schema.column_names)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def primary_key(self) -> str:
        """Name of the primary key column."""
        return self.schema.primary_key

    def index_on(self, column: str) -> HashIndex:
        """Return the index on ``column`` or raise :class:`UnknownIndexError`."""
        try:
            return self._indexes[column]
        except KeyError:
            raise UnknownIndexError(
                f"table {self.name!r} has no index on column {column!r}"
            ) from None

    def has_index_on(self, column: str) -> bool:
        """True if ``column`` is indexed."""
        return column in self._indexes

    def ordered_index_on(self, column: str) -> Optional[OrderedIndex]:
        """Return an ordered index on ``column`` if one exists."""
        index = self._indexes.get(column)
        return index if isinstance(index, OrderedIndex) else None

    def row_count(self) -> int:
        """Number of logical rows (including rows with only dead versions)."""
        return len(self._rows)

    def version_count(self) -> int:
        """Total number of stored tuple versions."""
        return sum(len(versions) for versions in self._rows.values())

    def current_row_count(self) -> int:
        """Number of rows that still have a current (undeleted) version."""
        return sum(
            1
            for versions in self._rows.values()
            if versions and versions[-1].is_current()
        )

    # ------------------------------------------------------------------
    # Version creation / stamping
    # ------------------------------------------------------------------
    def add_version(self, values: Mapping[str, Any], xmin: Stamp, row_id: Optional[int] = None) -> TupleVersion:
        """Create and index a new tuple version from a copy of ``values``.

        ``row_id`` defaults to a fresh logical row (an INSERT); supplying an
        existing row id creates a successor version (an UPDATE).  A value
        that does not fit its column raises the column's ``TypeError``
        (checked in schema order), an unknown column ``KeyError``, and a
        second current row for a unique key ``ConstraintError``; a refused
        version is stored nowhere.
        """
        row = dict(values)
        for name, kind, nullable, column in self._checked_columns:
            value = row.get(name)
            if value is None:
                if not nullable:
                    column.validate(value)
            elif kind is not object and not isinstance(value, kind):
                column.validate(value)
        if not self._column_names.issuperset(row):
            unknown = set(row) - self._column_names
            raise KeyError(f"unknown columns {sorted(unknown)} for table {self.name!r}")
        if row_id is None:
            row_id = next(self._row_counter)
        version = TupleVersion(row_id, row, xmin)
        try:
            for index in self._indexes.values():
                index.insert(version)
        except ConstraintError:
            for done in self._indexes.values():
                if done is index:
                    break
                done.remove(version)
            raise
        versions = self._rows.get(row_id)
        if versions is None:
            self._rows[row_id] = [version]
        else:
            versions.append(version)
        return version

    def remove_version(self, version: TupleVersion) -> None:
        """Physically remove a version (used by abort cleanup and vacuum)."""
        versions = self._rows.get(version.row_id)
        if not versions:
            return
        try:
            versions.remove(version)
        except ValueError:
            return
        if not versions:
            del self._rows[version.row_id]
        for index in self._indexes.values():
            index.remove(version)

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def scan_versions(self) -> Iterator[TupleVersion]:
        """Sequential scan over every stored version."""
        for versions in self._rows.values():
            yield from versions

    def versions_of(self, row_id: int) -> List[TupleVersion]:
        """All versions of one logical row, oldest first."""
        return list(self._rows.get(row_id, ()))

    def current_version_of(self, row_id: int) -> Optional[TupleVersion]:
        """The current (undeleted) version of a row, if any."""
        versions = self._rows.get(row_id)
        if not versions:
            return None
        last = versions[-1]
        return last if last.is_current() else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Table {self.name} rows={self.row_count()} versions={self.version_count()}>"
