"""Tables: no-overwrite version storage plus their indexes."""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, List, Optional

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
    def new_row_id(self) -> int:
        """Allocate a fresh logical row id."""
        return next(self._row_counter)

    def add_version(self, values: Dict[str, Any], xmin: Stamp, row_id: Optional[int] = None) -> TupleVersion:
        """Create and index a new tuple version.

        ``row_id`` defaults to a fresh logical row (an INSERT); supplying an
        existing row id creates a successor version (an UPDATE).
        """
        for column in self.schema.columns:
            column.validate(values.get(column.name))
        unknown = set(values) - set(self.schema.column_names)
        if unknown:
            raise KeyError(f"unknown columns {sorted(unknown)} for table {self.name!r}")
        if row_id is None:
            row_id = self.new_row_id()
        version = TupleVersion(row_id=row_id, values=dict(values), xmin=xmin)
        indexed = 0
        try:
            for index in self._indexes.values():
                index.insert(version)
                indexed += 1
        except ConstraintError:
            # A refused version is stored nowhere.
            for index in list(self._indexes.values())[:indexed]:
                index.remove(version)
            raise
        self._rows.setdefault(row_id, []).append(version)
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
