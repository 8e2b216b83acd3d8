"""Tables: no-overwrite version storage plus their indexes."""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.db.errors import ConstraintError, UnknownIndexError
from repro.db.index import HashIndex
from repro.db.schema import TableSchema
from repro.db.tuples import Stamp, TupleVersion

__all__ = ["Table"]


class Table:
    """Storage for one table: all versions of all rows, plus indexes.

    The table itself is oblivious to transactions; creating and stamping
    versions is driven by :class:`repro.db.transactions.ReadWriteTransaction`
    and the loader.  The executor reads versions through the scan and index
    accessors and applies visibility itself.

    Row layout
    ----------
    A version's values are a tuple in schema column order, as a POSTGRES
    heap tuple is its attributes in order: the column names are stored
    once, here, in :attr:`columns`, and :attr:`positions` maps a name to its
    place.  This is the one module that knows the layout.  Indexes are
    handed their column's position; predicates, commit tags and updates
    read a row through :attr:`positions`; a row becomes a dict only where
    it leaves the database (:attr:`row_of`, which builds every row a
    query returns).

    History
    -------
    A row is its primary-key value, and the primary key's unique index is
    the table's one row store: its bucket for a key holds the key's one
    version, or a list of its versions, oldest first, once it has a second.
    Most rows never get one, and a list per row would cost more than the
    row's values.  An UPDATE that keeps the key appends the row's next
    version to the key's bucket; one that changes the key stores its
    version as a new row under the new key, so the old key's row ends
    where the new key's row begins.  A deleted key inserted again shares
    its bucket with the rows it held before.  Which thread may change a
    bucket, and why readers need no lock, is "Storage concurrency" in
    :mod:`repro.db.database`.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.name = schema.name
        #: The column names in schema order: the order of every version's values.
        self.columns: Tuple[str, ...] = tuple(schema.column_names)
        #: Column name -> position in a version's values.
        self.positions: Dict[str, int] = {name: i for i, name in enumerate(self.columns)}
        #: ``row_of(version)``: the version's values as a column name ->
        #: value dict, the form in which a row leaves the database.
        self.row_of: Callable[[TupleVersion], Dict[str, Any]] = _row_builder(self.columns)
        # A mapping that names every column becomes a tuple in one C call.
        if len(self.columns) > 1:
            self._pick = itemgetter(*self.columns)
        else:
            only = self.columns[0]
            self._pick = lambda values: (values[only],)
        self._indexes: Dict[str, HashIndex] = {}
        for spec in schema.all_index_specs():
            self._indexes[spec.column] = HashIndex(spec, self.positions[spec.column])
        #: The primary key's index: the row store.
        self._primary = self._indexes[schema.primary_key]
        #: The indexed column names, in index order (fixed by the schema).
        self.indexed_columns = tuple(self._indexes)
        #: ``(column, position)`` of each indexed column, in index order.
        self.indexed_positions = tuple((column, self.positions[column]) for column in self._indexes)
        #: ``(name, type, nullable, column)`` of each column that can refuse
        #: a value (a type other than ``object``, or not nullable), in
        #: schema order; ``add_version`` checks a row against these.
        self._checked_columns = tuple(
            (column.name, column.type, column.nullable, column)
            for column in schema.columns
            if column.type is not object or not column.nullable
        )
        self._column_names = frozenset(self.columns)

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

    def row_count(self) -> int:
        """Number of stored primary-key values (including keys with only
        dead versions)."""
        return self._primary.key_count()

    def version_count(self) -> int:
        """Total number of stored tuple versions."""
        return len(self._primary)

    def current_row_count(self) -> int:
        """Number of rows that still have a current (undeleted) version."""
        return sum(1 for key in self._primary.keys() if self.current_version_of(key) is not None)

    # ------------------------------------------------------------------
    # Version creation / stamping
    # ------------------------------------------------------------------
    def add_version(
        self, values: Mapping[str, Any], xmin: Stamp, prior: Optional[TupleVersion] = None
    ) -> TupleVersion:
        """Create and index a new tuple version from ``values``.

        Without ``prior`` the version is a fresh logical row (an INSERT):
        ``values`` maps column names to values, and a column it leaves out
        is stored as ``None``.  With ``prior``, the row's current version,
        it supersedes ``prior`` (an UPDATE): ``values`` holds only the
        changed columns and the rest are ``prior``'s.  It is the row's next
        version if it keeps the primary key, and a new row under the new
        key if it does not.

        A value that does not fit its column raises the column's
        ``TypeError`` (checked in schema order), an unknown column
        ``KeyError``, and a second current row for a unique key
        ``ConstraintError``; a refused version is stored nowhere.  The checks
        read the caller's mapping; the tuple is built once, after them.
        """
        # An update leaves out the columns it keeps: those were checked
        # when ``prior`` was stored.
        missing = None if prior is None else _UNCHANGED
        get = values.get
        for name, kind, nullable, column in self._checked_columns:
            value = get(name, missing)
            if value is None:
                if not nullable:
                    column.validate(value)
            elif value is missing:
                continue
            elif kind is not object and not isinstance(value, kind):
                column.validate(value)
        if not self._column_names.issuperset(values):
            unknown = set(values) - self._column_names
            raise KeyError(f"unknown columns {sorted(unknown)} for table {self.name!r}")
        if prior is not None:
            row = list(prior.values)
            positions = self.positions
            for name, value in values.items():
                row[positions[name]] = value
            version = TupleVersion(tuple(row), xmin)
        elif len(values) == len(self.columns):
            version = TupleVersion(self._pick(values), xmin)
        else:
            version = TupleVersion(tuple(map(get, self.columns)), xmin)
        try:
            for index in self._indexes.values():
                index.insert(version, prior)
        except ConstraintError:
            for done in self._indexes.values():
                if done is index:
                    break
                done.remove(version)
            raise
        return version

    def remove_version(self, version: TupleVersion) -> None:
        """Physically remove a version (used by abort cleanup and vacuum)."""
        for index in self._indexes.values():
            index.remove(version)

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def scan_versions(self) -> List[TupleVersion]:
        """Every stored version, key by key, each key's oldest first.

        Safe beside writers and vacuum: see "Storage concurrency" in
        :mod:`repro.db.database`.
        """
        return self._primary.versions()

    def versions_of(self, key: Any) -> List[TupleVersion]:
        """All versions stored under primary-key value ``key``, oldest first."""
        return self._primary.lookup(key)

    def current_version_of(self, key: Any) -> Optional[TupleVersion]:
        """The current (undeleted) version of the row with primary key ``key``, if any."""
        versions = self._primary.lookup(key)
        return versions[-1] if versions and versions[-1].is_current() else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Table {self.name} rows={self.row_count()} versions={self.version_count()}>"


#: Stands for a column an UPDATE leaves as it was.
_UNCHANGED = object()


def _row_builder(columns: Tuple[str, ...]) -> Callable[[TupleVersion], Dict[str, Any]]:
    """A function that turns a version of a row with ``columns`` into a dict.

    Generated, as ``collections.namedtuple`` generates its methods: one
    unpacking of the values and one dict display with the column names as
    constants, which CPython builds presized in one instruction, about
    three times as fast as ``dict(zip(columns, values))`` — and every row a
    query returns is built this way.
    """
    names = [f"_{i}" for i in range(len(columns))]
    pairs = ", ".join(f"{column!r}: {name}" for column, name in zip(columns, names))
    source = (
        "def row_of(version):\n"
        f"    {', '.join(names)}, = version.values\n"
        f"    return {{{pairs}}}\n"
    )
    namespace: Dict[str, Any] = {}
    exec(source, namespace)  # noqa: S102 - the source is built from the schema's names, each a repr
    return namespace["row_of"]
