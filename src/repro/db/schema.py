"""Table schemas, columns, and index specifications."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

__all__ = ["Column", "IndexSpec", "TableSchema"]


@dataclass(frozen=True)
class Column:
    """A column definition.

    Attributes:
        name: column name.
        type: a Python type used for light validation (``object`` disables
            type checking).
        nullable: whether ``None`` is an acceptable value.
    """

    name: str
    type: type = object
    nullable: bool = True

    def validate(self, value: object) -> None:
        """Raise ``TypeError`` if ``value`` does not fit this column."""
        if value is None:
            if not self.nullable:
                raise TypeError(f"column {self.name!r} is not nullable")
            return
        if self.type is not object and not isinstance(value, self.type):
            raise TypeError(
                f"column {self.name!r} expects {self.type.__name__}, "
                f"got {type(value).__name__}"
            )


@dataclass(frozen=True)
class IndexSpec:
    """Specification of a secondary index: a hash index, supporting equality
    lookups only.

    Attributes:
        column: the indexed column.
        unique: enforce at most one *current* row per key.
    """

    column: str
    unique: bool = False

    @property
    def name(self) -> str:
        """Canonical index name, used in diagnostics."""
        return f"hash:{self.column}"


@dataclass(frozen=True)
class TableSchema:
    """Schema of one table: columns, primary key, and indexes.

    The primary key column always receives a unique hash index; additional
    indexes are declared through ``indexes``.
    """

    name: str
    columns: Tuple[Column, ...]
    primary_key: str
    indexes: Tuple[IndexSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in table {self.name!r}")
        if self.primary_key not in names:
            raise ValueError(
                f"primary key {self.primary_key!r} is not a column of {self.name!r}"
            )
        for spec in self.indexes:
            if spec.column not in names:
                raise ValueError(
                    f"index on unknown column {spec.column!r} in table {self.name!r}"
                )

    @staticmethod
    def build(
        name: str,
        columns: Sequence[str | Column],
        primary_key: str,
        indexes: Sequence[str | IndexSpec] = (),
    ) -> "TableSchema":
        """Convenience constructor accepting plain strings.

        ``columns`` may mix :class:`Column` objects and bare column names;
        ``indexes`` may mix :class:`IndexSpec` objects and bare column names
        (which become hash indexes).
        """
        cols = tuple(c if isinstance(c, Column) else Column(c) for c in columns)
        specs = tuple(
            s if isinstance(s, IndexSpec) else IndexSpec(column=s) for s in indexes
        )
        return TableSchema(name=name, columns=cols, primary_key=primary_key, indexes=specs)

    @property
    def column_names(self) -> List[str]:
        """Names of all columns, in declaration order."""
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        """Return the column definition for ``name``."""
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(f"no column {name!r} in table {self.name!r}")

    def all_index_specs(self) -> List[IndexSpec]:
        """All index specs, including the implicit primary-key index."""
        specs = [IndexSpec(column=self.primary_key, unique=True)]
        for spec in self.indexes:
            if spec.column != self.primary_key:
                specs.append(spec)
        return specs
