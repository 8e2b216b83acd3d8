"""Invalidation tags (paper section 4.2 and 5.3).

Every still-valid cache object carries a set of invalidation tags describing
which parts of the database it depends on.  A tag has two parts: a table name
and an optional index-key description.  Index equality lookups produce the
precise two-part form (``USERS:NAME=ALICE``); a sequential scan, the only
other access path, produces the wildcard form (``USERS:?``), which exists
for completeness and is expected to be rare.

At query time the database derives tags from the access methods in the query
plan.  At update time each added/deleted/modified tuple yields one tag per
index it is listed in; when a transaction modifies a large fraction of a
table the tags are collapsed into a single wildcard tag.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Iterable, NamedTuple, Optional, Sequence, Set, Tuple

__all__ = ["InvalidationTag", "collapse_tags", "tags_for_modified_tuple"]

#: A transaction touching more than this many distinct keys of one table has
#: its per-key tags collapsed into a single wildcard tag for that table.
WILDCARD_COLLAPSE_THRESHOLD = 64


class InvalidationTag(NamedTuple):
    """One dependency tag.

    ``column is None`` (and ``value is None``) denotes the wildcard tag
    ``table:?`` that matches every key of the table.

    A tag is a named 3-tuple, so hashing and equality run in C: every query,
    commit, cache entry and stream message builds, hashes or compares a few.
    It therefore also compares equal to the plain tuple
    ``(table, column, value)``; nothing stores the two side by side.
    """

    table: str
    column: Optional[str] = None
    value: Optional[Any] = None

    @property
    def is_wildcard(self) -> bool:
        """True for the ``table:?`` form."""
        return self.column is None

    @staticmethod
    def wildcard(table: str) -> "InvalidationTag":
        """Construct the wildcard tag for ``table``."""
        return InvalidationTag(table)

    @staticmethod
    def key(table: str, column: str, value: Any) -> "InvalidationTag":
        """Construct a precise ``table:column=value`` tag."""
        return InvalidationTag(table, column, value)

    def overlaps(self, other: "InvalidationTag") -> bool:
        """True if an update bearing ``other`` may affect data tagged ``self``.

        A wildcard tag on either side matches any tag for the same table;
        precise tags match only when column and value agree.
        """
        if self.table != other.table:
            return False
        if self.is_wildcard or other.is_wildcard:
            return True
        return self.column == other.column and self.value == other.value

    def __str__(self) -> str:
        if self.is_wildcard:
            return f"{self.table}:?"
        return f"{self.table}:{self.column}={self.value!r}"


def tags_for_modified_tuple(
    table_name: str, indexed_positions: Iterable[Tuple[str, int]], values: Sequence[Any]
) -> Set[InvalidationTag]:
    """Tags produced when one tuple of ``table_name`` is added/deleted/changed.

    One tag per index the tuple is listed in, keyed by the tuple's value for
    that index's column (paper section 5.3).  ``indexed_positions`` is the
    table's ``(column, position)`` per index, and ``values`` the version's
    values in column order.
    """
    return {
        InvalidationTag(table_name, column, values[position])
        for column, position in indexed_positions
    }


def collapse_tags(
    tags: Iterable[InvalidationTag],
    threshold: int = WILDCARD_COLLAPSE_THRESHOLD,
) -> FrozenSet[InvalidationTag]:
    """Collapse excessive per-key tags into wildcard tags.

    If a transaction produced more than ``threshold`` distinct tags for one
    table, all of that table's tags are replaced with a single wildcard tag,
    mirroring the paper's aggregation rule for bulk updates.
    """
    by_table: dict = {}
    for tag in tags:
        by_table.setdefault(tag.table, set()).add(tag)
    result: Set[InvalidationTag] = set()
    for table, table_tags in by_table.items():
        has_wildcard = any(t.is_wildcard for t in table_tags)
        if has_wildcard or len(table_tags) > threshold:
            # A wildcard subsumes every precise tag for the table.
            result.add(InvalidationTag.wildcard(table))
        else:
            result.update(table_tags)
    return frozenset(result)
