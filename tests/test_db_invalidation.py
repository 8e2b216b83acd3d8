"""Tests for invalidation tags and tag collapsing."""

from __future__ import annotations

import pickle

from repro.db.invalidation import (
    InvalidationTag,
    collapse_tags,
    tags_for_modified_tuple,
)
from repro.db.table import Table
from tests.helpers import simple_schema


class TestInvalidationTag:
    def test_wildcard_construction(self):
        tag = InvalidationTag.wildcard("users")
        assert tag.is_wildcard
        assert str(tag) == "users:?"

    def test_key_construction(self):
        tag = InvalidationTag.key("users", "name", "alice")
        assert not tag.is_wildcard
        assert str(tag) == "users:name='alice'"

    def test_precise_tags_overlap_when_equal(self):
        a = InvalidationTag.key("users", "id", 3)
        assert a.overlaps(InvalidationTag.key("users", "id", 3))
        assert not a.overlaps(InvalidationTag.key("users", "id", 4))
        assert not a.overlaps(InvalidationTag.key("users", "name", 3))

    def test_wildcard_overlaps_everything_in_table(self):
        wildcard = InvalidationTag.wildcard("users")
        assert wildcard.overlaps(InvalidationTag.key("users", "id", 1))
        assert InvalidationTag.key("users", "id", 1).overlaps(wildcard)
        assert not wildcard.overlaps(InvalidationTag.wildcard("items"))

    def test_tags_are_hashable_and_deduplicate(self):
        tags = {InvalidationTag.key("t", "c", 1), InvalidationTag.key("t", "c", 1)}
        assert len(tags) == 1


class TestTagRecord:
    """A tag is a named 3-tuple: built, hashed and compared by value."""

    def test_keyword_and_positional_construction_agree(self):
        tag = InvalidationTag("users", "id", 3)
        assert tag == InvalidationTag(table="users", column="id", value=3)
        assert tag == InvalidationTag.key("users", "id", 3)
        assert (tag.table, tag.column, tag.value) == ("users", "id", 3)
        assert InvalidationTag("users") == InvalidationTag.wildcard("users")
        assert InvalidationTag(table="users").is_wildcard
        assert InvalidationTag("users").value is None

    def test_equal_tags_hash_equal_and_unequal_ones_differ(self):
        assert hash(InvalidationTag("t", "c", 1)) == hash(InvalidationTag.key("t", "c", 1))
        assert InvalidationTag("t", "c", 1) != InvalidationTag("t", "c", 2)
        assert InvalidationTag("t", "c", 1) != InvalidationTag("u", "c", 1)
        assert InvalidationTag("t") != InvalidationTag("t", "c", None)

    def test_str_and_repr(self):
        assert str(InvalidationTag.key("users", "name", "alice")) == "users:name='alice'"
        assert str(InvalidationTag.wildcard("users")) == "users:?"
        assert repr(InvalidationTag("users", "id", 3)) == (
            "InvalidationTag(table='users', column='id', value=3)"
        )

    def test_pickle_round_trip(self):
        for tag in (InvalidationTag.key("users", "id", 3), InvalidationTag.wildcard("users")):
            copy = pickle.loads(pickle.dumps(tag))
            assert copy == tag and type(copy) is InvalidationTag
            assert copy.overlaps(tag)


class TestTagsForModifiedTuple:
    def test_one_tag_per_index(self):
        tags = tags_for_modified_tuple("users", [("id", 0), ("name", 1)], (1, "a", 2))
        assert tags == {
            InvalidationTag.key("users", "id", 1),
            InvalidationTag.key("users", "name", "a"),
        }

    def test_missing_column_yields_none_key(self):
        table = Table(simple_schema())
        version = table.add_version({"id": 1}, xmin=0)  # name and region left out
        tags = tags_for_modified_tuple("users", table.indexed_positions, version.values)
        assert tags == {
            InvalidationTag.key("users", "id", 1),
            InvalidationTag.key("users", "name", None),
            InvalidationTag.key("users", "region", None),
        }


class TestCollapseTags:
    def test_small_sets_pass_through(self):
        tags = {InvalidationTag.key("users", "id", i) for i in range(5)}
        assert collapse_tags(tags, threshold=10) == frozenset(tags)

    def test_large_sets_collapse_to_wildcard(self):
        tags = {InvalidationTag.key("users", "id", i) for i in range(20)}
        assert collapse_tags(tags, threshold=10) == frozenset({InvalidationTag.wildcard("users")})

    def test_existing_wildcard_subsumes_precise_tags(self):
        tags = {
            InvalidationTag.wildcard("users"),
            InvalidationTag.key("users", "id", 1),
        }
        assert collapse_tags(tags) == frozenset({InvalidationTag.wildcard("users")})

    def test_tables_collapse_independently(self):
        tags = {InvalidationTag.key("users", "id", i) for i in range(20)}
        tags |= {InvalidationTag.key("items", "id", 1)}
        collapsed = collapse_tags(tags, threshold=10)
        assert InvalidationTag.wildcard("users") in collapsed
        assert InvalidationTag.key("items", "id", 1) in collapsed
