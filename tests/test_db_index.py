"""Tests for the hash index."""

from __future__ import annotations

import pytest

from repro.db.errors import ConstraintError
from repro.db.index import HashIndex
from repro.db.schema import IndexSpec
from repro.db.tuples import TupleVersion, UncommittedMark


def make_version(**values):
    """A version of a one-column row: each index here is built on position 0."""
    (key,) = values.values()
    return TupleVersion(values=(key,), xmin=0)


class TestHashIndex:
    def test_lookup_finds_inserted_version(self):
        index = HashIndex(IndexSpec("name"), 0)
        v = make_version(name="alice")
        index.insert(v)
        assert index.lookup("alice") == [v]

    def test_lookup_missing_key_is_empty(self):
        index = HashIndex(IndexSpec("name"), 0)
        assert index.lookup("nobody") == []

    def test_multiple_versions_same_key(self):
        index = HashIndex(IndexSpec("region"), 0)
        versions = [make_version(region=1) for _ in range(3)]
        for v in versions:
            index.insert(v)
        assert set(id(v) for v in index.lookup(1)) == set(id(v) for v in versions)

    def test_remove(self):
        index = HashIndex(IndexSpec("name"), 0)
        v = make_version(name="alice")
        index.insert(v)
        index.remove(v)
        assert index.lookup("alice") == []

    def test_remove_missing_is_noop(self):
        index = HashIndex(IndexSpec("name"), 0)
        index.remove(make_version(name="ghost"))

    def test_unique_index_rejects_second_current_row(self):
        index = HashIndex(IndexSpec("id", unique=True), 0)
        index.insert(make_version(id=7))
        with pytest.raises(ConstraintError):
            index.insert(make_version(id=7))

    def test_unique_index_allows_new_version_of_same_row(self):
        index = HashIndex(IndexSpec("id", unique=True), 0)
        old = make_version(id=7)
        index.insert(old)
        old.xmax = 5  # superseded
        index.insert(make_version(id=7), prior=old)
        assert index.walk(7)[1] is True

    def test_unique_index_allows_a_current_rows_next_version(self):
        """An UPDATE that keeps the key is checked against the other rows
        under it, never against the version it supersedes."""
        index = HashIndex(IndexSpec("id", unique=True), 0)
        old = make_version(id=7)
        index.insert(old)
        new = TupleVersion(values=(7,), xmin=3)
        index.insert(new, prior=old)
        assert index.walk(7) == ([new, old], True)
        with pytest.raises(ConstraintError):
            index.insert(make_version(id=7))

    def test_len_counts_versions(self):
        index = HashIndex(IndexSpec("name"), 0)
        index.insert(make_version(name="a"))
        index.insert(make_version(name="b"))
        assert len(index) == 2

    def test_none_key_supported(self):
        index = HashIndex(IndexSpec("name"), 0)
        v = make_version(name=None)
        index.insert(v)
        assert index.lookup(None) == [v]


class TestUniqueBuckets:
    """What ``walk`` hands the executor: one row's versions newest first,
    or a bucket that has held two rows (or a non-unique one) oldest first."""

    def test_one_rows_versions_come_newest_first(self):
        index = HashIndex(IndexSpec("id", unique=True), 0)
        versions = [TupleVersion(values=(7,), xmin=commit) for commit in range(3)]
        prior = None
        for version in versions:
            index.insert(version, prior)  # each the next version of the one before
            version.xmax = version.xmin + 1
            prior = version
        assert index.walk(7) == (versions[::-1], True)
        assert index.lookup(7) == versions
        assert index.walk(8) == ([], False)

    def test_a_version_moved_to_a_key_from_another_mixes_its_bucket(self):
        """An UPDATE that changes the key starts a new row under the new
        key, beside the rows the key held before."""
        index = HashIndex(IndexSpec("id", unique=True), 0)
        gone, moved = make_version(id=7), make_version(id=8)
        index.insert(gone)
        index.insert(moved)
        gone.xmax = moved.xmax = 5
        arrived = make_version(id=7)
        index.insert(arrived, prior=moved)
        assert index.walk(7) == ([gone, arrived], False)

    def test_a_bucket_that_takes_a_second_row_is_walked_oldest_first(self):
        index = HashIndex(IndexSpec("id", unique=True), 0)
        old, new = make_version(id=7), make_version(id=7)
        index.insert(old)
        old.xmax = 5  # deleted and committed: the key is free
        index.insert(new)
        assert index.walk(7) == ([old, new], False)
        index.remove(old)
        assert index.walk(7) == ([new], False)  # once mixed, until emptied
        index.remove(new)
        index.insert(make_version(id=7))
        assert index.walk(7)[1] is True

    def test_a_non_unique_bucket_is_walked_oldest_first(self):
        index = HashIndex(IndexSpec("region"), 0)
        versions = [make_version(region=1), make_version(region=1)]
        for version in versions:
            index.insert(version)
        assert index.walk(1) == (versions, False)

    def test_a_delete_in_flight_keeps_the_key_taken_but_for_its_own_transaction(self):
        index = HashIndex(IndexSpec("id", unique=True), 0)
        old = make_version(id=7)
        index.insert(old)
        old.xmax = UncommittedMark(3)
        with pytest.raises(ConstraintError):
            index.insert(TupleVersion(values=(7,), xmin=UncommittedMark(4)))
        assert index.walk(7) == ([old], True)  # a refused row leaves no mark
        index.insert(TupleVersion(values=(7,), xmin=UncommittedMark(3)))
        assert index.walk(7)[1] is False
