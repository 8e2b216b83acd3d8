"""Tests for hash and ordered indexes."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.db.errors import ConstraintError
from repro.db.index import HashIndex, OrderedIndex, build_index
from repro.db.schema import IndexSpec
from repro.db.tuples import TupleVersion, UncommittedMark


def make_version(row_id, **values):
    """A version of a one-column row: each index here is built on position 0."""
    (key,) = values.values()
    return TupleVersion(row_id=row_id, values=(key,), xmin=0)


class TestHashIndex:
    def test_lookup_finds_inserted_version(self):
        index = HashIndex(IndexSpec("name"), 0)
        v = make_version(1, name="alice")
        index.insert(v)
        assert index.lookup("alice") == [v]

    def test_lookup_missing_key_is_empty(self):
        index = HashIndex(IndexSpec("name"), 0)
        assert index.lookup("nobody") == []

    def test_multiple_versions_same_key(self):
        index = HashIndex(IndexSpec("region"), 0)
        versions = [make_version(i, region=1) for i in range(3)]
        for v in versions:
            index.insert(v)
        assert set(id(v) for v in index.lookup(1)) == set(id(v) for v in versions)

    def test_remove(self):
        index = HashIndex(IndexSpec("name"), 0)
        v = make_version(1, name="alice")
        index.insert(v)
        index.remove(v)
        assert index.lookup("alice") == []

    def test_remove_missing_is_noop(self):
        index = HashIndex(IndexSpec("name"), 0)
        index.remove(make_version(1, name="ghost"))

    def test_unique_index_rejects_second_current_row(self):
        index = HashIndex(IndexSpec("id", unique=True), 0)
        index.insert(make_version(1, id=7))
        with pytest.raises(ConstraintError):
            index.insert(make_version(2, id=7))

    def test_unique_index_allows_new_version_of_same_row(self):
        index = HashIndex(IndexSpec("id", unique=True), 0)
        old = make_version(1, id=7)
        index.insert(old)
        old.xmax = 5  # superseded
        index.insert(make_version(1, id=7))

    def test_len_counts_versions(self):
        index = HashIndex(IndexSpec("name"), 0)
        index.insert(make_version(1, name="a"))
        index.insert(make_version(2, name="b"))
        assert len(index) == 2

    def test_none_key_supported(self):
        index = HashIndex(IndexSpec("name"), 0)
        v = make_version(1, name=None)
        index.insert(v)
        assert index.lookup(None) == [v]


class TestUniqueBuckets:
    """What ``walk`` hands the executor: one row's versions newest first,
    or a bucket that has held two rows (or a non-unique one) oldest first."""

    def test_one_rows_versions_come_newest_first(self):
        index = HashIndex(IndexSpec("id", unique=True), 0)
        versions = [make_version(1, id=7) for _ in range(3)]
        for version in versions:
            index.insert(version)
            version.xmax = 5
        assert index.walk(7) == (versions[::-1], True)
        assert index.lookup(7) == versions
        assert index.walk(8) == ([], False)

    def test_a_bucket_that_takes_a_second_row_is_walked_oldest_first(self):
        index = HashIndex(IndexSpec("id", unique=True), 0)
        old, new = make_version(1, id=7), make_version(2, id=7)
        index.insert(old)
        old.xmax = 5  # deleted and committed: the key is free
        index.insert(new)
        assert index.walk(7) == ([old, new], False)
        index.remove(old)
        assert index.walk(7) == ([new], False)  # once mixed, until emptied
        index.remove(new)
        index.insert(make_version(3, id=7))
        assert index.walk(7)[1] is True

    def test_a_non_unique_bucket_is_walked_oldest_first(self):
        index = HashIndex(IndexSpec("region"), 0)
        versions = [make_version(1, region=1), make_version(1, region=1)]
        for version in versions:
            index.insert(version)
        assert index.walk(1) == (versions, False)

    def test_a_delete_in_flight_keeps_the_key_taken_but_for_its_own_transaction(self):
        index = HashIndex(IndexSpec("id", unique=True), 0)
        old = make_version(1, id=7)
        index.insert(old)
        old.xmax = UncommittedMark(3)
        with pytest.raises(ConstraintError):
            index.insert(TupleVersion(row_id=2, values=(7,), xmin=UncommittedMark(4)))
        assert index.walk(7) == ([old], True)  # a refused row leaves no mark
        index.insert(TupleVersion(row_id=2, values=(7,), xmin=UncommittedMark(3)))
        assert index.walk(7)[1] is False


class TestOrderedIndex:
    def build(self, keys):
        index = OrderedIndex(IndexSpec("k", ordered=True), 0)
        versions = [make_version(i, k=key) for i, key in enumerate(keys)]
        for v in versions:
            index.insert(v)
        return index, versions

    def test_range_scan_inclusive(self):
        index, _ = self.build([5, 1, 9, 3, 7])
        keys = [index.key_of(v) for v in index.range_scan(3, 7)]
        assert keys == [3, 5, 7]

    def test_range_scan_exclusive_bounds(self):
        index, _ = self.build([1, 2, 3, 4, 5])
        keys = [index.key_of(v) for v in index.range_scan(2, 4, lo_inclusive=False, hi_inclusive=False)]
        assert keys == [3]

    def test_range_scan_open_bounds(self):
        index, _ = self.build([4, 2, 8])
        assert [index.key_of(v) for v in index.range_scan()] == [2, 4, 8]
        assert [index.key_of(v) for v in index.range_scan(lo=4)] == [4, 8]
        assert [index.key_of(v) for v in index.range_scan(hi=4)] == [2, 4]

    def test_equality_lookup_still_works(self):
        index, _ = self.build([4, 2, 8])
        assert len(index.lookup(4)) == 1

    def test_remove_updates_sorted_keys(self):
        index, versions = self.build([4, 2, 8])
        target = next(v for v in versions if index.key_of(v) == 4)
        index.remove(target)
        assert [index.key_of(v) for v in index.range_scan()] == [2, 8]

    def test_duplicate_keys_in_range(self):
        index = OrderedIndex(IndexSpec("k", ordered=True), 0)
        for i in range(4):
            index.insert(make_version(i, k=5))
        assert len(list(index.range_scan(5, 5))) == 4

    def test_two_inserters_of_one_new_key_sort_it_once(self):
        """A key enters the sorted list exactly when an insert created its
        bucket.  Asking the buckets before inserting let two threads that
        both found a key missing insort it twice, and a range scan then
        yield its versions twice."""
        keys = 20_000
        index = OrderedIndex(IndexSpec("k", ordered=True), 0)
        start = threading.Barrier(2)

        def insert_all():
            start.wait()
            for key in range(keys):
                index.insert(make_version(key, k=key))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=insert_all) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert index._sorted_keys == list(range(keys))
        assert sum(1 for _ in index.range_scan()) == 2 * keys
        for key in range(0, keys, 4):
            for version in index.lookup(key):
                index.remove(version)
        assert index._sorted_keys == [key for key in range(keys) if key % 4]

    def test_none_keys_sort_first(self):
        index = OrderedIndex(IndexSpec("k", ordered=True), 0)
        index.insert(make_version(1, k=None))
        index.insert(make_version(2, k=3))
        all_keys = [index.key_of(v) for v in index.range_scan()]
        assert all_keys[0] is None


class TestBuildIndex:
    def test_builds_hash_for_unordered(self):
        assert type(build_index(IndexSpec("x"), 0)) is HashIndex

    def test_builds_ordered_for_ordered(self):
        assert type(build_index(IndexSpec("x", ordered=True), 0)) is OrderedIndex
