"""Tests for tuple versions and snapshot visibility."""

from __future__ import annotations

from repro.db.tuples import TupleVersion, UncommittedMark, validity_of, visible_at
from repro.interval import Interval


def version(xmin, xmax=None):
    return TupleVersion(values=(1,), xmin=xmin, xmax=xmax)


class TestVisibility:
    def test_visible_when_created_before_snapshot(self):
        assert visible_at(version(3), 5)
        assert visible_at(version(5), 5)

    def test_invisible_when_created_after_snapshot(self):
        assert not visible_at(version(7), 5)

    def test_invisible_when_deleted_before_snapshot(self):
        assert not visible_at(version(1, xmax=4), 5)
        assert not visible_at(version(1, xmax=5), 5)

    def test_visible_when_deleted_after_snapshot(self):
        assert visible_at(version(1, xmax=9), 5)

    def test_uncommitted_insert_invisible_to_others(self):
        v = version(UncommittedMark(7))
        assert not visible_at(v, 100)
        assert not visible_at(v, 100, tx_id=8)

    def test_uncommitted_insert_visible_to_owner(self):
        v = version(UncommittedMark(7))
        assert visible_at(v, 0, tx_id=7)

    def test_uncommitted_delete_invisible_to_owner_only(self):
        v = version(1, xmax=UncommittedMark(7))
        assert visible_at(v, 5)
        assert visible_at(v, 5, tx_id=8)
        assert not visible_at(v, 5, tx_id=7)


class TestValidityOf:
    def test_committed_current_version_is_unbounded(self):
        assert validity_of(version(4)) == Interval(4, None)

    def test_superseded_version_is_bounded(self):
        assert validity_of(version(4, xmax=9)) == Interval(4, 9)

    def test_uncommitted_creation_has_no_validity(self):
        assert validity_of(version(UncommittedMark(3))) is None

    def test_uncommitted_deletion_treated_as_still_valid(self):
        assert validity_of(version(4, xmax=UncommittedMark(3))) == Interval(4, None)


class TestHelpers:
    def test_is_current(self):
        assert version(1).is_current()
        assert not version(1, xmax=3).is_current()

    def test_created_by_and_deleted_by(self):
        v = version(UncommittedMark(9), xmax=None)
        assert v.created_by(9)
        assert not v.created_by(8)
        v2 = version(1, xmax=UncommittedMark(9))
        assert v2.deleted_by(9)
        assert not v2.deleted_by(8)
