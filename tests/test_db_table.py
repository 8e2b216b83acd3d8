"""Tests for table storage."""

from __future__ import annotations

import pytest

from repro.db.errors import UnknownIndexError
from repro.db.table import Table
from tests.helpers import simple_schema


@pytest.fixture
def table():
    return Table(simple_schema())


class TestVersionStorage:
    def test_add_version_stores_a_row_under_its_primary_key(self, table):
        v1 = table.add_version({"id": 1, "name": "a", "region": 0, "score": 1.0}, xmin=0)
        v2 = table.add_version({"id": 2, "name": "b", "region": 1, "score": 2.0}, xmin=0)
        assert table.versions_of(1) == [v1]
        assert table.versions_of(2) == [v2]
        assert table.versions_of(3) == []

    def test_add_version_with_a_prior_version(self, table):
        v1 = table.add_version({"id": 1, "name": "a", "region": 0, "score": 1.0}, xmin=0)
        v2 = table.add_version({"name": "a2"}, xmin=3, prior=v1)
        assert table.versions_of(1) == [v1, v2]
        assert table.row_of(v2) == {"id": 1, "name": "a2", "region": 0, "score": 1.0}

    def test_unknown_column_rejected(self, table):
        with pytest.raises(KeyError):
            table.add_version({"id": 1, "bogus": True}, xmin=0)

    def test_current_version_of(self, table):
        v1 = table.add_version({"id": 1, "name": "a", "region": 0, "score": 1.0}, xmin=0)
        assert table.current_version_of(1) is v1
        v1.xmax = 4
        assert table.current_version_of(1) is None
        assert table.current_version_of(2) is None

    def test_remove_version(self, table):
        v1 = table.add_version({"id": 1, "name": "a", "region": 0, "score": 1.0}, xmin=0)
        table.remove_version(v1)
        assert table.row_count() == 0
        assert table.index_on("id").lookup(1) == []

    def test_counts(self, table):
        v1 = table.add_version({"id": 1, "name": "a", "region": 0, "score": 1.0}, xmin=0)
        table.add_version({"name": "a2"}, xmin=2, prior=v1)
        table.add_version({"id": 2, "name": "b", "region": 1, "score": 2.0}, xmin=0)
        assert table.row_count() == 2
        assert table.version_count() == 3
        v1.xmax = 2
        assert table.current_row_count() == 2

    def test_scan_versions_yields_everything(self, table):
        for i in range(5):
            table.add_version({"id": i, "name": f"u{i}", "region": 0, "score": 0.0}, xmin=0)
        assert len(list(table.scan_versions())) == 5


class TestIndexes:
    def test_primary_key_index_exists(self, table):
        assert table.has_index_on("id")

    def test_declared_indexes_exist(self, table):
        assert table.has_index_on("name")
        assert table.has_index_on("region")
        assert not table.has_index_on("score")

    def test_index_on_unknown_column_raises(self, table):
        with pytest.raises(UnknownIndexError):
            table.index_on("score")

    def test_indexes_updated_on_insert(self, table):
        table.add_version({"id": 1, "name": "alice", "region": 2, "score": 0.0}, xmin=0)
        assert len(table.index_on("name").lookup("alice")) == 1
        assert len(table.index_on("region").lookup(2)) == 1
