"""Tests for table schemas, columns, and index specifications."""

from __future__ import annotations

import pytest

from repro.db.schema import Column, IndexSpec, TableSchema


class TestColumn:
    def test_untyped_column_accepts_anything(self):
        Column("x").validate(42)
        Column("x").validate("str")
        Column("x").validate(None)

    def test_typed_column_accepts_matching_type(self):
        Column("x", int).validate(7)

    def test_typed_column_rejects_mismatch(self):
        with pytest.raises(TypeError):
            Column("x", int).validate("not an int")

    def test_non_nullable_rejects_none(self):
        with pytest.raises(TypeError):
            Column("x", int, nullable=False).validate(None)

    def test_nullable_accepts_none_even_when_typed(self):
        Column("x", int, nullable=True).validate(None)


class TestIndexSpec:
    def test_an_index_is_named_by_its_column(self):
        assert IndexSpec("a").name == "hash:a"
        assert IndexSpec("a", unique=True).name == "hash:a"


class TestTableSchema:
    def test_build_accepts_strings(self):
        schema = TableSchema.build("t", ["id", "x"], "id", indexes=["x"])
        assert schema.column_names == ["id", "x"]
        assert schema.indexes[0].column == "x"

    def test_build_accepts_mixed_columns(self):
        schema = TableSchema.build("t", [Column("id", int), "x"], "id")
        assert schema.column("id").type is int

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            TableSchema.build("t", ["id", "id"], "id")

    def test_primary_key_must_be_column(self):
        with pytest.raises(ValueError):
            TableSchema.build("t", ["a", "b"], "missing")

    def test_index_on_unknown_column_rejected(self):
        with pytest.raises(ValueError):
            TableSchema.build("t", ["a", "b"], "a", indexes=["missing"])

    def test_column_lookup(self):
        schema = TableSchema.build("t", ["id", "x"], "id")
        assert schema.column("x").name == "x"
        with pytest.raises(KeyError):
            schema.column("missing")

    def test_all_index_specs_includes_primary_key(self):
        schema = TableSchema.build("t", ["id", "x"], "id", indexes=["x"])
        specs = schema.all_index_specs()
        assert specs[0].column == "id"
        assert specs[0].unique
        assert any(spec.column == "x" for spec in specs)

    def test_primary_key_index_not_duplicated(self):
        schema = TableSchema.build("t", ["id"], "id", indexes=["id"])
        specs = schema.all_index_specs()
        assert len([spec for spec in specs if spec.column == "id"]) == 1
