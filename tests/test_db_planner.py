"""Tests for access-method selection and its invalidation tags."""

from __future__ import annotations

from repro.db.invalidation import InvalidationTag
from repro.db.planner import IndexEqualityPath, SeqScanPath, plan_select
from repro.db.query import And, Eq, Select, TruePredicate
from repro.db.table import Table
from tests.helpers import simple_schema


def table():
    return Table(simple_schema())


class TestPlanSelection:
    def test_eq_on_primary_key_uses_index(self):
        path = plan_select(Select("users", Eq("id", 3)), table())
        assert isinstance(path, IndexEqualityPath)
        assert path.column == "id"
        assert path.key == 3

    def test_eq_on_secondary_index(self):
        path = plan_select(Select("users", Eq("name", "bob")), table())
        assert isinstance(path, IndexEqualityPath)
        assert path.column == "name"

    def test_eq_on_unindexed_column_seq_scans(self):
        path = plan_select(Select("users", Eq("score", 1.0)), table())
        assert isinstance(path, SeqScanPath)

    def test_conjunction_prefers_equality(self):
        predicate = And(Eq("score", 1.0), Eq("id", 5))
        path = plan_select(Select("users", predicate), table())
        assert isinstance(path, IndexEqualityPath)
        assert (path.column, path.key) == ("id", 5)

    def test_conjunction_without_an_indexed_equality_seq_scans(self):
        predicate = And(Eq("score", 1.0), TruePredicate())
        path = plan_select(Select("users", predicate), table())
        assert isinstance(path, SeqScanPath)

    def test_no_predicate_uses_seq_scan(self):
        path = plan_select(Select("users"), table())
        assert isinstance(path, SeqScanPath)


class TestPlanTags:
    def test_equality_path_has_precise_tags(self):
        path = plan_select(Select("users", Eq("name", "alice")), table())
        assert path.tags() == frozenset({InvalidationTag.key("users", "name", "alice")})

    def test_unindexed_select_has_wildcard_tag(self):
        path = plan_select(Select("users", Eq("score", 1.0)), table())
        assert path.tags() == frozenset({InvalidationTag.wildcard("users")})

    def test_seq_scan_has_wildcard_tag(self):
        path = plan_select(Select("users"), table())
        assert path.tags() == frozenset({InvalidationTag.wildcard("users")})

    def test_kind_labels(self):
        t = table()
        assert plan_select(Select("users", Eq("id", 1)), t).kind == "index_eq"
        assert plan_select(Select("users", Eq("score", 1.0)), t).kind == "seq_scan"
        assert plan_select(Select("users"), t).kind == "seq_scan"


def populated_table():
    t = table()
    for i in (1, 2, 3):
        t.add_version({"id": i, "name": f"u{i % 2}", "region": i, "score": 0.0}, xmin=0)
    return t


class TestPlanCandidates:
    def test_single_key_candidates_are_a_copy_of_the_bucket(self):
        """The executor iterates this list while a vacuum may ``remove``
        from the live bucket; a copy cannot skip a version under it."""
        t = populated_table()
        path = plan_select(Select("users", Eq("name", "u1")), t)
        candidates = path.candidates(t)
        assert [t.row_of(v)["id"] for v in candidates] == [1, 3]
        t.remove_version(candidates[0])
        assert [t.row_of(v)["id"] for v in candidates] == [1, 3]
        assert [t.row_of(v)["id"] for v in path.candidates(t)] == [3]


class TestPathDecidesPredicate:
    """A path may spare the executor the per-version predicate only when
    bucket membership is the whole answer."""

    def test_bare_eq_on_its_own_index_is_decided(self):
        t = table()
        for predicate in (Eq("id", 3), Eq("id", 3.0), Eq("name", "bob"), Eq("name", None)):
            assert plan_select(Select("users", predicate), t).decides(predicate)

    def test_anything_more_than_the_index_condition_is_not(self):
        t = table()
        for predicate in (
            And(Eq("id", 3), Eq("region", 1)),  # a second conjunct to evaluate
            Eq("score", 1.0),  # no index: a sequential scan decides nothing
            TruePredicate(),
        ):
            assert not plan_select(Select("users", predicate), t).decides(predicate)

    def test_a_path_decides_only_the_predicate_it_was_planned_for(self):
        t = table()
        path = plan_select(Select("users", Eq("id", 3)), t)
        assert not path.decides(Eq("id", 4))
        assert not path.decides(Eq("name", 3))

    def test_a_key_that_does_not_equal_itself_is_not_decided(self):
        nan = float("nan")
        t = table()
        assert not plan_select(Select("users", Eq("name", nan)), t).decides(Eq("name", nan))


class TestQueryRecords:
    """Statements are plain records, yet hashable and equal by value."""

    def test_select_and_eq_are_equal_and_hash_equal_by_value(self):
        a = Select("users", Eq("id", 3), order_by="id", limit=2)
        b = Select("users", Eq("id", 3), order_by="id", limit=2)
        assert a == b and hash(a) == hash(b)
        assert Eq("id", 3) == Eq("id", 3) and hash(Eq("id", 3)) == hash(Eq("id", 3))
        assert Select("users", Eq("id", 3)) != Select("users", Eq("id", 4))
        assert len({a, b, Select("users", Eq("id", 4))}) == 2

    def test_composite_records_are_hashable_by_value(self):
        first = And(Eq("id", 1), Eq("name", "a"), Eq("region", 0))
        second = And(Eq("id", 1), And(Eq("name", "a"), Eq("region", 0)))
        assert first == second and hash(first) == hash(second)
        assert Select("users").predicate == Select("users").predicate


class TestBareEq:
    """A bare Eq on an indexed column plans straight to the index."""

    def test_it_plans_as_the_conjunct_walk_would(self):
        t = table()
        for predicate in (Eq("id", 3), Eq("name", "u1"), Eq("region", 1)):
            path = plan_select(Select("users", predicate), t)
            assert path == IndexEqualityPath("users", predicate.column, predicate.value)
            assert path.decides(predicate)
            assert path.tags() == frozenset({InvalidationTag.key("users", predicate.column, predicate.value)})
