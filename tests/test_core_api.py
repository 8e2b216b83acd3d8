"""Tests for the TxCache client library: transactions, cacheable functions,
consistency, lazy timestamp selection, and the baseline modes."""

from __future__ import annotations

import pytest

from repro.core.api import ConsistencyMode
from repro.core.exceptions import (
    NotInTransactionError,
    TransactionInProgressError,
    TxCacheError,
)
from repro.core.stats import MissType
from repro.db.errors import SerializationError
from repro.db.query import Eq, Select
from tests.helpers import build_deployment, insert_users, update_user


def make_get_user(client):
    @client.cacheable(name="get_user")
    def get_user(user_id):
        rows = client.query(Select("users", Eq("id", user_id))).rows
        return rows[0] if rows else None

    return get_user


class TestTransactionControl:
    def test_begin_commit_cycle(self):
        _dep, client = build_deployment()
        client.begin_ro()
        assert client.in_transaction
        assert client.current_read_only
        timestamp = client.commit()
        assert timestamp >= 0
        assert not client.in_transaction

    def test_nested_begin_rejected(self):
        _dep, client = build_deployment()
        client.begin_ro()
        with pytest.raises(TransactionInProgressError):
            client.begin_ro()
        with pytest.raises(TransactionInProgressError):
            client.begin_rw()
        client.abort()

    def test_commit_without_transaction_rejected(self):
        _dep, client = build_deployment()
        with pytest.raises(NotInTransactionError):
            client.commit()
        with pytest.raises(NotInTransactionError):
            client.abort()

    def test_query_outside_transaction_rejected(self):
        _dep, client = build_deployment()
        with pytest.raises(NotInTransactionError):
            client.query(Select("users"))

    def test_cacheable_outside_transaction_rejected(self):
        _dep, client = build_deployment()
        get_user = make_get_user(client)
        with pytest.raises(NotInTransactionError):
            get_user(1)

    def test_context_managers(self):
        dep, client = build_deployment()
        with client.read_only():
            assert client.current_read_only
        with client.read_write():
            client.update("users", Eq("id", 1), {"score": 9.0})
        dep.advance(0.1)
        with client.read_only(staleness=0):
            value = client.query(Select("users", Eq("id", 1))).rows[0]["score"]
        assert value == 9.0

    def test_context_manager_aborts_on_exception(self):
        _dep, client = build_deployment()
        with pytest.raises(RuntimeError):
            with client.read_write():
                client.update("users", Eq("id", 1), {"score": 9.0})
                raise RuntimeError("boom")
        # The update was rolled back.
        with client.read_only(staleness=0):
            assert client.query(Select("users", Eq("id", 1))).rows[0]["score"] == 1.0

    def test_write_operations_require_rw_transaction(self):
        _dep, client = build_deployment()
        client.begin_ro()
        with pytest.raises(NotInTransactionError):
            client.insert("users", {"id": 99, "name": "x", "region": 0, "score": 0.0})
        client.abort()


class TestCacheableFunctions:
    def test_miss_then_hit(self):
        _dep, client = build_deployment()
        get_user = make_get_user(client)
        client.begin_ro()
        first = get_user(3)
        second = get_user(3)
        client.commit()
        assert first == second
        assert client.stats.misses == 1
        assert client.stats.hits == 1

    def test_hits_span_transactions(self):
        _dep, client = build_deployment()
        get_user = make_get_user(client)
        with client.read_only():
            get_user(3)
        with client.read_only():
            get_user(3)
        assert client.stats.hits == 1
        assert client.stats.misses == 1

    def test_cached_value_shared_between_clients(self):
        dep, client = build_deployment()
        other = dep.client()
        get_user_a = make_get_user(client)
        get_user_b = make_get_user(other)
        with client.read_only():
            get_user_a(3)
        with other.read_only():
            get_user_b(3)
        assert other.stats.hits == 1

    def test_different_arguments_cached_separately(self):
        _dep, client = build_deployment()
        get_user = make_get_user(client)
        with client.read_only():
            assert get_user(1)["id"] == 1
            assert get_user(2)["id"] == 2
        assert client.stats.misses == 2

    def test_make_cacheable_returns_wrapped_metadata(self):
        _dep, client = build_deployment()
        get_user = make_get_user(client)
        assert get_user.__txcache_name__ == "get_user"
        assert callable(get_user.__txcache_wrapped__)

    def test_decorator_without_arguments(self):
        _dep, client = build_deployment()

        @client.cacheable
        def constant():
            return 42

        with client.read_only():
            assert constant() == 42
            assert constant() == 42
        assert client.stats.hits == 1

    def test_cacheable_call_counted_per_transaction_mode(self):
        _dep, client = build_deployment()
        get_user = make_get_user(client)
        with client.read_write():
            get_user(1)
        assert client.stats.cache_bypassed_calls == 1
        assert client.stats.hits == 0

    def test_pure_computation_cacheable(self):
        _dep, client = build_deployment()
        calls = []

        @client.cacheable(name="expensive")
        def expensive(n):
            calls.append(n)
            return n * n

        with client.read_only():
            assert expensive(4) == 16
        with client.read_only():
            assert expensive(4) == 16
        assert calls == [4]


class TestAutomaticInvalidation:
    def test_update_invalidates_cached_function(self):
        dep, client = build_deployment()
        get_user = make_get_user(client)
        with client.read_only():
            assert get_user(3)["name"] == "user3"
        update_user(dep, 3, name="renamed")
        # A transaction demanding fresh data sees the new value.
        with client.read_only(staleness=0):
            assert get_user(3)["name"] == "renamed"

    def test_unrelated_update_does_not_invalidate(self):
        dep, client = build_deployment()
        get_user = make_get_user(client)
        with client.read_only():
            get_user(3)
        update_user(dep, 4, name="other")
        with client.read_only(staleness=0):
            get_user(3)
        # Second call was a hit: the entry for user 3 is still valid.
        assert client.stats.hits == 1

    def test_insert_invalidates_scan_results(self):
        dep, client = build_deployment(rows=5)

        @client.cacheable(name="count_users")
        def count_users():
            return len(client.query(Select("users")).rows)

        with client.read_only():
            assert count_users() == 5
        insert_users(dep, [{"id": 50, "name": "new", "region": 0, "score": 0.0}])
        with client.read_only(staleness=0):
            assert count_users() == 6

    def test_stale_transaction_may_reuse_invalidated_entry(self):
        dep, client = build_deployment()
        get_user = make_get_user(client)
        with client.read_only():
            assert get_user(3)["name"] == "user3"
        update_user(dep, 3, name="renamed")
        # Within the staleness limit the old (consistent) version is allowed.
        with client.read_only(staleness=30):
            value = get_user(3)["name"]
        assert value in {"user3", "renamed"}
        assert client.stats.hits >= 1


class TestConsistency:
    def test_transaction_never_mixes_old_and_new_state(self):
        """The core TxCache guarantee: cached data and database data observed
        in one transaction reflect a single point in time."""
        dep, client = build_deployment()
        get_user = make_get_user(client)

        # Cache user 1 at the initial state.
        with client.read_only():
            before = get_user(1)
        assert before["score"] == 1.0

        # A write changes user 1 and user 2 atomically.
        transaction = dep.database.begin_rw()
        transaction.update("users", Eq("id", 1), {"score": 100.0})
        transaction.update("users", Eq("id", 2), {"score": 200.0})
        transaction.commit()

        # A new transaction reads user 1 from the cache (old snapshot is
        # within staleness) and user 2 from the database: it must see the
        # matching old value for user 2.
        with client.read_only(staleness=30):
            user1 = get_user(1)
            user2_row = client.query(Select("users", Eq("id", 2))).rows[0]
            if user1["score"] == 1.0:
                assert user2_row["score"] == 2.0
            else:
                assert user2_row["score"] == 200.0

    def test_db_query_pins_transaction_to_snapshot(self):
        dep, client = build_deployment()
        client.begin_ro()
        first = client.query(Select("users", Eq("id", 1))).rows[0]
        update_user(dep, 1, score=77.0)
        second = client.query(Select("users", Eq("id", 1))).rows[0]
        client.commit()
        assert first["score"] == second["score"] == 1.0

    def test_commit_returns_serialization_timestamp(self):
        dep, client = build_deployment()
        with client.read_only():
            client.query(Select("users", Eq("id", 1)))
        # No writes have happened, so the only possible timestamp is 0.
        client.begin_ro()
        client.query(Select("users", Eq("id", 1)))
        assert client.commit() == 0

    def test_causality_via_staleness_bound(self):
        """The paper's recipe: feed a write's commit timestamp back as the
        next transaction's freshness requirement so time never moves backwards."""
        dep, client = build_deployment()
        get_user = make_get_user(client)
        with client.read_only():
            get_user(1)
        with client.read_write():
            client.update("users", Eq("id", 1), {"name": "after-write"})
        dep.advance(0.1)
        # Demand data at least as new as the write we just made.
        with client.read_only(staleness=0):
            assert get_user(1)["name"] == "after-write"


class TestReadWriteTransactions:
    def test_rw_bypasses_cache_and_sees_latest(self):
        dep, client = build_deployment()
        get_user = make_get_user(client)
        with client.read_only():
            get_user(1)
        update_user(dep, 1, name="fresh")
        with client.read_write():
            assert get_user(1)["name"] == "fresh"
        assert client.stats.cache_bypassed_calls >= 1

    def test_rw_commit_returns_new_timestamp(self):
        dep, client = build_deployment()
        before = dep.database.latest_timestamp
        with client.read_write():
            client.update("users", Eq("id", 1), {"score": 5.0})
        assert dep.database.latest_timestamp == before + 1

    def test_serialization_error_propagates_and_clears_state(self):
        dep, client = build_deployment()
        client.begin_rw()
        client.update("users", Eq("id", 1), {"score": 5.0})
        conflicting = dep.database.begin_rw()
        with pytest.raises(SerializationError):
            conflicting.update("users", Eq("id", 1), {"score": 6.0})
        conflicting.abort()
        client.commit()
        assert not client.in_transaction

    def test_rw_abort_discards_changes(self):
        dep, client = build_deployment()
        client.begin_rw()
        client.update("users", Eq("id", 1), {"score": 5.0})
        client.abort()
        with client.read_only(staleness=0):
            assert client.query(Select("users", Eq("id", 1))).rows[0]["score"] == 1.0


class TestNestedCacheableCalls:
    def test_inner_hit_outer_miss(self):
        dep, client = build_deployment()
        get_user = make_get_user(client)

        @client.cacheable(name="profile_page")
        def profile_page(user_id):
            user = get_user(user_id)
            return f"profile:{user['name']}"

        with client.read_only():
            get_user(2)  # warm the inner function
        with client.read_only():
            page = profile_page(2)
        assert page == "profile:user2"
        # Outer page result is now cached too.
        with client.read_only():
            profile_page(2)
        assert client.stats.hits >= 2

    def test_outer_entry_invalidated_through_inner_dependency(self):
        dep, client = build_deployment()
        get_user = make_get_user(client)

        @client.cacheable(name="profile_page")
        def profile_page(user_id):
            user = get_user(user_id)
            return f"profile:{user['name']}"

        with client.read_only():
            assert profile_page(2) == "profile:user2"
        update_user(dep, 2, name="renamed")
        with client.read_only(staleness=0):
            assert profile_page(2) == "profile:renamed"

    def test_unbalanced_frames_detected(self):
        dep, client = build_deployment()
        get_user = make_get_user(client)

        @client.cacheable(name="bad_page")
        def bad_page(user_id, finish):
            get_user(user_id)
            getattr(client, finish)()  # illegal: finishing the transaction mid-call
            return user_id

        for finish in ("commit", "abort"):
            client.begin_ro()
            with pytest.raises(TxCacheError):
                bad_page(1, finish)
            # Refused before the transaction was touched: it is still open,
            # and the enclosing scope's ABORT hands its pins back.
            assert client.in_transaction
            client.abort()
            with pytest.raises(TxCacheError):
                with client.read_only():
                    bad_page(2, finish)
            assert not client.in_transaction
        pincushion = dep.pincushion
        rows = [pincushion.snapshot(snapshot_id) for snapshot_id in pincushion.pinned_ids]
        assert rows and all(row.in_use == 0 for row in rows)
        dep.advance(dep.pincushion_expiry_seconds + 1.0)
        pincushion.expire_old_snapshots()
        assert pincushion.pinned_ids == []


class TestMissClassification:
    def test_compulsory_miss(self):
        _dep, client = build_deployment()
        get_user = make_get_user(client)
        with client.read_only():
            get_user(1)
        assert client.stats.misses_by_type[MissType.COMPULSORY] == 1

    def test_stale_or_capacity_miss_after_eviction(self):
        dep, client = build_deployment(capacity_bytes=600)
        get_user = make_get_user(client)
        with client.read_only():
            for user_id in range(1, 15):
                get_user(user_id)
        # Re-read an early key: it has very likely been evicted by now.
        client.stats.reset()
        with client.read_only():
            get_user(1)
        assert (
            client.stats.misses_by_type[MissType.STALE_OR_CAPACITY]
            + client.stats.misses_by_type[MissType.COMPULSORY]
            == client.stats.misses
        )

    def test_consistency_miss(self):
        dep, client = build_deployment()
        get_user = make_get_user(client)
        # Cache user 1 at the initial snapshot; its cached copy becomes stale
        # (valid only in the past) when user 1 is updated.
        with client.read_only():
            get_user(1)
        update_user(dep, 1, score=10.0)
        # User 2 is also updated, so any later cached copy of it is valid
        # only from that commit onwards.
        update_user(dep, 2, score=20.0)
        dep.advance(1.0)
        # Cache user 2 at the newest snapshot only.
        with client.read_only(staleness=0):
            assert get_user(2)["score"] == 20.0
        client.stats.reset()
        # A wide-staleness transaction first uses user 1's old cached copy,
        # pinning itself to the old snapshot; user 2's only cached version is
        # valid only at the newest snapshot, so even though a sufficiently
        # fresh version exists it cannot be used: a consistency miss.
        with client.read_only(staleness=60):
            assert get_user(1)["score"] == 1.0
            get_user(2)
        assert client.stats.misses_by_type[MissType.CONSISTENCY] >= 1


class TestBaselineModes:
    def test_no_cache_mode_never_uses_cache(self):
        dep, _ = build_deployment()
        client = dep.client(mode=ConsistencyMode.NO_CACHE)
        get_user = make_get_user(client)
        with client.read_only():
            get_user(1)
            get_user(1)
        assert client.stats.hits == 0
        assert client.stats.cache_bypassed_calls == 2
        assert dep.cache.entry_count == 0

    def test_no_consistency_mode_reads_any_fresh_value(self):
        dep, _ = build_deployment()
        client = dep.client(mode=ConsistencyMode.NO_CONSISTENCY)
        get_user = make_get_user(client)
        with client.read_only():
            get_user(1)
        update_user(dep, 1, score=50.0)
        update_user(dep, 2, score=60.0)
        with client.read_only():
            value_one = get_user(1)
            value_two = client.query(Select("users", Eq("id", 2))).rows[0]
        # It happily mixes the stale cached user 1 with the fresh user 2 —
        # exactly the anomaly TxCache's consistent mode prevents.
        assert value_one["score"] == 1.0
        assert value_two["score"] == 60.0

    def test_no_consistency_mode_still_populates_cache(self):
        dep, _ = build_deployment()
        client = dep.client(mode=ConsistencyMode.NO_CONSISTENCY)
        get_user = make_get_user(client)
        with client.read_only():
            get_user(1)
        assert dep.cache.entry_count == 1


class TestLazyTimestampSelection:
    def test_cache_only_transaction_never_touches_database(self):
        dep, client = build_deployment()
        get_user = make_get_user(client)
        with client.read_only():
            get_user(1)
        ro_before = dep.database.stats.ro_transactions
        with client.read_only():
            get_user(1)
        assert dep.database.stats.ro_transactions == ro_before

    def test_db_transaction_started_lazily(self):
        dep, client = build_deployment()
        client.begin_ro()
        assert client.current_timestamp is None
        client.query(Select("users", Eq("id", 1)))
        assert client.current_timestamp is not None
        client.commit()

    def test_old_pin_triggers_new_snapshot_when_star_available(self):
        dep, client = build_deployment()
        # Create a pinned snapshot, then age it beyond the 5 s threshold.
        with client.read_only():
            client.query(Select("users", Eq("id", 1)))
        update_user(dep, 1, score=9.0)
        dep.advance(10.0)
        with client.read_only(staleness=60):
            client.query(Select("users", Eq("id", 1)))
            chosen = client.current_timestamp
        assert chosen == dep.database.latest_timestamp
        assert client.stats.pins_created >= 2

    def test_recent_pin_reused(self):
        dep, client = build_deployment()
        with client.read_only():
            client.query(Select("users", Eq("id", 1)))
        pins_before = client.stats.pins_created
        dep.advance(1.0)
        with client.read_only():
            client.query(Select("users", Eq("id", 2)))
        assert client.stats.pins_created == pins_before

    def test_pincushion_released_after_commit(self):
        dep, client = build_deployment()
        with client.read_only():
            client.query(Select("users", Eq("id", 1)))
        for snapshot in dep.pincushion.pinned_ids:
            assert dep.pincushion.snapshot(snapshot).in_use == 0
