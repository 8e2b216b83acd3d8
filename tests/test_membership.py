"""Tests for cluster elasticity: membership epochs, live key migration, and
failure-aware (degraded) cache routing.

The headline scenarios:

* a planned join/leave with migration keeps every still-servable entry
  servable — no cold-miss trough for the remapped slice;
* killing a socket cache node mid-workload degrades its lookups to misses
  (no exception escapes to the application), and after the failure
  threshold the node is evicted from the ring and traffic reroutes;
* membership behaves identically over both transports.
"""

from __future__ import annotations

import random

import pytest

from repro.cache.cluster import CacheCluster
from repro.cache.entry import EntryRecord
from repro.cache.hashring import ConsistentHashRing, _hash, range_contains
from repro.cache.membership import ClusterMembership
from repro.core.keys import cache_key
from repro.cache.server import SCAN_PAGE_KEYS, CacheServer
from repro.clock import ManualClock
from repro.comm.multicast import InvalidationBus, InvalidationMessage
from repro.core.api import ConsistencyMode
from repro.core.stats import MissType
from repro.db.query import Eq, Select
from repro.db.invalidation import InvalidationTag
from repro.deployment import TxCacheDeployment
from repro.interval import Interval
from tests.helpers import node_views, transports_under_test

# Overridable with REPRO_TRANSPORT=inprocess|socket (CI transport matrix).
TRANSPORTS = transports_under_test()


@pytest.fixture(params=TRANSPORTS)
def transport_kind(request):
    return request.param


def build_membership(transport_kind, nodes=3, bus=None):
    cluster = CacheCluster(
        node_count=nodes,
        capacity_bytes_per_node=4 * 1024 * 1024,
        clock=ManualClock(),
        invalidation_bus=bus,
        transport=transport_kind,
    )
    return cluster, ClusterMembership(cluster, chunk_size=16)


def fill(cluster, count=200, tagged=True):
    keys = [f"key-{i}" for i in range(count)]
    for i, key in enumerate(keys):
        tags = frozenset({InvalidationTag.key("items", "id", i % 20)}) if tagged else frozenset()
        cluster.put(key, {"i": i}, Interval(0), tags)
    return keys


# ----------------------------------------------------------------------
# Epochs and history
# ----------------------------------------------------------------------
class TestEpochs:
    def test_epoch_advances_on_every_change(self, transport_kind):
        cluster, membership = build_membership(transport_kind)
        try:
            assert membership.epoch == 0
            membership.join("cache3", capacity_bytes=1 << 20)
            membership.leave("cache3")
            membership.evict("cache0")
            assert membership.epoch == 3
            assert [record.change for record in membership.history] == [
                "genesis", "join", "leave", "evict",
            ]
            assert membership.history[-1].members == ("cache1", "cache2")
        finally:
            cluster.close()

    def test_rejoin_after_departure_is_recorded(self, transport_kind):
        cluster, membership = build_membership(transport_kind)
        try:
            membership.leave("cache1")
            membership.join("cache1", capacity_bytes=1 << 20)
            assert membership.stats.rejoins == 1
            assert membership.history[-1].change == "rejoin"
            assert "cache1" in cluster.ring
        finally:
            cluster.close()

    def test_join_existing_member_raises(self, transport_kind):
        cluster, membership = build_membership(transport_kind)
        try:
            with pytest.raises(ValueError):
                membership.join("cache0")
            with pytest.raises(KeyError):
                membership.leave("nope")
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# Live key migration
# ----------------------------------------------------------------------
class TestJoinMigration:
    def test_join_keeps_remapped_keys_servable(self, transport_kind):
        bus = InvalidationBus()
        cluster, membership = build_membership(transport_kind, bus=bus)
        try:
            keys = fill(cluster)
            bus.publish(
                InvalidationMessage(timestamp=5, tags=(InvalidationTag.key("items", "id", 3),))
            )
            before = {key: cluster.lookup(key, 0, 6) for key in keys}
            membership.join("cache3", capacity_bytes=1 << 22)
            moved = [key for key in keys if cluster.ring.node_for(key) == "cache3"]
            assert moved, "the join should take over part of the key space"
            for key in keys:
                result = cluster.lookup(key, 0, 6)
                assert result.hit == before[key].hit, key
                if result.hit:
                    assert result.value == before[key].value
                    # Migrated still-valid entries keep their interval shape.
                    assert result.raw_interval == before[key].raw_interval
            assert membership.stats.entries_migrated >= len(moved)
        finally:
            cluster.close()

    def test_migrated_still_valid_entries_keep_their_tags(self, transport_kind):
        bus = InvalidationBus()
        cluster, membership = build_membership(transport_kind, bus=bus)
        try:
            keys = fill(cluster, tagged=True)
            membership.join("cache3", capacity_bytes=1 << 22)
            moved = [key for key in keys if cluster.ring.node_for(key) == "cache3"]
            # Invalidate after the migration: migrated entries must truncate
            # on the *new* owner exactly as they would have on the old one.
            bus.publish(
                InvalidationMessage(timestamp=9, tags=(InvalidationTag.wildcard("items"),))
            )
            for key in moved:
                result = cluster.lookup(key, 0, 8)
                assert result.hit and result.interval.hi == 9
                assert not cluster.probe(key, 10, 20)
        finally:
            cluster.close()

    def test_cold_join_loses_the_remapped_slice(self, transport_kind):
        cluster, membership = build_membership(transport_kind)
        try:
            keys = fill(cluster)
            membership.join("cache3", capacity_bytes=1 << 22, migrate=False)
            moved = [key for key in keys if cluster.ring.node_for(key) == "cache3"]
            assert moved
            assert all(not cluster.lookup(key, 0, 6).hit for key in moved)
            assert membership.stats.entries_migrated == 0
        finally:
            cluster.close()

    def test_join_discards_migrated_keys_from_sources(self, transport_kind):
        cluster, membership = build_membership(transport_kind)
        try:
            keys = fill(cluster, tagged=False)
            total_before = cluster.entry_count
            membership.join("cache3", capacity_bytes=1 << 22)
            # Migration copies then discards: the cluster-wide entry count is
            # unchanged and no node holds a key it no longer owns.
            assert cluster.entry_count == total_before
            for name, view in node_views(cluster).items():
                for key in keys:
                    if view.versions_of(key):
                        assert cluster.ring.node_for(key) == name
            assert membership.stats.entries_discarded == membership.stats.entries_migrated
        finally:
            cluster.close()

    def test_weighted_join_takes_a_larger_share(self, transport_kind):
        cluster, membership = build_membership(transport_kind)
        try:
            keys = [f"key-{i}" for i in range(2000)]
            membership.join("heavy", capacity_bytes=1 << 22, weight=2.0)
            share = cluster.key_distribution(keys)["heavy"] / len(keys)
            # 2 of 5 effective weights → expect ~40% of the key space.
            assert 0.25 < share < 0.55
        finally:
            cluster.close()


class TestLeaveMigration:
    def test_leave_drains_entries_to_survivors(self, transport_kind):
        bus = InvalidationBus()
        cluster, membership = build_membership(transport_kind, bus=bus)
        try:
            keys = fill(cluster)
            before = {key: cluster.lookup(key, 0, 6) for key in keys}
            victim = cluster.ring.node_for(keys[0])
            membership.leave(victim)
            assert victim not in cluster.ring
            for key in keys:
                result = cluster.lookup(key, 0, 6)
                assert result.hit == before[key].hit, key
                if result.hit:
                    assert result.value == before[key].value
        finally:
            cluster.close()

    def test_leave_without_migration_cold_starts_the_slice(self, transport_kind):
        cluster, membership = build_membership(transport_kind)
        try:
            keys = fill(cluster)
            victim = cluster.ring.node_for(keys[0])
            owned = [key for key in keys if cluster.ring.node_for(key) == victim]
            membership.leave(victim, migrate=False)
            assert all(not cluster.lookup(key, 0, 6).hit for key in owned)
        finally:
            cluster.close()

    def test_last_node_leaving_empties_the_ring(self, transport_kind):
        cluster, membership = build_membership(transport_kind, nodes=1)
        try:
            fill(cluster, count=10)
            membership.leave("cache0")
            assert len(cluster.ring) == 0
            # Routing degrades rather than raising on an empty ring.
            assert not cluster.lookup("key-1", 0, 5).hit
            assert cluster.put("key-1", 1, Interval(0)) == (False, 0)
        finally:
            cluster.close()


class TestOneMover:
    """Counted: what the one entry mover asks for and ships (R = 2)."""

    @staticmethod
    def build(transport_kind):
        cluster = CacheCluster(
            node_count=4,
            capacity_bytes_per_node=4 * 1024 * 1024,
            clock=ManualClock(),
            transport=transport_kind,
            replication_factor=2,
            failure_threshold=2,
        )
        keys = [f"key-{i}" for i in range(300)]
        for key in keys:
            cluster.put(key, key, Interval(0))
        return cluster, ClusterMembership(cluster, chunk_size=16), keys

    @staticmethod
    def holders(cluster, key):
        return sorted(name for name, view in node_views(cluster).items() if view.versions_of(key))

    def test_a_join_sends_no_whole_store_keys_frame(self, transport_kind):
        cluster, membership, keys = self.build(transport_kind)
        try:
            for transport in cluster.transports.values():
                transport.op_counts.clear()
            membership.join("cache4", capacity_bytes=1 << 22)
            asked = {}
            for transport in cluster.transports.values():
                for op, count in transport.op_counts.items():
                    asked[op] = asked.get(op, 0) + count
            assert asked.get("keys", 0) == 0
            assert asked.get("keys_in_range", 0) >= 1
            assert membership.stats.entries_migrated > 0
            for key in keys:
                assert self.holders(cluster, key) == sorted(cluster.replicas_for(key)), key
        finally:
            cluster.close()

    def test_a_leave_installs_exactly_the_missing_replica_copies(self, transport_kind):
        cluster, membership, keys = self.build(transport_kind)
        try:
            staged = cluster.ring.copy()
            staged.remove_node("cache3")
            missing = sum(
                1
                for key in keys
                if "cache3" in self.holders(cluster, key)
                for node in staged.successors(key, 2)
                if node not in self.holders(cluster, key)
            )
            shipped = []
            install = cluster.install_entries

            def counted(node, records):
                shipped.extend((node, record.key) for record in records)
                return install(node, records)

            cluster.install_entries = counted
            membership.leave("cache3")
            assert missing > 0
            assert len(shipped) == len(set(shipped)) == missing
            assert membership.stats.entries_migrated == missing
            for key in keys:
                assert self.holders(cluster, key) == sorted(cluster.replicas_for(key)), key
        finally:
            cluster.close()

    def test_rejoin_after_a_failure_eviction_ends_on_the_replica_sets(self, transport_kind):
        cluster, membership, keys = self.build(transport_kind)
        try:
            victim = "cache1"
            routed_there = next(key for key in keys if cluster.replicas_for(key)[0] == victim)
            cluster.fail_node(victim)
            while victim in cluster.ring:
                cluster.lookup(routed_there, 0, 5)  # networked kinds: threshold eviction
            assert membership.stats.repairs == 1
            assert membership.rejoin(victim, capacity_bytes=1 << 22) > 0
            # The nodes that absorbed the victim's slice dropped their
            # displaced copies: the placement a join reaches.
            for key in keys:
                assert self.holders(cluster, key) == sorted(cluster.replicas_for(key)), key
            assert membership.stats.entries_discarded > 0
        finally:
            cluster.close()


class TestMembershipTransportParity:
    def test_join_leave_sequence_matches_across_transports(self):
        """The same membership trace routes and serves identically whether
        the nodes are in-process objects or real TCP servers."""
        from tests.helpers import TRANSPORTS as ALL_TRANSPORTS

        outcomes = {}
        # Always compares both transports (the point of the test), even when
        # REPRO_TRANSPORT restricts the parametrized suites.
        for kind in ALL_TRANSPORTS:
            bus = InvalidationBus()
            cluster, membership = build_membership(kind, bus=bus)
            try:
                keys = fill(cluster)
                membership.join("cache3", capacity_bytes=1 << 22)
                bus.publish(
                    InvalidationMessage(timestamp=7, tags=(InvalidationTag.wildcard("items"),))
                )
                membership.leave("cache1")
                membership.join("cache4", capacity_bytes=1 << 22, migrate=False)
                routing = {key: cluster.ring.node_for(key) for key in keys}
                lookups = {key: (cluster.lookup(key, 0, 6).hit, cluster.lookup(key, 8, 12).hit) for key in keys}
                outcomes[kind] = (
                    membership.epoch,
                    [record.change for record in membership.history],
                    sorted(cluster.ring.nodes),
                    routing,
                    lookups,
                    membership.stats.entries_migrated,
                    membership.stats.keys_migrated,
                )
            finally:
                cluster.close()
        assert outcomes["socket"] == outcomes["inprocess"]
        assert outcomes["socket-process"] == outcomes["inprocess"]


# ----------------------------------------------------------------------
# Ring diff / extraction plumbing
# ----------------------------------------------------------------------
class TestOwnershipPlumbing:
    def test_adding_a_node_moves_keys_only_onto_it(self):
        old = ConsistentHashRing(["a", "b", "c"])
        new = old.copy()
        new.add_node("d")
        gained = new.owned_ranges("d")
        moved = 0
        for i in range(500):
            key = f"key-{i}"
            in_gained = any(range_contains(lo, hi, _hash(key)) for lo, hi in gained)
            assert in_gained == (old.node_for(key) != new.node_for(key))
            moved += in_gained
        assert moved

    def test_extract_entries_pages_all_versions_of_a_key_together(self):
        server = CacheServer(clock=ManualClock(), capacity_bytes=1 << 22)
        for i in range(30):
            server.put(f"key-{i:02d}", i, Interval(0, 5))
            server.put(f"key-{i:02d}", i * 10, Interval(5, 9))
        seen = []
        cursor = None
        pages = 0
        while True:
            records, cursor = server.extract_entries(cursor, limit=7)
            pages += 1
            seen.extend(records)
            if cursor is None:
                break
        assert pages == 5  # ceil(30 / 7)
        assert len(seen) == 60
        by_key = {}
        for record in seen:
            by_key.setdefault(record.key, []).append(record)
        assert all(len(versions) == 2 for versions in by_key.values())
        assert server.stats.entries_extracted == 60

    def test_each_page_is_the_next_stored_keys_after_its_cursor(self):
        """Keys stored, dropped, and dropped then stored again between the
        pages of walks: every page is what a fresh sort of the store gives
        after its cursor, and the walk ends exactly when nothing is left."""
        rng = random.Random(7)
        server = CacheServer(clock=ManualClock(), capacity_bytes=1 << 26)
        for i in range(0, 400, 2):
            server.put(f"k{i:03d}", i, Interval(1, None))
        for walk in range(4):
            cursor, pages = None, 0
            while True:
                after = [key for key in server.keys() if cursor is None or key > cursor]
                records, next_cursor = server.extract_entries(cursor, limit=9)
                assert [record.key for record in records] == after[:9], (walk, pages)
                assert next_cursor == (after[8] if len(after) > 9 else None), (walk, pages)
                pages += 1
                if next_cursor is None:
                    break
                cursor = next_cursor
                for _ in range(rng.randrange(6)):
                    server.put(f"k{rng.randrange(400):03d}", 0, Interval(2, None))
                stored = server.keys()
                for key in rng.sample(stored, min(3, len(stored))):
                    server.discard_keys([key])
                    if rng.random() < 0.5:
                        server.put(key, 0, Interval(1, None))
            assert pages > 10

    def test_an_abandoned_walk_does_not_hold_every_key_stored_after_it(self):
        server = CacheServer(clock=ManualClock(), capacity_bytes=1 << 26)
        for i in range(100):
            server.put(f"a{i:05d}", i, Interval(1, None))
        server.extract_entries(None, limit=10)  # never resumed
        for i in range(20_000):
            server.put(f"b{i:05d}", i, Interval(1, None))
            server.discard_keys([f"b{i:05d}"])
        held = server._walk_keys
        assert held is None or len(held) <= 2 * server.key_count + SCAN_PAGE_KEYS

    def test_install_entries_respects_put_semantics(self):
        source = CacheServer(name="src", clock=ManualClock(), capacity_bytes=1 << 22)
        target = CacheServer(name="dst", clock=ManualClock(), capacity_bytes=1 << 22)
        source.put("k", "v", Interval(0), frozenset({InvalidationTag.key("t", "id", 1)}))
        records, _ = source.extract_entries()
        # The target already saw the invalidation the source has not: the
        # installed still-valid record must be truncated on insert.
        target.process_invalidation(
            InvalidationMessage(timestamp=4, tags=(InvalidationTag.key("t", "id", 1),))
        )
        assert target.install_entries(records) == 1
        assert target.versions_of("k")[0].interval.hi == 4
        # Duplicate installs are rejected, not double-stored.
        assert target.install_entries(records) == 0

    def test_discard_keys_releases_capacity(self):
        server = CacheServer(clock=ManualClock(), capacity_bytes=1 << 22)
        server.put("a", "x" * 100, Interval(0))
        server.put("b", "y" * 100, Interval(0))
        used = server.used_bytes
        assert server.discard_keys(["a", "missing"]) == 1
        assert server.used_bytes < used
        assert not server.lookup("a", 0, 5).hit
        assert server.was_ever_stored("a")  # history is kept

    @staticmethod
    def _scripted_walks(monkeypatch, pages_per_walk):
        """A membership whose cluster answers every ``key_digest`` walk in
        ``pages_per_walk`` pages (one digest per arc, split evenly), and
        the ``(arcs, cursor)`` of each round trip it was asked for."""
        cluster = CacheCluster(node_count=1, clock=ManualClock())
        calls = []

        def key_digest(node, arcs, cursor=None):
            calls.append((list(arcs), cursor))
            page = 0 if cursor is None else int(cursor)
            size = -(-len(arcs) // pages_per_walk)
            digests = [(1, 0, 0)] * len(arcs[page * size:(page + 1) * size])
            following = str(page + 1) if page + 1 < pages_per_walk else None
            return digests, following

        monkeypatch.setattr(cluster, "key_digest", key_digest)
        return ClusterMembership(cluster), calls

    def test_a_long_arcs_list_is_walked_in_groups_of_max_batch_items(self, monkeypatch):
        from repro.comm import wire

        membership, calls = self._scripted_walks(monkeypatch, pages_per_walk=1)
        arcs = [(i * 10, i * 10 + 5) for i in range(2 * wire.MAX_BATCH_ITEMS + 452)]
        firsts = [first for first, _ in membership._pages("key_digest", "cache0", arcs)]
        assert firsts == [0, wire.MAX_BATCH_ITEMS, 2 * wire.MAX_BATCH_ITEMS]
        assert [len(group) for group, _ in calls] == [wire.MAX_BATCH_ITEMS, wire.MAX_BATCH_ITEMS, 452]
        assert [arc for group, _ in calls for arc in group] == arcs

    def test_each_group_is_paged_to_its_end_before_the_next(self, monkeypatch):
        from repro.comm import wire

        monkeypatch.setattr(wire, "MAX_BATCH_ITEMS", 4)
        membership, calls = self._scripted_walks(monkeypatch, pages_per_walk=2)
        arcs = [(i * 10, i * 10 + 5) for i in range(6)]
        pages = list(membership._pages("key_digest", "cache0", arcs))
        assert calls == [(arcs[:4], None), (arcs[:4], "1"), (arcs[4:], None), (arcs[4:], "1")]
        assert [(first, len(page)) for first, page in pages] == [(0, 2), (0, 2), (4, 1), (4, 1)]

    def test_an_empty_arcs_list_costs_no_round_trip(self, monkeypatch):
        membership, calls = self._scripted_walks(monkeypatch, pages_per_walk=1)
        assert list(membership._pages("key_digest", "cache0", [])) == []
        assert calls == []


# ----------------------------------------------------------------------
# Failure-aware routing
# ----------------------------------------------------------------------
class TestFailureAwareRouting:
    def test_dead_socket_node_degrades_then_evicts(self):
        cluster = CacheCluster(
            node_count=3, clock=ManualClock(), transport="socket", failure_threshold=3
        )
        membership = ClusterMembership(cluster)
        try:
            keys = fill(cluster, count=60, tagged=False)
            victim = cluster.ring.node_for(keys[0])
            owned = [key for key in keys if cluster.ring.node_for(key) == victim]
            cluster.fail_node(victim)

            # Degraded phase: no exception, synthetic misses / dropped puts.
            for key in owned[:2]:
                result = cluster.lookup(key, 0, 6)
                assert not result.hit and result.degraded
            assert victim in cluster.suspect_nodes or victim not in cluster.ring
            while victim in cluster.ring:
                cluster.put(owned[0], 1, Interval(0))
            assert cluster.health.nodes_evicted == 1
            assert membership.history[-1].change == "evict"

            # Rerouted phase: the survivors own the slice and serve it.
            for key in owned:
                assert cluster.ring.node_for(key) != victim
                cluster.put(key, "refill", Interval(0))
                assert cluster.lookup(key, 0, 6).hit
            assert not cluster.suspect_nodes
        finally:
            cluster.close()

    def test_degradation_only_on_connectivity_errors(self):
        """A server-side error response must still raise (it is a bug, not
        a dead node)."""
        cluster = CacheCluster(node_count=1, clock=ManualClock(), transport="socket")
        try:
            transport = cluster.transports["cache0"]
            with pytest.raises(Exception, match="unknown cache operation"):
                transport._call("no-such-op")
            assert "cache0" in cluster.ring  # not treated as a failure
            assert cluster.health.transport_failures == 0
        finally:
            cluster.close()

    def test_mid_workload_crash_never_escapes_to_the_application(self):
        """Acceptance scenario: kill a socket cache node mid-workload; the
        client sees degraded misses (classified as such), never an
        exception, and the workload keeps committing after the ring heals."""
        deployment = TxCacheDeployment(
            cache_nodes=3, transport="socket", failure_threshold=3
        )
        try:
            from tests.helpers import simple_schema

            deployment.database.create_table(simple_schema())
            deployment.database.bulk_load(
                "users",
                [{"id": i, "name": f"user{i}", "region": 0, "score": 0.0} for i in range(1, 41)],
            )
            client = deployment.client(mode=ConsistencyMode.CONSISTENT)

            @client.cacheable(name="get_user")
            def get_user(user_id):
                return client.query(Select("users", Eq("id", user_id))).rows[0]

            rng = random.Random(11)

            def spin(rounds):
                for _ in range(rounds):
                    with client.read_only():
                        get_user(rng.randrange(1, 41))
                    if rng.random() < 0.25:  # updates publish invalidations
                        with client.read_write():
                            client.update(
                                "users", Eq("id", rng.randrange(1, 41)), {"score": 1.0}
                            )
                    deployment.advance(0.05)

            spin(60)  # warm the cache over all three nodes
            victim = deployment.cache.ring.nodes[0]
            victim_uid = next(
                uid
                for uid in range(1, 41)
                if deployment.cache.ring.node_for(cache_key("get_user", (uid,))) == victim
            )
            deployment.cache.fail_node(victim)
            # A read that routes to the dead node: served as a degraded miss.
            with client.read_only():
                assert get_user(victim_uid)["id"] == victim_uid
            spin(80)  # mid-workload: must not raise
            assert victim not in deployment.cache.ring
            assert deployment.cache.health.nodes_evicted == 1
            assert deployment.membership.history[-1].change == "evict"
            assert client.stats.misses_by_type[MissType.DEGRADED] > 0
            assert deployment.cache.health.degraded_lookups > 0

            # After eviction the survivors serve the remapped slice again.
            hits_before = client.stats.hits
            spin(80)
            assert client.stats.hits > hits_before
        finally:
            deployment.shutdown()

    def test_inprocess_fail_node_evicts_immediately(self):
        cluster = CacheCluster(node_count=2, clock=ManualClock())
        membership = ClusterMembership(cluster)
        try:
            cluster.fail_node("cache0")
            assert "cache0" not in cluster.ring
            assert cluster.node_count == 1
            assert membership.epoch == 1
        finally:
            cluster.close()

    def test_rejoin_after_failure_eviction(self, transport_kind):
        cluster, membership = build_membership(transport_kind)
        try:
            keys = fill(cluster, tagged=False)
            victim = cluster.ring.node_for(keys[0])
            cluster.fail_node(victim)
            if transport_kind != "inprocess":
                # Networked kinds keep the dead endpoint in the ring until
                # enough routed traffic fails (threshold eviction).
                while victim in cluster.ring:
                    cluster.lookup(keys[0], 0, 6)
            assert victim not in cluster.ring
            # Refill the survivors so the rejoin has something to migrate.
            for key in keys:
                cluster.put(key, "warm", Interval(0))
            membership.join(victim, capacity_bytes=1 << 22)
            assert membership.history[-1].change == "rejoin"
            assert victim in cluster.ring
            assert all(cluster.lookup(key, 0, 6).hit for key in keys)
        finally:
            cluster.close()

    def test_crashed_invalidation_subscriber_degrades_publishing(self):
        bus = InvalidationBus()
        cluster = CacheCluster(
            node_count=2, clock=ManualClock(), invalidation_bus=bus,
            transport="socket", failure_threshold=2,
        )
        try:
            cluster.fail_node("cache0")
            # Publishing must not raise even with a dead subscriber; after
            # enough failures the dead node is evicted and unsubscribed.
            bus.publish(InvalidationMessage(timestamp=1, tags=()))
            bus.publish(InvalidationMessage(timestamp=2, tags=()))
            assert "cache0" not in cluster.ring
            assert len(bus.subscribers) == 1
        finally:
            cluster.close()


class TestFailureAccounting:
    def test_any_successful_op_clears_suspect_status(self):
        """A suspect node that answers again — via any routed operation —
        must have its consecutive-failure count reset, not just via
        lookup/put."""
        cluster = CacheCluster(node_count=2, clock=ManualClock(), failure_threshold=3)
        try:
            cluster.note_transport_failure("cache0")
            cluster.note_transport_failure("cache0")
            assert cluster.suspect_nodes == ["cache0"]
            key = next(
                f"key-{i}" for i in range(100) if cluster.ring.node_for(f"key-{i}") == "cache0"
            )
            cluster.probe(key, 0, 5)  # succeeds against the healthy node
            assert cluster.suspect_nodes == []
            # Two fresh failures must NOT evict (the count was reset).
            cluster.note_transport_failure("cache0")
            cluster.note_transport_failure("cache0")
            assert "cache0" in cluster.ring
        finally:
            cluster.close()

    def test_migration_failures_are_recorded_without_evicting(self):
        """A node dying mid-migration marks it suspect but never performs a
        ring eviction from inside the membership change; the first routed
        failure afterwards completes it.  The mover asks every node that
        can hold a moving key for its inventory first, so the dead
        destination is found at its inventory page, before any install."""
        cluster = CacheCluster(
            node_count=3, clock=ManualClock(), transport="socket", failure_threshold=1
        )
        membership = ClusterMembership(cluster)
        try:
            keys = fill(cluster, count=60, tagged=False)
            victim = cluster.ring.nodes[0]
            cluster.processes[victim].shutdown()  # dies before the drain
            survivor = next(n for n in cluster.ring.nodes if n != victim)
            membership.leave(survivor)  # drain must survive a dead destination
            assert membership.stats.migration_nodes_lost == 1  # its failed inventory page
            assert membership.stats.migration_install_failures == 0
            assert victim in cluster.ring  # not evicted mid-migration...
            assert victim in cluster.suspect_nodes  # ...but already suspect
            cluster.lookup(keys[0] if cluster.ring.node_for(keys[0]) == victim
                           else next(k for k in keys if cluster.ring.node_for(k) == victim),
                           0, 5)
            assert victim not in cluster.ring  # first routed failure evicts
        finally:
            cluster.close()

    def test_manual_evict_counts_separately_from_failure_evictions(self):
        cluster = CacheCluster(node_count=2, clock=ManualClock())
        membership = ClusterMembership(cluster)
        try:
            membership.evict("cache0")
            assert membership.stats.manual_evictions == 1
            assert membership.stats.failure_evictions == 0
            cluster.fail_node("cache1")
            assert membership.stats.failure_evictions == 1
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# Cluster API details
# ----------------------------------------------------------------------
class TestClusterApi:
    def test_remove_unknown_node_raises_key_error(self, transport_kind):
        cluster = CacheCluster(node_count=2, clock=ManualClock(), transport=transport_kind)
        try:
            with pytest.raises(KeyError):
                cluster.remove_node("no-such-node")
            assert cluster.node_count == 2
        finally:
            cluster.close()

    def test_adopt_ring_rejects_unknown_members(self):
        cluster = CacheCluster(node_count=2, clock=ManualClock())
        try:
            rogue = ConsistentHashRing(["cache0", "cache1", "ghost"])
            with pytest.raises(ValueError):
                cluster.adopt_ring(rogue)
        finally:
            cluster.close()

    def test_provision_node_receives_stream_but_no_traffic(self):
        bus = InvalidationBus()
        cluster = CacheCluster(node_count=2, clock=ManualClock(), invalidation_bus=bus)
        try:
            server = cluster.provision_node("warmup", capacity_bytes=1 << 20)
            assert "warmup" not in cluster.ring
            bus.publish(InvalidationMessage(timestamp=3, tags=()))
            assert server.last_invalidation_timestamp == 3
            # install directly, then join the ring via adopt.
            cluster.install_entries(
                "warmup", [EntryRecord(key="k", value=1, interval=Interval(0))]
            )
            ring = cluster.ring.copy()
            ring.add_node("warmup")
            cluster.adopt_ring(ring)
            assert cluster.node_count == 3
        finally:
            cluster.close()
