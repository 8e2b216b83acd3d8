"""R-way replication: zero-loss failover, replica-aware migration, repair.

The headline scenarios, run under both transports via the fault-injection
harness (:mod:`tests.helpers`):

* killing or partitioning a cache node mid-workload with R=2 never serves a
  stale read (the validity-interval invariant of
  ``test_consistency_properties.py`` re-checked under failover) and never
  degrades a lookup — some replica always answers;
* puts fan out to the whole replica set and reads fail over along it, with
  replica-served hits accounted in :class:`ClusterHealthStats`;
* a crash eviction triggers an anti-entropy repair that restores the
  replication factor from the surviving copies — without fabricating
  validity on nodes that missed invalidations (the healed-partition case);
* ``replication_factor=1`` behaves exactly like the unreplicated cluster.
"""

from __future__ import annotations

import pytest

from repro.cache.cluster import CacheCluster
from repro.cache.membership import ClusterMembership
from repro.comm.multicast import InvalidationBus, InvalidationMessage
from repro.comm.transport import CacheNodeUnreachableError
from repro.core.keys import cache_key
from repro.core.stats import MissType
from repro.db.invalidation import InvalidationTag
from repro.deployment import TxCacheDeployment
from repro.interval import Interval
from tests.helpers import (
    ConsistencyHarness,
    FaultInjector,
    failover_batch,
    node_view,
    node_views,
    transports_under_test,
)

TRANSPORTS = transports_under_test()


@pytest.fixture(params=TRANSPORTS)
def transport_kind(request):
    return request.param


def build_cluster(transport_kind, nodes=3, factor=2, bus=None, failure_threshold=2):
    return CacheCluster(
        node_count=nodes,
        capacity_bytes_per_node=4 * 1024 * 1024,
        invalidation_bus=bus,
        transport=transport_kind,
        replication_factor=factor,
        failure_threshold=failure_threshold,
    )


def fill(cluster, count=120, tagged=True):
    keys = [f"key-{i}" for i in range(count)]
    for i, key in enumerate(keys):
        tags = frozenset({InvalidationTag.key("items", "id", i % 20)}) if tagged else frozenset()
        cluster.put(key, {"i": i}, Interval(0), tags)
    return keys


def holders_of(cluster, key):
    """The nodes whose server actually stores a copy of ``key``."""
    return sorted(
        name for name, view in node_views(cluster).items() if view.versions_of(key)
    )


# ----------------------------------------------------------------------
# Replica placement and accounting
# ----------------------------------------------------------------------
class TestReplicaPlacement:
    def test_puts_fan_out_to_the_full_replica_set(self, transport_kind):
        cluster = build_cluster(transport_kind)
        try:
            keys = fill(cluster)
            for key in keys:
                replicas = cluster.replicas_for(key)
                assert len(replicas) == 2
                assert replicas[0] == cluster.ring.node_for(key)
                assert holders_of(cluster, key) == sorted(replicas)
        finally:
            cluster.close()

    def test_replica_set_capped_by_ring_size(self, transport_kind):
        cluster = build_cluster(transport_kind, nodes=2, factor=3)
        try:
            cluster.put("k", 1, Interval(0))
            assert len(cluster.replicas_for("k")) == 2
            assert holders_of(cluster, "k") == sorted(cluster.ring.nodes)
        finally:
            cluster.close()

    def test_invalidations_truncate_every_replica(self, transport_kind):
        bus = InvalidationBus()
        cluster = build_cluster(transport_kind, bus=bus)
        try:
            keys = fill(cluster, tagged=True)
            bus.publish(
                InvalidationMessage(timestamp=6, tags=(InvalidationTag.wildcard("items"),))
            )
            for key in keys[:20]:
                for name in cluster.replicas_for(key):
                    for entry in node_view(cluster, name).versions_of(key):
                        assert not entry.still_valid
                        assert entry.interval.hi == 6
        finally:
            cluster.close()

    def test_r1_behaves_exactly_like_the_unreplicated_cluster(self, transport_kind):
        cluster = build_cluster(transport_kind, factor=1)
        try:
            keys = fill(cluster, tagged=False)
            for key in keys:
                assert cluster.replicas_for(key) == [cluster.ring.node_for(key)]
                assert holders_of(cluster, key) == [cluster.ring.node_for(key)]
            # One insertion per put: no hidden fan-out.
            assert cluster.aggregate_stats().insertions == len(keys)
            assert cluster.health.replica_served_lookups == 0
            assert cluster.health.replica_hits == 0
            # A crash with R=1 degrades exactly as before: no failover.
            victim = cluster.ring.node_for(keys[0])
            owned = [k for k in keys if cluster.ring.node_for(k) == victim]
            cluster.fail_node(victim)
            if transport_kind != "inprocess":
                result = cluster.lookup(owned[0], 0, 5)
                assert not result.hit and result.degraded
                assert cluster.health.replica_served_lookups == 0
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# Crash failover
# ----------------------------------------------------------------------
class TestCrashFailover:
    def test_killing_any_single_node_loses_no_cached_state(self, transport_kind):
        for victim_index in range(3):
            cluster = build_cluster(transport_kind)
            membership = ClusterMembership(cluster, chunk_size=16)
            try:
                keys = fill(cluster, tagged=False)
                victim = sorted(cluster.ring.nodes)[victim_index]
                cluster.fail_node(victim)
                # Every key stays servable throughout detection + eviction.
                for _round in range(cluster.failure_threshold + 1):
                    for key in keys:
                        result = cluster.lookup(key, 0, 5)
                        assert result.hit, (victim, key)
                        assert not result.degraded
                assert cluster.health.degraded_lookups == 0
                assert victim not in cluster.ring
                # Anti-entropy repair restored the replication factor.
                assert membership.stats.repairs == 1
                assert membership.stats.entries_re_replicated > 0
                for key in keys:
                    assert holders_of(cluster, key) == sorted(cluster.replicas_for(key))
            finally:
                cluster.close()

    def test_suspect_window_hits_are_classified_as_replica_served(self):
        """Socket transport: while the dead primary is still in the ring,
        lookups fail over and the replica's answers are accounted."""
        cluster = build_cluster("socket", failure_threshold=10)
        try:
            keys = fill(cluster, tagged=False)
            victim = cluster.ring.node_for(keys[0])
            owned = [k for k in keys if cluster.ring.node_for(k) == victim]
            cluster.fail_node(victim)
            for key in owned[:4]:
                assert cluster.lookup(key, 0, 5).hit
            assert victim in cluster.ring  # threshold not yet reached
            assert cluster.health.replica_served_lookups == 4
            assert cluster.health.replica_hits == 4
        finally:
            cluster.close()

    def test_batched_lookups_fail_over_per_request(self, transport_kind):
        from repro.cache.entry import LookupRequest

        cluster = build_cluster(transport_kind, failure_threshold=10)
        fault = FaultInjector(cluster)
        try:
            keys = fill(cluster, tagged=False)
            victim = cluster.ring.node_for(keys[0])
            fault.partition(victim)
            requests = [LookupRequest(key, 0, 5) for key in keys]
            results = cluster.multi_lookup(requests)
            assert all(result.hit for result in results)
            assert not any(result.degraded for result in results)
            assert cluster.health.replica_hits > 0
        finally:
            cluster.close()

    def test_a_failed_over_batch_is_answered_in_request_order(self):
        """The failed node's request fails over onto the node that holds the
        rest of the batch: that node's group covers the whole batch in
        another order, and each request still gets its own answer."""
        from repro.cache.entry import LookupRequest

        cluster = build_cluster("inprocess", failure_threshold=10)
        try:
            keys = fill(cluster, tagged=False)
            batch, victim = failover_batch(cluster.replicas_for, keys)

            def unreachable(requests):
                raise CacheNodeUnreachableError(f"cache node {victim!r} is down")

            cluster.transports[victim].multi_lookup = unreachable
            results = cluster.multi_lookup([LookupRequest(key, 0, 5) for key in batch])
            assert [result.key for result in results] == batch
            assert [result.value for result in results] == [
                {"i": keys.index(key)} for key in batch
            ]
            assert cluster.health.replica_hits == 1
        finally:
            cluster.close()

    def test_all_replicas_down_degrades_instead_of_raising(self, transport_kind):
        cluster = build_cluster(transport_kind, nodes=3, factor=2, failure_threshold=10)
        fault = FaultInjector(cluster)
        try:
            keys = fill(cluster, tagged=False)
            key = keys[0]
            for node in cluster.replicas_for(key):
                fault.partition(node)
            result = cluster.lookup(key, 0, 5)
            assert not result.hit and result.degraded
            assert cluster.health.degraded_lookups == 1
            # Sent to both replicas, stored by neither.
            assert cluster.put(key, "new", Interval(1)) == (False, 2)
            assert cluster.health.degraded_puts == 1
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# Consistency under fault injection (the paper invariant, under failover)
# ----------------------------------------------------------------------
class TestConsistencyUnderFaults:
    def _deployment(self, transport_kind, factor=2, failure_threshold=2):
        return TxCacheDeployment(
            cache_nodes=3,
            cache_capacity_bytes_per_node=256 * 1024,
            transport=transport_kind,
            replication_factor=factor,
            failure_threshold=failure_threshold,
            # These tests pin the *unsupervised* failure semantics (a crash
            # evicts, the ring stays short); kill-and-respawn lives in
            # tests/test_supervisor.py.
            supervision=False,
        )

    def test_no_stale_read_across_a_mid_workload_crash(self, transport_kind):
        deployment = self._deployment(transport_kind)
        try:
            harness = ConsistencyHarness(deployment, seed=7)
            harness.run(40)  # warm: mixed reads and writes
            victim = deployment.cache.ring.nodes[0]
            deployment.cache.fail_node(victim)
            harness.run(80)  # mid-workload crash: every read still consistent
            assert victim not in deployment.cache.ring
            assert harness.reads > 10 and harness.writes > 5
            # Zero-loss: with R=2 no lookup ever degraded to a synthetic miss.
            assert deployment.cache.health.degraded_lookups == 0
            assert harness.client.stats.misses_by_type[MissType.DEGRADED] == 0
        finally:
            deployment.shutdown()

    def test_no_stale_read_across_a_partition_and_heal(self, transport_kind):
        # A high threshold keeps the partitioned node in the ring, so the
        # heal path (frozen watermark, replica-served suspect window) is
        # exercised deterministically rather than racing the eviction.
        deployment = self._deployment(transport_kind, failure_threshold=1000)
        fault = FaultInjector(deployment.cache)
        try:
            harness = ConsistencyHarness(deployment, seed=11)
            harness.run(40)
            victim = deployment.cache.ring.nodes[0]
            fault.partition(victim)
            harness.run(30)  # reads fail over; writes skip the dead replica
            assert victim in deployment.cache.ring
            fault.heal(victim)
            harness.run(40)  # healed: its frozen watermark must protect it
            assert harness.reads > 15
            assert deployment.cache.health.replica_served_lookups > 0
        finally:
            deployment.shutdown()

    def test_unreplicated_crash_only_degrades_never_lies(self):
        """R=1 under a crash: misses and DEGRADED classifications are fine,
        inconsistency is not."""
        deployment = self._deployment("socket", factor=1)
        try:
            harness = ConsistencyHarness(deployment, seed=3)
            harness.run(40)
            deployment.cache.fail_node(deployment.cache.ring.nodes[0])
            harness.run(80)
        finally:
            deployment.shutdown()


# ----------------------------------------------------------------------
# Anti-entropy repair and watermark safety
# ----------------------------------------------------------------------
class TestRepair:
    def test_repair_is_a_noop_for_unreplicated_clusters(self, transport_kind):
        cluster = build_cluster(transport_kind, factor=1)
        membership = ClusterMembership(cluster)
        try:
            fill(cluster, count=30)
            assert membership.repair() == 0
            assert membership.stats.repairs == 0
        finally:
            cluster.close()

    def test_repair_restores_factor_after_manual_thinning(self, transport_kind):
        cluster = build_cluster(transport_kind)
        membership = ClusterMembership(cluster)
        try:
            keys = fill(cluster, count=60, tagged=False)
            # Manually strip one replica of a few keys to fake entropy.
            stripped = keys[:5]
            for key in stripped:
                replica = cluster.replicas_for(key)[1]
                cluster.discard_keys(replica, [key])
                assert holders_of(cluster, key) != sorted(cluster.replicas_for(key))
            installed = membership.repair()
            assert installed >= len(stripped)
            for key in stripped:
                assert holders_of(cluster, key) == sorted(cluster.replicas_for(key))
            # A second sweep finds nothing missing.
            assert membership.repair() == 0
        finally:
            cluster.close()

    def test_repair_never_fabricates_validity_on_a_healed_partition(self, transport_kind):
        """A node that missed invalidations keeps its frozen watermark: repair
        must not advance it, or its un-truncated still-valid entries would
        serve values at timestamps whose invalidations it never processed."""
        bus = InvalidationBus()
        cluster = build_cluster(transport_kind, bus=bus, failure_threshold=100)
        membership = ClusterMembership(cluster)
        fault = FaultInjector(cluster)
        try:
            keys = fill(cluster, count=60, tagged=True)
            bus.publish(InvalidationMessage(timestamp=4, tags=()))
            victim = cluster.ring.nodes[0]
            fault.partition(victim)
            # Invalidate every entry while the victim cannot hear it.
            bus.publish(
                InvalidationMessage(timestamp=8, tags=(InvalidationTag.wildcard("items"),))
            )
            fault.heal(victim)
            membership.repair()
            assert cluster.watermark(victim) == 4  # frozen, not force-advanced
            # The healed node must not satisfy post-invalidation timestamps
            # from its stale still-valid entries.
            for key in keys:
                if victim in cluster.replicas_for(key):
                    assert not cluster.transports[victim].probe(key, 8, 20), key
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# Replica-aware migration
# ----------------------------------------------------------------------
class TestReplicatedMigration:
    def test_join_preserves_exact_replica_placement(self, transport_kind):
        bus = InvalidationBus()
        cluster = build_cluster(transport_kind, bus=bus)
        membership = ClusterMembership(cluster, chunk_size=16)
        try:
            keys = fill(cluster)
            before = {key: cluster.lookup(key, 0, 5) for key in keys}
            membership.join("cache3", capacity_bytes=1 << 22)
            for key in keys:
                result = cluster.lookup(key, 0, 5)
                assert result.hit == before[key].hit
                if result.hit:
                    assert result.value == before[key].value
                assert holders_of(cluster, key) == sorted(cluster.replicas_for(key))
        finally:
            cluster.close()

    def test_leave_keeps_every_key_replicated(self, transport_kind):
        cluster = build_cluster(transport_kind)
        membership = ClusterMembership(cluster, chunk_size=16)
        try:
            keys = fill(cluster, tagged=False)
            victim = cluster.ring.nodes[0]
            membership.leave(victim)
            for key in keys:
                assert cluster.lookup(key, 0, 5).hit
                replicas = cluster.replicas_for(key)
                assert len(replicas) == 2
                for replica in replicas:
                    assert node_view(cluster, replica).versions_of(key), (key, replica)
        finally:
            cluster.close()

    def test_join_warms_keys_the_old_primary_never_stored(self, transport_kind):
        """Regression: the join planner ranks each key's stream source by
        replica order *among actual holders* — a key that landed only on its
        second replica (its primary was partitioned at put time) must still
        be warmed onto the joiner."""
        cluster = build_cluster(transport_kind, failure_threshold=1000)
        membership = ClusterMembership(cluster, chunk_size=16)
        fault = FaultInjector(cluster)
        try:
            fill(cluster, tagged=False)
            victim = cluster.ring.nodes[0]
            fault.partition(victim)
            orphans = [f"orphan-{i}" for i in range(60)]
            for key in orphans:
                cluster.put(key, key.upper(), Interval(0))  # skips the victim
            fault.heal(victim)
            membership.join("cache3", capacity_bytes=1 << 22)
            gained = [k for k in orphans if "cache3" in cluster.replicas_for(k)]
            assert gained, "the joiner should enter some orphan's replica set"
            for key in gained:
                assert node_view(cluster, "cache3").versions_of(key), key
                # Routed reads serve the copy whenever the joiner is the
                # primary (a healed old primary that missed the put may
                # still answer a legitimate miss for the others).
                if cluster.replicas_for(key)[0] == "cache3":
                    assert cluster.lookup(key, 0, 5).value == key.upper()
        finally:
            cluster.close()

    def test_rejoin_after_crash_is_warmed_and_replicated(self, transport_kind):
        cluster = build_cluster(transport_kind)
        membership = ClusterMembership(cluster, chunk_size=16)
        try:
            keys = fill(cluster, tagged=False)
            victim = cluster.ring.nodes[0]
            cluster.fail_node(victim)
            while victim in cluster.ring:
                cluster.lookup(keys[0], 0, 5)  # threshold eviction
            membership.join(victim, capacity_bytes=1 << 22)
            assert membership.history[-1].change == "rejoin"
            for key in keys:
                assert cluster.lookup(key, 0, 5).hit
                assert holders_of(cluster, key) == sorted(cluster.replicas_for(key))
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# Invalidation delivery regression (evicted-then-rejoined nodes)
# ----------------------------------------------------------------------
class TestInvalidationDelivery:
    def test_rejoined_node_is_not_double_delivered_after_rewarm(self, transport_kind):
        """Regression: re-attaching the bus after an evict + rejoin used to
        add a second stream guard for the node, delivering every
        invalidation tag twice (double-counted stats, double truncation
        work)."""
        bus = InvalidationBus()
        cluster = build_cluster(transport_kind, bus=bus)
        membership = ClusterMembership(cluster, chunk_size=16)
        try:
            fill(cluster, count=30)
            victim = cluster.ring.nodes[0]
            cluster.fail_node(victim)
            while victim in cluster.ring:
                cluster.lookup("key-0", 0, 5)  # threshold eviction
            membership.join(victim, capacity_bytes=1 << 22)  # re-warm
            # A coordinator re-attaching the bus (e.g. after re-warming the
            # tier) must replace subscriptions, not stack them.
            cluster.attach_invalidation_bus(bus)
            bus.publish(
                InvalidationMessage(timestamp=5, tags=(InvalidationTag.key("items", "id", 1),))
            )
            for name, view in node_views(cluster).items():
                assert view.stats.invalidation_messages == 1, name
            assert len(bus.subscribers) == cluster.node_count
        finally:
            cluster.close()

    def test_attach_twice_is_idempotent(self, transport_kind):
        bus = InvalidationBus()
        cluster = build_cluster(transport_kind, bus=bus)
        try:
            cluster.attach_invalidation_bus(bus)
            bus.publish(InvalidationMessage(timestamp=3, tags=()))
            for view in node_views(cluster).values():
                assert view.last_invalidation_timestamp == 3
                assert view.stats.invalidation_messages == 1
            assert len(bus.subscribers) == cluster.node_count
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# End-to-end: the client library over a replicated, failing tier
# ----------------------------------------------------------------------
class TestClientOverReplication:
    def test_client_hits_survive_a_crash(self, transport_kind):
        from repro.db.query import Eq, Select
        from tests.helpers import simple_schema

        deployment = TxCacheDeployment(
            cache_nodes=3,
            transport=transport_kind,
            replication_factor=2,
            failure_threshold=2,
        )
        try:
            deployment.database.create_table(simple_schema())
            deployment.database.bulk_load(
                "users",
                [{"id": i, "name": f"user{i}", "region": 0, "score": 0.0} for i in range(1, 31)],
            )
            client = deployment.client()

            @client.cacheable(name="get_user")
            def get_user(user_id):
                return client.query(Select("users", Eq("id", user_id))).rows[0]

            with client.read_only():
                for uid in range(1, 31):
                    get_user(uid)  # misses: fill all replicas

            victim = deployment.cache.ring.nodes[0]
            victim_uid = next(
                uid
                for uid in range(1, 31)
                if deployment.cache.ring.node_for(cache_key("get_user", (uid,))) == victim
            )
            deployment.cache.fail_node(victim)
            misses_before = client.stats.misses
            with client.read_only():
                for uid in range(1, 31):
                    assert get_user(uid)["id"] == uid
            # Every read after the crash was still a cache hit (zero loss).
            assert client.stats.misses == misses_before
            assert client.stats.misses_by_type[MissType.DEGRADED] == 0
            assert get_user.__txcache_name__ == "get_user"
            assert victim_uid is not None
        finally:
            deployment.shutdown()
