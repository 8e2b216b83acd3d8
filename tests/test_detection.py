"""The one failure detector: the routing threshold, on every transport.

A cache node that stops answering is found by the calls that reach it —
routed lookups and puts, the invalidation stream of commits, the stale-entry
sweeps housekeeping sends, the supervisor's probes — and after
``failure_threshold`` consecutive failures it is evicted from the ring.  A
node that answers in between is cleared.  These tests hold that rule on
every transport kind, for a crash (:meth:`CacheCluster.fail_node`: the
store is gone) and for a partition (:class:`tests.helpers.FaultInjector`:
the store is kept), and pin the churn schedules' exact counts that rest on
it.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.experiments import churn
from repro.cache.cluster import CacheCluster
from repro.cache.entry import LookupRequest
from repro.cache.membership import ClusterMembership
from repro.comm.multicast import InvalidationBus, InvalidationMessage
from repro.db.query import Eq, Select
from repro.deployment import TxCacheDeployment
from repro.interval import Interval
from tests.helpers import (
    FaultInjector,
    node_view,
    simple_schema,
    transports_under_test,
    update_user,
)

TRANSPORTS = transports_under_test()


@pytest.fixture(params=TRANSPORTS)
def transport_kind(request):
    return request.param


def build(transport_kind, threshold=3, bus=None):
    cluster = CacheCluster(
        node_count=3,
        capacity_bytes_per_node=1 << 22,
        transport=transport_kind,
        failure_threshold=threshold,
        invalidation_bus=bus,
    )
    return cluster, ClusterMembership(cluster)


def fill(cluster, count=60):
    keys = [f"key-{i}" for i in range(count)]
    for i, key in enumerate(keys):
        cluster.put(key, {"i": i}, Interval(0))
    return keys


def owned_by(cluster, keys, node):
    return [key for key in keys if cluster.ring.node_for(key) == node]


@pytest.mark.parametrize("threshold", [1, 3])
def test_a_partitioned_node_is_evicted_at_the_threshold_not_before(transport_kind, threshold):
    bus = InvalidationBus()
    cluster, membership = build(transport_kind, threshold=threshold, bus=bus)
    try:
        keys = fill(cluster)
        victim = cluster.ring.node_for(keys[0])
        mine = owned_by(cluster, keys, victim)
        FaultInjector(cluster).partition(victim)
        for failures in range(1, threshold):
            result = cluster.lookup(mine[failures % len(mine)], 0, 6)
            assert not result.hit and result.degraded
            assert victim in cluster.ring
            assert cluster.suspect_nodes == [victim]
            assert cluster.health.transport_failures == failures
        assert membership.epoch == 0
        assert len(bus.subscribers) == 3
        # The failure that reaches the threshold evicts the node inside the
        # lookup, which then reroutes to the key's new owner: a plain miss.
        result = cluster.lookup(mine[0], 0, 6)
        assert not result.hit and not result.degraded
        assert victim not in cluster.ring
        assert cluster.suspect_nodes == []
        assert cluster.health.nodes_evicted == 1
        assert cluster.health.suspect_marks == 1
        assert membership.epoch == 1
        assert membership.history[-1].change == "evict"
        assert membership.stats.failure_evictions == 1
        assert len(bus.subscribers) == 2
    finally:
        cluster.close()


def test_a_partition_healed_before_the_threshold_evicts_nobody(transport_kind):
    """A node that flaps — cut off for fewer failures than the threshold,
    then answering — is cleared each time, keeps its store, and never
    costs a membership change."""
    cluster, membership = build(transport_kind, threshold=3)
    try:
        keys = fill(cluster)
        victim = cluster.ring.node_for(keys[0])
        mine = owned_by(cluster, keys, victim)
        injector = FaultInjector(cluster)
        for cycle in range(3):
            injector.partition(victim)
            for _ in range(cluster.failure_threshold - 1):
                assert cluster.lookup(mine[0], 0, 6).degraded
            assert cluster.suspect_nodes == [victim]
            injector.heal(victim)
            assert cluster.lookup(mine[0], 0, 6).hit
            assert cluster.suspect_nodes == []
            assert cluster.health.recoveries == cycle + 1
        assert victim in cluster.ring
        assert cluster.health.nodes_evicted == 0
        assert cluster.health.transport_failures == 3 * (cluster.failure_threshold - 1)
        assert membership.epoch == 0
        assert all(cluster.lookup(key, 0, 6).hit for key in keys)
    finally:
        cluster.close()


def test_intermittent_loss_evicts_at_the_first_run_of_threshold_failures(transport_kind):
    """Seeded loss on one node: each lost call fails it, each delivered one
    clears it.  The node is evicted exactly when the first run of
    ``failure_threshold`` consecutive losses completes, and until then
    every delivered lookup is a hit from its kept store."""
    cluster, membership = build(transport_kind, threshold=3)
    try:
        keys = fill(cluster)
        victim = cluster.ring.node_for(keys[0])
        mine = owned_by(cluster, keys, victim)
        injector = FaultInjector(cluster)
        rng = random.Random(5)
        run = 0
        calls = 0
        runs_cut_short = 0
        while victim in cluster.ring:
            assert calls < 500, "the seeded loss never ran to the threshold"
            lost = rng.random() < 0.5
            if lost:
                injector.partition(victim)
            else:
                injector.heal(victim)
                runs_cut_short += run > 0
            result = cluster.lookup(mine[calls % len(mine)], 0, 6)
            calls += 1
            run = run + 1 if lost else 0
            evicted = run == cluster.failure_threshold
            assert (victim not in cluster.ring) == evicted
            # The evicting failure reroutes the lookup to the key's new owner.
            assert result.degraded == (lost and not evicted)
            assert result.hit == (not lost)
        assert run == cluster.failure_threshold
        assert runs_cut_short >= 1
        assert cluster.health.recoveries == runs_cut_short
        assert cluster.health.nodes_evicted == 1
        assert membership.stats.failure_evictions == 1
    finally:
        cluster.close()


def test_stale_entry_sweeps_detect_a_crash_no_lookup_reached(transport_kind):
    """Housekeeping's sweep reaches every node, so a crashed node that no
    request routes to is still found: one failure per sweep, evicted at the
    threshold, while the survivors keep being swept."""
    cluster, membership = build(transport_kind, threshold=3)
    try:
        fill(cluster)
        victim = cluster.ring.nodes[1]
        cluster.fail_node(victim)
        for sweeps in range(1, cluster.failure_threshold):
            assert cluster.evict_stale(0) == 0
            assert victim in cluster.ring
            assert cluster.health.degraded_ops == sweeps
        cluster.evict_stale(0)
        assert victim not in cluster.ring
        assert cluster.health.degraded_ops == cluster.failure_threshold
        assert cluster.health.degraded_lookups == 0
        assert membership.history[-1].change == "evict"
        cluster.evict_stale(0)
        assert cluster.health.degraded_ops == cluster.failure_threshold
    finally:
        cluster.close()


def test_a_commit_reaching_a_crashed_node_counts_toward_its_eviction(transport_kind):
    deployment = TxCacheDeployment(
        cache_nodes=2, transport=transport_kind, failure_threshold=3
    )
    try:
        deployment.database.create_table(simple_schema())
        deployment.database.bulk_load(
            "users",
            [{"id": i, "name": f"user{i}", "region": 0, "score": 0.0} for i in range(1, 6)],
        )
        deployment.cache.fail_node("cache1")
        for commits in range(1, deployment.failure_threshold):
            update_user(deployment, commits, score=1.0)
            assert deployment.cache.suspect_nodes == ["cache1"]
            assert deployment.cache.health.degraded_ops == commits
        assert deployment.membership.epoch == 0
        update_user(deployment, deployment.failure_threshold, score=1.0)
        assert "cache1" not in deployment.cache.ring
        assert deployment.membership.history[-1].change == "evict"
        assert len(deployment.invalidation_bus.subscribers) == 1
        # The survivor kept receiving the stream throughout.
        assert node_view(deployment.cache, "cache0").last_invalidation_timestamp == (
            deployment.database.latest_timestamp
        )
    finally:
        deployment.shutdown()


def test_an_invalidation_a_node_missed_goes_ahead_of_the_next(transport_kind):
    """A node below the threshold that missed a commit's invalidation must
    not let a later message move its watermark past the gap, or it serves
    the entry that invalidation should have truncated."""
    deployment = TxCacheDeployment(
        cache_nodes=2, transport=transport_kind, failure_threshold=3
    )
    try:
        deployment.database.create_table(simple_schema())
        deployment.database.bulk_load(
            "users",
            [{"id": i, "name": f"user{i}", "region": 0, "score": float(i)} for i in range(1, 6)],
        )
        client = deployment.client()

        @client.cacheable(name="score")
        def score(uid):
            return client.query(Select("users", Eq("id", uid))).rows[0]["score"]

        with client.read_only(0.0):
            assert score(1) == 1.0
        nodes = sorted(deployment.cache.transports)
        fault = FaultInjector(deployment.cache)
        for name in nodes:
            fault.partition(name)
        update_user(deployment, 1, score=99.0)
        assert deployment.cache.suspect_nodes == nodes
        assert deployment.cache.health.degraded_ops == len(nodes)  # one charge each
        for name in nodes:
            fault.heal(name)
        delivered = update_user(deployment, 2, score=5.0)
        deployment.advance(1)
        with client.read_only(0.0):
            assert score(1) == 99.0
        for name in nodes:
            assert node_view(deployment.cache, name).last_invalidation_timestamp == delivered
    finally:
        deployment.shutdown()


@pytest.mark.parametrize("answered", ["invalidation", "sweep"])
def test_only_consecutive_failures_count_toward_the_threshold(transport_kind, answered):
    """Invalidations a node does not take alternate with calls it answers —
    a delivered invalidation, or a stale-entry sweep — so no two failures
    are consecutive: each answer clears the node, and three failures in
    five calls evict nobody."""
    bus = InvalidationBus()
    cluster, membership = build(transport_kind, threshold=3, bus=bus)
    try:
        fault = FaultInjector(cluster)
        for timestamp in range(1, 6):
            if timestamp % 2:
                fault.partition("cache1")
                bus.publish(InvalidationMessage(timestamp=timestamp, tags=()))
                assert cluster.suspect_nodes == ["cache1"]
                fault.heal("cache1")
            else:
                if answered == "invalidation":
                    bus.publish(InvalidationMessage(timestamp=timestamp, tags=()))
                else:
                    cluster.evict_stale(0)
                assert cluster.suspect_nodes == []
        assert "cache1" in cluster.ring
        assert cluster.health.nodes_evicted == 0
        assert membership.epoch == 0
        bus.publish(InvalidationMessage(timestamp=6, tags=()))
        assert node_view(cluster, "cache1").last_invalidation_timestamp == 6
    finally:
        cluster.close()


def test_a_batch_across_a_crashed_node_answers_in_request_order(transport_kind):
    """Unreplicated, a batch that spans every node gets the survivors'
    hits and the crashed node's degraded misses, each in its own slot."""
    cluster, _membership = build(transport_kind, threshold=3)
    try:
        keys = fill(cluster, count=30)
        victim = cluster.ring.node_for(keys[0])
        cluster.fail_node(victim)
        results = cluster.multi_lookup([LookupRequest(key, 0, 6) for key in keys])
        assert [result.key for result in results] == keys
        for key, result in zip(keys, results):
            crashed = cluster.ring.node_for(key) == victim
            assert result.degraded == crashed
            assert result.hit == (not crashed)
            if result.hit:
                assert result.value == {"i": keys.index(key)}
        assert cluster.health.degraded_lookups == len(owned_by(cluster, keys, victim))
        assert cluster.health.transport_failures == 1
    finally:
        cluster.close()


def test_a_rejoined_node_starts_empty_and_owes_no_failures(transport_kind):
    """A crash loses the node's store: once evicted and rejoined cold, the
    node answers its keys with plain misses, not with what it held, and
    starts with a clean failure count."""
    cluster, membership = build(transport_kind, threshold=3)
    try:
        keys = fill(cluster)
        victim = cluster.ring.node_for(keys[0])
        mine = owned_by(cluster, keys, victim)
        cluster.fail_node(victim)
        while victim in cluster.ring:
            cluster.lookup(mine[0], 0, 6)
        membership.join(victim, capacity_bytes=1 << 22, migrate=False)
        assert membership.history[-1].change == "rejoin"
        assert node_view(cluster, victim).keys() == []
        assert cluster.suspect_nodes == []
        for key in owned_by(cluster, keys, victim):
            result = cluster.lookup(key, 0, 6)
            assert not result.hit and not result.degraded
        assert cluster.suspect_nodes == []
        # Its count starts over: threshold - 1 fresh failures do not evict.
        injector = FaultInjector(cluster)
        injector.partition(victim)
        for _ in range(cluster.failure_threshold - 1):
            cluster.lookup(mine[0], 0, 6)
        assert victim in cluster.ring
        assert cluster.health.nodes_evicted == 1
    finally:
        cluster.close()


def test_a_planned_leave_is_no_failure(transport_kind):
    """Leaving is a membership change, not a death: nothing is charged,
    nothing is evicted, and the departing slice stays warm."""
    cluster, membership = build(transport_kind, threshold=1)
    try:
        keys = fill(cluster)
        leaver = cluster.ring.node_for(keys[0])
        membership.leave(leaver)
        assert membership.history[-1].change == "leave"
        assert leaver not in cluster.ring
        assert cluster.health.transport_failures == 0
        assert cluster.health.nodes_evicted == 0
        assert membership.stats.failure_evictions == 0
        assert all(cluster.lookup(key, 0, 6).hit for key in keys)
        assert cluster.health.degraded_lookups == 0
    finally:
        cluster.close()


def test_supervision_alone_detects_an_idle_crash_at_the_threshold(transport_kind):
    """A crashed node that no traffic reaches is found by the supervisor's
    one probe per housekeeping pass, charged to the threshold like any
    failed call: evicted after exactly ``failure_threshold`` passes, under
    every transport, and then respawned once its backoff has run out."""
    deployment = TxCacheDeployment(
        cache_nodes=3,
        transport=transport_kind,
        replication_factor=2,
        supervision=True,
    )
    try:
        supervisor = deployment.supervisor
        deployment.cache.fail_node("cache1")
        for passes in range(1, deployment.failure_threshold):
            deployment.housekeeping()
            assert "cache1" in deployment.cache.ring, passes
            assert supervisor.states["cache1"] == "serving"
        assert deployment.membership.epoch == 0
        deployment.housekeeping()
        assert "cache1" not in deployment.cache.ring
        assert supervisor.states["cache1"] == "backoff"
        assert deployment.membership.history[-1].change == "evict"
        assert deployment.cache.health.transport_failures == deployment.failure_threshold
        deployment.housekeeping()  # no time has passed: still backing off
        assert supervisor.states["cache1"] == "backoff"
        deployment.advance(1.0)
        deployment.housekeeping()
        assert "cache1" in deployment.cache.ring
        assert supervisor.states["cache1"] == "serving"
        assert supervisor.stats.respawns == 1
        deployment.housekeeping()
        assert supervisor.stats.deaths_detected == 1
        assert deployment.cache.health.nodes_evicted == 1
    finally:
        deployment.shutdown()


#: ``churn(schedule)``'s counts per run label: hit rate (6 places), replica
#: hits, degraded lookups, nodes evicted, membership epochs, entries
#: migrated.  Exact: the runs are on a virtual clock.
CHURN_COUNTS = {
    "crash": {
        "baseline": (0.730514, 0, 0, 0, 0, 0),
        "crash, R=2": (0.730514, 3, 0, 1, 1, 0),
        "crash, unreplicated": (0.676856, 0, 2, 1, 1, 0),
    },
    "join": {
        "baseline": (0.730398, 0, 0, 0, 0, 0),
        "join + migration": (0.730514, 0, 0, 0, 1, 248),
        "join, cold": (0.703917, 0, 0, 0, 1, 0),
    },
    "rolling-restart": {
        "baseline": (0.730514, 0, 0, 0, 0, 0),
        "replicated": (0.730514, 2, 0, 2, 4, 1680),
        "unreplicated": (0.599898, 0, 3, 2, 4, 108),
    },
}


@pytest.mark.parametrize("schedule", sorted(CHURN_COUNTS))
def test_each_churn_schedule_reads_its_recorded_counts(schedule):
    """The detection verdict's table: a crash in a churn schedule is found
    by the threshold (one eviction per crashed node), and replication turns
    its degraded lookups into replica hits."""
    result = churn(schedule)
    counts = {
        label: (
            round(run.hit_rate, 6),
            run.replica_hits,
            run.degraded_lookups,
            run.nodes_evicted,
            run.membership_epochs,
            run.entries_migrated,
        )
        for label, run in result.runs.items()
    }
    assert counts == CHURN_COUNTS[schedule]
