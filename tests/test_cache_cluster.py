"""Tests for the cache cluster (routing + aggregate behaviour)."""

from __future__ import annotations

import pytest

from repro.cache.cluster import CacheCluster
from repro.cache.hashring import ConsistentHashRing
from repro.cache.server import CacheServerStats
from repro.comm.multicast import InvalidationBus, InvalidationMessage
from repro.db.invalidation import InvalidationTag
from repro.interval import Interval
from tests.helpers import FAR_FUTURE, FaultInjector, node_views, transports_under_test


@pytest.fixture
def cluster():
    return CacheCluster(node_count=3, capacity_bytes_per_node=256 * 1024)


class TestRouting:
    def test_put_and_lookup_route_to_same_node(self, cluster):
        keys = [f"key-{i}" for i in range(100)]
        for key in keys:
            cluster.put(key, key.upper(), Interval(0))
        for key in keys:
            assert cluster.lookup(key, 0, 10).value == key.upper()

    def test_keys_spread_across_nodes(self, cluster):
        for i in range(300):
            cluster.put(f"key-{i}", i, Interval(0))
        populated = [s for s in cluster.servers.values() if s.entry_count > 0]
        assert len(populated) == 3

    def test_server_for_is_stable(self, cluster):
        assert cluster.server_for("abc") is cluster.server_for("abc")

    def test_probe_and_key_ever_stored(self, cluster):
        cluster.put("k", 1, Interval(0, 5))
        assert cluster.transport_for("k").probe("k", 0, 4)
        assert not cluster.transport_for("k").probe("k", 6, 9)
        assert cluster.lookup("k", 6, 9).key_ever_stored
        assert not cluster.lookup("other", 6, 9).key_ever_stored

    def test_add_and_remove_node(self, cluster):
        cluster.add_node("extra", capacity_bytes=1024)
        assert cluster.node_count == 4
        with pytest.raises(ValueError):
            cluster.add_node("extra", capacity_bytes=1024)
        cluster.remove_node("extra")
        assert cluster.node_count == 3

    def test_ring_places_the_hash_rings_default_virtual_nodes(self, cluster):
        default = ConsistentHashRing(nodes=["cache0", "cache1", "cache2"])
        for node in default.nodes:
            assert cluster.ring.owned_ranges(node) == default.owned_ranges(node)

    def test_remove_unknown_node_raises(self, cluster):
        """Regression: remove_node used to pop-with-default and silently
        succeed on a typo'd name."""
        with pytest.raises(KeyError):
            cluster.remove_node("no-such-node")
        assert cluster.node_count == 3


class TestInvalidationFanout:
    def test_all_nodes_receive_invalidations(self):
        bus = InvalidationBus()
        cluster = CacheCluster(node_count=3, invalidation_bus=bus)
        # Insert still-valid entries on every node.
        for i in range(60):
            cluster.put(f"key-{i}", i, Interval(0), frozenset({InvalidationTag.key("t", "id", i)}))
        bus.publish(InvalidationMessage(timestamp=5, tags=(InvalidationTag.wildcard("t"),)))
        for server in cluster.servers.values():
            assert server.last_invalidation_timestamp == 5
        stats = cluster.aggregate_stats()
        assert stats.entries_invalidated == 60


class TestSynchronousInvalidationDelivery:
    """Each node applies the stream as it is published, in commit order:
    a message has reached every reachable node by the time ``publish``
    returns, with no housekeeping round in between."""

    @pytest.mark.parametrize("transport", transports_under_test())
    def test_publish_reaches_every_node_before_it_returns(self, transport):
        bus = InvalidationBus()
        cluster = CacheCluster(
            node_count=3, invalidation_bus=bus, transport=transport
        )
        try:
            keys = [f"key-{i}" for i in range(30)]
            for i, key in enumerate(keys):
                cluster.put(key, i, Interval(0), frozenset({InvalidationTag.key("t", "id", i)}))
            bus.publish(InvalidationMessage(timestamp=5, tags=(InvalidationTag.key("t", "id", 0),)))
            bus.publish(InvalidationMessage(timestamp=6, tags=()))  # watermark only
            assert {view.last_invalidation_timestamp for view in node_views(cluster).values()} == {6}
            assert not cluster.lookup(keys[0], 6, FAR_FUTURE).hit
            assert cluster.lookup(keys[0], 1, 4).hit
            assert all(cluster.lookup(key, 6, FAR_FUTURE).hit for key in keys[1:])
        finally:
            cluster.close()

    @pytest.mark.parametrize("transport", transports_under_test())
    def test_an_unreachable_node_degrades_the_stream_instead_of_failing_the_publisher(
        self, transport
    ):
        bus = InvalidationBus()
        cluster = CacheCluster(
            node_count=3,
            invalidation_bus=bus,
            transport=transport,
            failure_threshold=10,
        )
        try:
            fault = FaultInjector(cluster)
            fault.partition("cache1")
            bus.publish(InvalidationMessage(timestamp=4, tags=(InvalidationTag.wildcard("t"),)))
            assert cluster.health.degraded_ops == 1
            assert cluster.suspect_nodes == ["cache1"]
            fault.heal("cache1")
            views = node_views(cluster)
            assert views["cache1"].last_invalidation_timestamp == 0  # it missed the message
            assert views["cache0"].last_invalidation_timestamp == 4
            assert views["cache2"].last_invalidation_timestamp == 4
            bus.publish(InvalidationMessage(timestamp=7, tags=()))
            assert {view.last_invalidation_timestamp for view in views.values()} == {7}
            assert cluster.health.degraded_ops == 1
        finally:
            cluster.close()


class TestBusMembership:
    def test_remove_node_unsubscribes_from_invalidation_bus(self):
        """Regression: a removed node must stop consuming the stream.

        The cluster used to leave the removed server subscribed, so it kept
        processing every invalidation forever (and kept the object alive)."""
        bus = InvalidationBus()
        cluster = CacheCluster(node_count=3, invalidation_bus=bus)
        removed_server = cluster.servers["cache1"]
        assert len(bus.subscribers) == 3

        cluster.remove_node("cache1")
        assert len(bus.subscribers) == 2

        bus.publish(InvalidationMessage(timestamp=7, tags=(InvalidationTag.wildcard("t"),)))
        assert removed_server.last_invalidation_timestamp == 0
        assert removed_server.stats.invalidation_messages == 0
        for server in cluster.servers.values():
            assert server.last_invalidation_timestamp == 7

    def test_node_added_after_attach_is_subscribed(self):
        bus = InvalidationBus()
        cluster = CacheCluster(node_count=1, invalidation_bus=bus)
        extra = cluster.add_node("extra", capacity_bytes=1024)
        bus.publish(InvalidationMessage(timestamp=3, tags=()))
        assert extra.last_invalidation_timestamp == 3

    def test_remove_node_without_bus_is_fine(self, cluster):
        cluster.remove_node("cache0")
        assert cluster.node_count == 2


class TestStatsMerge:
    def test_merge_adds_every_counter(self):
        left = CacheServerStats(lookups=2, hits=1, misses=1, insertions=3)
        right = CacheServerStats(lookups=5, hits=4, misses=1, lru_evictions=2)
        result = left.merge(right)
        assert result is left
        assert left == CacheServerStats(
            lookups=7, hits=5, misses=2, insertions=3, lru_evictions=2
        )

    def test_iadd_is_merge(self):
        total = CacheServerStats()
        total += CacheServerStats(stale_evictions=4, entries_invalidated=2)
        total += CacheServerStats(stale_evictions=1, invalidation_messages=3)
        assert total.stale_evictions == 5
        assert total.entries_invalidated == 2
        assert total.invalidation_messages == 3


class TestAggregation:
    def test_aggregate_stats_sums_nodes(self, cluster):
        cluster.put("a", 1, Interval(0))
        cluster.put("b", 2, Interval(0))
        cluster.lookup("a", 0, 5)
        cluster.lookup("missing", 0, 5)
        stats = cluster.aggregate_stats()
        assert stats.insertions == 2
        assert stats.lookups == 2
        assert stats.hits == 1

    def test_capacity_and_usage(self, cluster):
        assert cluster.capacity_bytes == 3 * 256 * 1024
        cluster.put("a", "x" * 500, Interval(0))
        assert cluster.used_bytes > 0
        assert cluster.entry_count == 1

    def test_evict_stale_drops_only_the_stale(self, cluster):
        cluster.put("a", 1, Interval(0, 3))
        cluster.put("b", 2, Interval(5, 9))
        assert cluster.evict_stale(4) == 1
        assert cluster.entry_count == 1

    def test_reset_stats(self, cluster):
        cluster.put("a", 1, Interval(0))
        cluster.reset_stats()
        assert cluster.aggregate_stats().insertions == 0

    def test_key_distribution_reporting(self, cluster):
        keys = [f"key-{i}" for i in range(90)]
        distribution = cluster.key_distribution(keys)
        assert sum(distribution.values()) == 90
