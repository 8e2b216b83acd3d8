"""Failure handling left the healthy path, not the cluster.

A routed call is a plain transport call until it fails; only then do the
replica failover walk and suspect bookkeeping run.  These tests pin what
that must not change: a batch of one and a batch of many go through the
same steps (equal results, equal :class:`ClusterHealthStats`, equal
suspects and evictions), a dead node is called exactly once per operation
and nothing sleeps, a failure is charged once and cleared by the node's
next answer, and ``put`` reports the replicas it was sent to.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List

import pytest

from repro.cache.cluster import CacheCluster, PutOutcome
from repro.cache.entry import LookupRequest
from repro.cache.hashring import HASH_SPACE
from repro.cache.netserver import CacheNodeUnreachableError
from repro.interval import Interval

NODES = ["cache0", "cache1", "cache2"]


class CountingTransport:
    """Counts calls per operation; raises like a dead node while ``dead``."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        self.dead = False
        self.calls: Dict[str, int] = {}

    def close(self) -> None:
        self.inner.close()

    def __getattr__(self, op):
        target = getattr(self.inner, op)

        def counted(*args, **kwargs):
            self.calls[op] = self.calls.get(op, 0) + 1
            if self.dead:
                raise CacheNodeUnreachableError(f"{self.name} is down (test)")
            return target(*args, **kwargs)

        return counted


def build(replication_factor: int, failure_threshold: int = 100):
    cluster = CacheCluster(
        node_names=NODES,
        replication_factor=replication_factor,
        failure_threshold=failure_threshold,
    )
    wrappers = {}
    for name in NODES:
        wrappers[name] = cluster._transports[name] = CountingTransport(cluster._transports[name])
    return cluster, wrappers


def keys_by_primary(cluster: CacheCluster, count: int = 60) -> Dict[str, List[str]]:
    grouped: Dict[str, List[str]] = {name: [] for name in NODES}
    for i in range(count):
        grouped[cluster.ring.node_for(f"key-{i}")].append(f"key-{i}")
    assert all(len(keys) >= 3 for keys in grouped.values())
    return grouped


def fill(cluster: CacheCluster, keys: List[str]) -> None:
    for key in keys:
        assert cluster.put(key, f"value of {key}", Interval(1, None)).stored


def outcome(cluster: CacheCluster, wrappers, results):
    """Everything the two batch shapes must agree on."""
    return {
        "results": [(r.key, r.hit, r.value, r.degraded) for r in results],
        "health": dataclasses.asdict(cluster.health),
        "suspects": cluster.suspect_nodes,
        "members": sorted(cluster.ring.nodes),
        "dead_calls": wrappers["cache0"].calls.get("multi_lookup", 0),
    }


def run_both_shapes(replication_factor: int, failure_threshold: int, keys_of):
    """The same lookups as batches of one and as one batch, on two
    identically prepared clusters with ``cache0`` dead."""
    outcomes = []
    for as_one_batch in (False, True):
        cluster, wrappers = build(replication_factor, failure_threshold)
        try:
            keys = keys_of(keys_by_primary(cluster))
            fill(cluster, keys)
            wrappers["cache0"].dead = True
            requests = [LookupRequest(key, 1, 5) for key in keys]
            if as_one_batch:
                results = cluster.multi_lookup(requests)
            else:
                results = [cluster.multi_lookup([request])[0] for request in requests]
            outcomes.append(outcome(cluster, wrappers, results))
        finally:
            cluster.close()
    return outcomes


def one_key_on_the_dead_node(grouped):
    # Alive-primary keys first and last: position in the batch must not matter.
    return grouped["cache1"][:2] + grouped["cache0"][:1] + grouped["cache2"][:2]


class TestBatchOfOneAndBatchOfManyAgree:
    def test_failover_to_the_next_replica(self):
        singles, batch = run_both_shapes(2, 100, one_key_on_the_dead_node)
        assert singles == batch
        assert all(hit for _key, hit, _value, _degraded in batch["results"])
        assert batch["dead_calls"] == 1
        assert batch["suspects"] == ["cache0"]
        health = batch["health"]
        assert health["transport_failures"] == 1
        assert health["suspect_marks"] == 1
        assert health["replica_served_lookups"] == 1
        assert health["replica_hits"] == 1
        assert health["degraded_lookups"] == 0
        assert health["nodes_evicted"] == 0

    def test_degraded_miss_without_replication(self):
        singles, batch = run_both_shapes(1, 100, one_key_on_the_dead_node)
        assert singles == batch
        degraded = [degraded for _key, _hit, _value, degraded in batch["results"]]
        assert degraded == [False, False, True, False, False]
        assert batch["dead_calls"] == 1
        health = batch["health"]
        assert health["transport_failures"] == 1
        assert health["degraded_lookups"] == 1
        assert health["replica_served_lookups"] == 0

    def test_eviction_at_the_threshold(self):
        singles, batch = run_both_shapes(2, 1, one_key_on_the_dead_node)
        assert singles == batch
        assert all(hit for _key, hit, _value, _degraded in batch["results"])
        assert batch["members"] == ["cache1", "cache2"]
        assert batch["suspects"] == []
        assert batch["health"]["nodes_evicted"] == 1
        assert batch["dead_calls"] == 1

    def test_a_dead_node_is_called_once_per_operation(self):
        """Per operation, not per key: one batch holding three keys of the
        dead node is one call to it, three batches of one are three."""
        singles, batch = run_both_shapes(2, 100, lambda grouped: grouped["cache0"][:3])
        assert singles["results"] == batch["results"]
        assert batch["dead_calls"] == 1
        assert batch["health"]["transport_failures"] == 1
        assert singles["dead_calls"] == 3
        assert singles["health"]["transport_failures"] == 3
        for shape in (singles, batch):
            assert shape["health"]["replica_served_lookups"] == 3
            assert shape["health"]["replica_hits"] == 3


class TestOneAttemptPerNode:
    @pytest.mark.parametrize("replication_factor", [1, 2])
    @pytest.mark.parametrize("keys_on_the_dead_node", [1, 3], ids=["batch of one", "batch of three"])
    def test_a_dead_node_gets_one_call_per_operation_and_nothing_sleeps(
        self, replication_factor, keys_on_the_dead_node, monkeypatch
    ):
        """A routed lookup, a probe and a digest page each ask the dead node
        once: the failure is charged (or, for the digest, raised to the
        repair planner) at once, with no second attempt and no sleep."""
        sleeps: List[float] = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        cluster, wrappers = build(replication_factor)
        try:
            keys = keys_by_primary(cluster)["cache0"][:keys_on_the_dead_node]
            fill(cluster, keys)
            dead = wrappers["cache0"]
            dead.calls.clear()
            dead.dead = True
            results = cluster.multi_lookup([LookupRequest(key, 1, 5) for key in keys])
            assert all(r.hit != r.degraded for r in results)
            assert all(r.hit for r in results) == (replication_factor == 2)
            assert not cluster.probe_node("cache0")
            with pytest.raises(CacheNodeUnreachableError):
                cluster.key_digest("cache0", [(0, HASH_SPACE)])
            assert dead.calls == {"multi_lookup": 1, "watermark": 1, "key_digest": 1}
            assert sleeps == []
            assert cluster.health.transport_failures == 2
        finally:
            cluster.close()

    @pytest.mark.parametrize("replication_factor", [1, 2])
    def test_a_node_that_fails_once_is_charged_once_and_cleared_by_its_next_answer(
        self, replication_factor
    ):
        """One transient failure costs the read it hit (a degraded miss
        alone, the replica's answer at R=2) and one charge: the node stays
        in the ring as a suspect, and its next answer clears it."""
        cluster, wrappers = build(replication_factor, failure_threshold=2)
        try:
            key = keys_by_primary(cluster)["cache0"][0]
            fill(cluster, [key])
            flaky = wrappers["cache0"]
            real = flaky.inner.multi_lookup
            failures = [1]

            def fail_once(requests):
                if failures[0]:
                    failures[0] -= 1
                    raise CacheNodeUnreachableError("blip")
                return real(requests)

            flaky.inner.multi_lookup = fail_once
            (result,) = cluster.multi_lookup([LookupRequest(key, 1, 5)])
            if replication_factor == 1:
                assert result.degraded and not result.hit
            else:
                assert result.hit and not result.degraded
                assert cluster.health.replica_hits == 1
            assert flaky.calls["multi_lookup"] == 1
            assert cluster.health.transport_failures == 1
            assert cluster.suspect_nodes == ["cache0"]
            assert "cache0" in cluster.ring.nodes

            (result,) = cluster.multi_lookup([LookupRequest(key, 1, 5)])
            assert result.hit and not result.degraded
            assert flaky.calls["multi_lookup"] == 2
            assert cluster.suspect_nodes == []
            assert cluster.health.recoveries == 1
            assert cluster.health.nodes_evicted == 0
        finally:
            cluster.close()

    def test_a_dead_node_in_a_mixed_batch_is_charged_alone(self):
        """R = 1: every node of the batch is asked once; the live nodes
        answer their keys, the dead node's key degrades, and only the dead
        node is charged."""
        cluster, wrappers = build(1)
        try:
            keys = one_key_on_the_dead_node(keys_by_primary(cluster))
            fill(cluster, keys)
            for wrapper in wrappers.values():
                wrapper.calls.clear()
            wrappers["cache0"].dead = True
            results = cluster.multi_lookup([LookupRequest(key, 1, 5) for key in keys])
            assert [r.hit for r in results] == [True, True, False, True, True]
            assert [r.degraded for r in results] == [False, False, True, False, False]
            assert {name: wrapper.calls for name, wrapper in wrappers.items()} == {
                name: {"multi_lookup": 1} for name in NODES
            }
            assert cluster.health.transport_failures == 1
            assert cluster.suspect_nodes == ["cache0"]
        finally:
            cluster.close()

    def test_a_sweep_asks_a_dead_node_once_and_skips_it(self):
        """``evict_stale`` goes to every node: the dead one is called once,
        counted as one degraded op and charged once; the others answer."""
        cluster, wrappers = build(1)
        try:
            for wrapper in wrappers.values():
                wrapper.calls.clear()
            wrappers["cache0"].dead = True
            assert cluster.evict_stale(0) == 0
            assert {name: wrapper.calls for name, wrapper in wrappers.items()} == {
                name: {"evict_stale": 1} for name in NODES
            }
            assert cluster.health.degraded_ops == 1
            assert cluster.health.transport_failures == 1
            assert cluster.suspect_nodes == ["cache0"]
        finally:
            cluster.close()


class TestPutToADeadReplica:
    @pytest.mark.parametrize(
        "replication_factor, expected, degraded_puts",
        [(2, PutOutcome(stored=True, replicas=2), 0), (1, PutOutcome(stored=False, replicas=1), 1)],
    )
    def test_put_reports_the_replicas_it_was_sent_to(
        self, replication_factor, expected, degraded_puts
    ):
        cluster, wrappers = build(replication_factor)
        try:
            key = keys_by_primary(cluster)["cache0"][0]
            wrappers["cache0"].dead = True
            assert cluster.put(key, "value", Interval(1, None)) == expected
            assert wrappers["cache0"].calls == {"put": 1}  # a write is never retried blind
            assert cluster.health.transport_failures == 1
            assert cluster.health.degraded_puts == degraded_puts
            assert cluster.suspect_nodes == ["cache0"]
        finally:
            cluster.close()


class TestSuspectRecovery:
    @pytest.mark.parametrize("shape", ["alone", "with every node"])
    def test_a_suspect_that_answers_is_cleared_and_its_count_reset(self, shape):
        """The healthy path is what clears a suspect: one failure marks the
        node, its next answered lookup (a batch of its own or one batch
        with every node's keys) recovers it, and the failure count starts
        over — at ``failure_threshold=2`` one more failure does not evict."""
        cluster, wrappers = build(1, failure_threshold=2)
        try:
            grouped = keys_by_primary(cluster)
            key = grouped["cache0"][0]
            keys = [key] if shape == "alone" else [group[0] for group in grouped.values()]
            fill(cluster, keys)
            requests = [LookupRequest(k, 1, 5) for k in keys]
            node = wrappers["cache0"]

            node.dead = True
            results = cluster.multi_lookup(requests)
            assert [r.degraded for r in results] == [k == key for k in keys]
            assert cluster.suspect_nodes == ["cache0"]
            assert cluster.health.suspect_marks == 1 and cluster.health.recoveries == 0

            node.dead = False
            results = cluster.multi_lookup(requests)
            assert all(r.hit and not r.degraded for r in results)
            assert cluster.suspect_nodes == []
            assert cluster.health.recoveries == 1

            node.dead = True
            cluster.multi_lookup(requests)
            assert cluster.suspect_nodes == ["cache0"]
            assert "cache0" in cluster.ring.nodes
            assert cluster.health.transport_failures == 2
            assert cluster.health.suspect_marks == 2
            assert cluster.health.nodes_evicted == 0
        finally:
            cluster.close()
