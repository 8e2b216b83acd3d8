"""Failure handling left the healthy path, not the cluster.

A routed call is a plain transport call until it fails; only then do the
retry policy, the replica failover walk and suspect bookkeeping run.  These
tests pin what that must not change: a batch of one and a batch of many go
through the same steps (equal results, equal :class:`ClusterHealthStats`,
equal suspects and evictions), a dead node is called exactly
``max_attempts`` times per operation, an exhausted deadline degrades what
is still queued without charging nodes that were never asked, and ``put``
reports the replicas it was sent to.  The expected counters are the ones
the code before the rewrite produced for the same scenarios.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List

import pytest

from repro.cache.cluster import CacheCluster, PutOutcome
from repro.cache.entry import LookupRequest
from repro.cache.netserver import CacheNodeUnreachableError
from repro.comm.transport import RetryPolicy, deadline_scope
from repro.interval import Interval

MAX_ATTEMPTS = 3
NODES = ["cache0", "cache1", "cache2"]


class CountingTransport:
    """Counts calls per operation; raises like a dead node while ``dead``;
    ``delay_seconds`` makes a dead node slow to fail."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        self.dead = False
        self.delay_seconds = 0.0
        self.calls: Dict[str, int] = {}

    def close(self) -> None:
        self.inner.close()

    def __getattr__(self, op):
        target = getattr(self.inner, op)

        def counted(*args, **kwargs):
            self.calls[op] = self.calls.get(op, 0) + 1
            if self.dead:
                time.sleep(self.delay_seconds)
                raise CacheNodeUnreachableError(f"{self.name} is down (test)")
            return target(*args, **kwargs)

        return counted


def build(replication_factor: int, failure_threshold: int = 100, deadline_seconds=None):
    cluster = CacheCluster(
        node_names=NODES,
        replication_factor=replication_factor,
        failure_threshold=failure_threshold,
        retry_policy=RetryPolicy(
            max_attempts=MAX_ATTEMPTS, base_backoff_seconds=0.0, deadline_seconds=deadline_seconds
        ),
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
        assert batch["dead_calls"] == MAX_ATTEMPTS
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
        assert batch["dead_calls"] == MAX_ATTEMPTS
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
        assert batch["dead_calls"] == MAX_ATTEMPTS

    def test_a_dead_node_is_called_max_attempts_times_per_operation(self):
        """Per operation, not per key: one batch holding three keys of the
        dead node is one routed call to it (retried), three batches of one
        are three."""
        singles, batch = run_both_shapes(2, 100, lambda grouped: grouped["cache0"][:3])
        assert singles["results"] == batch["results"]
        assert batch["dead_calls"] == MAX_ATTEMPTS
        assert batch["health"]["transport_failures"] == 1
        assert singles["dead_calls"] == 3 * MAX_ATTEMPTS
        assert singles["health"]["transport_failures"] == 3
        for shape in (singles, batch):
            assert shape["health"]["replica_served_lookups"] == 3
            assert shape["health"]["replica_hits"] == 3

    def test_a_flaky_node_answers_on_the_retry_and_is_not_charged(self):
        cluster, wrappers = build(1)
        try:
            key = keys_by_primary(cluster)["cache0"][0]
            fill(cluster, [key])
            flaky = wrappers["cache0"]
            real = flaky.inner.multi_lookup
            failures = [2]  # attempts 1 and 2 fail, attempt 3 answers

            def fail_twice(requests):
                if failures[0]:
                    failures[0] -= 1
                    raise CacheNodeUnreachableError("blip")
                return real(requests)

            flaky.inner.multi_lookup = fail_twice
            (result,) = cluster.multi_lookup([LookupRequest(key, 1, 5)])
            assert result.hit and not result.degraded
            assert flaky.calls["multi_lookup"] == MAX_ATTEMPTS
            assert dataclasses.asdict(cluster.health) == dataclasses.asdict(
                type(cluster.health)()
            )
            assert cluster.suspect_nodes == []
        finally:
            cluster.close()


class TestExhaustedDeadline:
    def test_expired_budget_degrades_without_asking_anyone(self):
        cluster, wrappers = build(2)
        try:
            keys = [key for group in keys_by_primary(cluster).values() for key in group[:2]]
            fill(cluster, keys)
            for wrapper in wrappers.values():
                wrapper.calls.clear()
            with deadline_scope(time.monotonic() - 1.0):
                results = cluster.multi_lookup([LookupRequest(key, 1, 5) for key in keys])
                single = cluster.lookup(keys[0], 1, 5)
            assert all(r.degraded and not r.hit for r in results + [single])
            assert all(wrapper.calls == {} for wrapper in wrappers.values())
            assert cluster.health.degraded_lookups == len(keys) + 1
            assert cluster.health.degraded_ops == 0
            assert cluster.health.transport_failures == 0
            assert cluster.suspect_nodes == []
        finally:
            cluster.close()

    def test_budget_spent_on_a_dead_node_is_not_charged_to_the_others(self):
        """The dead node eats the whole budget failing; the groups still
        queued degrade, and only the node that was asked is a suspect."""
        cluster, wrappers = build(1, deadline_seconds=0.05)
        try:
            grouped = keys_by_primary(cluster)
            # Groups are taken last-queued first: the dead node's goes first.
            keys = grouped["cache1"][:2] + grouped["cache2"][:2] + grouped["cache0"][:1]
            fill(cluster, keys)
            for wrapper in wrappers.values():
                wrapper.calls.clear()
            wrappers["cache0"].dead = True
            wrappers["cache0"].delay_seconds = 0.06
            results = cluster.multi_lookup([LookupRequest(key, 1, 5) for key in keys])
            assert all(r.degraded for r in results)
            assert wrappers["cache0"].calls == {"multi_lookup": 1}  # no budget for a retry
            assert wrappers["cache1"].calls == {} and wrappers["cache2"].calls == {}
            assert cluster.health.transport_failures == 1
            assert cluster.health.degraded_lookups == len(keys)
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
