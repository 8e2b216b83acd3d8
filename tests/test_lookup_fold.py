"""One lookup request per cacheable call: the folded flag against what it replaced.

A cacheable call used to send a lookup over the pin set's bounds *and* a
statistics-free probe over the transaction's staleness window, whose only
use was to tell a consistency miss from a stale one.  The request now
carries the window's lower bound (``fresh_lo``) and a miss carries the
probe's answer (``fresh_version_exists``).  Two checks:

* on every transport kind, over seeded histories of puts, invalidations,
  watermark advances and stale evictions, each miss's flag equals what the
  standalone ``probe`` op answers for ``(fresh_lo, FAR_FUTURE)``;
* a RUBiS bidding run classifies every miss as the two-request client
  would have: the companion probe is sent beside each looked-up key and
  compared.
"""

from __future__ import annotations

import random

import pytest

from repro.cache.cluster import CacheCluster
from repro.cache.entry import LookupRequest
from repro.comm.multicast import InvalidationMessage
from repro.core.stats import MissType
from repro.db.invalidation import InvalidationTag
from repro.deployment import TxCacheDeployment
from repro.interval import Interval
from tests.helpers import FAR_FUTURE, rubis_sessions, run_interactions, transports_under_test


@pytest.mark.parametrize("transport_kind", transports_under_test())
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_miss_carries_the_answer_of_the_probe_it_replaced(transport_kind, seed):
    cluster = CacheCluster(
        node_count=1,
        capacity_bytes_per_node=1 << 20,
        transport=transport_kind,
    )
    try:
        (transport,) = cluster.transports.values()
        rng = random.Random(seed)
        tag = lambda i: InvalidationTag.key("items", "id", i)  # noqa: E731
        timestamp = 0
        misses = flagged = 0
        for step in range(400):
            op = rng.randrange(10)
            key = f"key-{rng.randrange(12)}"
            if op < 3:  # still-valid put
                lo = rng.randrange(timestamp + 1)
                transport.put(key, step, Interval(lo), frozenset({tag(rng.randrange(6))}))
            elif op == 3:  # bounded put, possibly empty-after-truncation shapes
                lo = rng.randrange(timestamp + 2)
                transport.put(key, step, Interval(lo, lo + rng.randrange(1, 4)))
            elif op == 4:
                timestamp += 1
                tags = (
                    (InvalidationTag.wildcard("items"),)
                    if rng.random() < 0.2
                    else (tag(rng.randrange(6)),)
                )
                transport.process_invalidation(InvalidationMessage(timestamp, tags))
            elif op == 5:
                timestamp += 1
                transport.note_timestamp(timestamp)
            elif op == 6 and step % 3 == 0:
                transport.evict_stale(max(0, timestamp - rng.randrange(1, 6)))
            else:
                requests = []
                for _ in range(rng.randrange(1, 4)):
                    fresh_lo = rng.randrange(timestamp + 2)
                    lo = fresh_lo + rng.randrange(4)
                    requests.append(
                        LookupRequest(
                            f"key-{rng.randrange(14)}", lo, lo + rng.randrange(3), fresh_lo
                        )
                    )
                for request, result in zip(requests, transport.multi_lookup(requests)):
                    if result.hit:
                        assert not result.fresh_version_exists
                        continue
                    misses += 1
                    flagged += result.fresh_version_exists
                    assert result.fresh_version_exists == transport.probe(
                        request.key, request.fresh_lo, FAR_FUTURE
                    ), (step, request)
        # The history exercised both answers.
        assert 0 < flagged < misses
    finally:
        cluster.close()


def test_rubis_bidding_misses_classify_as_the_two_request_client_classified_them():
    """2 000 interactions of the bidding mix, 24 users, 10 s staleness on a
    clock that advances 20 ms per interaction (40 s in all, so snapshots
    age out and pin sets narrow).  Beside every key of every lookup batch
    the test sends the companion probe the two-request client sent, and
    every miss must carry the probe's answer for its own key and be
    classified by it.

    This used to compare the run's totals with figures recorded from an
    older commit, and swallowed the mix's then-known ``EmptyPinSetError``;
    it now asks its own question of every miss, and any exception fails it.
    """
    deployment = TxCacheDeployment(
        cache_nodes=2, cache_capacity_bytes_per_node=32 << 20, default_staleness=10.0
    )
    try:
        client = deployment.client()
        sessions = rubis_sessions(deployment, client, seed=1, staleness=10.0, scale=400)
        cluster = deployment.cache
        folded_lookup = cluster.multi_lookup
        classify = client._classify_miss
        #: key -> the probe sent beside the latest lookup of that key.
        probes = {}
        counted = {"round_trips": 0, "classified": 0}

        def lookup_and_probe(requests, asked=None):
            results = folded_lookup(requests, asked)
            for request in requests:
                probes[request.key] = cluster.transport_for(request.key).probe(
                    request.key, request.fresh_lo, FAR_FUTURE
                )
            # One round trip per node the batch's keys live on.
            counted["round_trips"] += len(
                {cluster.replicas_for(request.key)[0] for request in requests}
            )
            return results

        def checked_classify(result):
            probe = probes[result.key]
            if result.hit:
                # A hit the pin set could not use lies inside the window.
                assert probe
            else:
                assert result.fresh_version_exists == probe, result
            if not result.key_ever_stored:
                expected = MissType.COMPULSORY
            else:
                expected = MissType.CONSISTENCY if probe else MissType.STALE_OR_CAPACITY
            miss_type = classify(result)
            assert miss_type is expected, result
            counted["classified"] += 1
            return miss_type

        cluster.multi_lookup = lookup_and_probe
        client._classify_miss = checked_classify
        run_interactions(deployment, sessions, 0, 2000, dt=0.020)
        stats = client.stats
        assert counted["classified"] == stats.misses
        # The run exercised every answer, and the lookup round trips plus one
        # put per miss are still all the cache traffic there is.
        assert all(
            stats.misses_by_type[kind] > 50
            for kind in (MissType.COMPULSORY, MissType.STALE_OR_CAPACITY, MissType.CONSISTENCY)
        ), stats.misses_by_type
        assert stats.misses_by_type[MissType.DEGRADED] == 0
        assert stats.hits > stats.misses > 500
        assert stats.cache_rpcs == counted["round_trips"] + stats.misses
        # Pages batch their calls: fewer round trips than lookups.
        assert counted["round_trips"] < stats.cacheable_calls
    finally:
        deployment.shutdown()
