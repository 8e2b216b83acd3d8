"""One lookup request per cacheable call: the folded flag against what it replaced.

A cacheable call used to send a lookup over the pin set's bounds *and* a
statistics-free probe over the transaction's staleness window, whose only
use was to tell a consistency miss from a stale one.  The request now
carries the window's lower bound (``fresh_lo``) and a miss carries the
probe's answer (``fresh_version_exists``).  Two checks:

* on every transport kind, over seeded histories of puts, invalidations,
  watermark advances and stale evictions, each miss's flag equals what the
  standalone ``probe`` op answers for ``(fresh_lo, FAR_FUTURE)``;
* a RUBiS bidding run classifies its misses exactly as the two-request
  client did (numbers recorded from the parent commit).
"""

from __future__ import annotations

import random

import pytest

from repro.apps.rubis import (
    IN_MEMORY_CONFIG,
    RubisApp,
    RubisClientSession,
    create_rubis_schema,
    populate_database,
)
from repro.apps.rubis.workload import BIDDING_MIX
from repro.cache.cluster import CacheCluster
from repro.cache.entry import LookupRequest
from repro.clock import ManualClock
from repro.comm.multicast import InvalidationMessage
from repro.core.stats import MissType
from repro.db.invalidation import InvalidationTag
from repro.deployment import TxCacheDeployment
from repro.interval import Interval
from tests.helpers import FAR_FUTURE, transports_under_test


@pytest.mark.parametrize("transport_kind", transports_under_test())
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_miss_carries_the_answer_of_the_probe_it_replaced(transport_kind, seed):
    cluster = CacheCluster(
        node_count=1,
        capacity_bytes_per_node=1 << 20,
        clock=ManualClock(),
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
    age out and pin sets narrow).  The expected figures were produced by the
    parent commit, whose client sent the companion probe."""
    clock = ManualClock()
    deployment = TxCacheDeployment(
        clock=clock,
        cache_nodes=2,
        cache_capacity_bytes_per_node=32 << 20,
        default_staleness=10.0,
    )
    try:
        client = deployment.client()
        create_rubis_schema(deployment.database)
        dataset = populate_database(deployment.database, IN_MEMORY_CONFIG.scaled(400), seed=42)
        app = RubisApp(client, dataset)
        sessions = [
            RubisClientSession(app, BIDDING_MIX, seed=1000 + i, staleness=10.0, now_fn=clock.now)
            for i in range(24)
        ]
        for i in range(2000):
            try:
                sessions[i % 24].step()
            except Exception:  # noqa: BLE001 - the mix's known failures
                if client.in_transaction:
                    client.abort()
            clock.advance(0.020)
            if (i + 1) % 400 == 0:
                deployment.housekeeping()
        stats = client.stats
        assert stats.misses_by_type == {
            MissType.COMPULSORY: 853,
            MissType.STALE_OR_CAPACITY: 523,
            MissType.CONSISTENCY: 330,
            MissType.DEGRADED: 0,
        }
        assert (stats.hits, stats.misses, stats.db_queries) == (2209, 1706, 1460)
        # One lookup per cacheable call and one put per miss that ran to
        # completion: the count the parent reached by asking the ring how
        # many replicas each key has.
        assert stats.cache_rpcs == 5618
    finally:
        deployment.shutdown()
