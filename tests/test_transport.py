"""Transport-layer tests: in-process vs socket parity, framing, lifecycle.

The central property: the choice of transport is *invisible* to everything
above it.  A parametrized suite replays the same operation trace against an
in-process cluster and a cluster of the transport under test and requires
byte-identical results (pickled result streams compare equal), including
lookup/put/probe outcomes, invalidation effects, and statistics.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.cache.cluster import CacheCluster
from repro.cache.entry import LookupRequest
from repro.cache.netserver import (
    CacheServerProcess,
    CacheTransportError,
    SocketTransport,
)
from repro.cache.server import CacheServer
from repro.comm.multicast import InvalidationBus, InvalidationMessage
from repro.comm.transport import CacheTransport, InProcessTransport
from repro.core.api import ConsistencyMode
from repro.db.invalidation import InvalidationTag
from repro.deployment import TxCacheDeployment
from repro.interval import Interval
from tests.test_integration import build_bank_deployment, transfer
from tests.helpers import FAR_FUTURE, lookup_one, node_views, simple_schema, transports_under_test

# Overridable with REPRO_TRANSPORT=inprocess|socket (CI transport matrix).
TRANSPORTS = transports_under_test()


@pytest.fixture(params=TRANSPORTS)
def transport_kind(request):
    return request.param


@pytest.fixture
def cluster(transport_kind):
    cluster = CacheCluster(
        node_count=3,
        capacity_bytes_per_node=256 * 1024,
        transport=transport_kind,
    )
    yield cluster
    cluster.close()


# ----------------------------------------------------------------------
# Operation-trace parity
# ----------------------------------------------------------------------
def _replay_trace(cluster: CacheCluster, bus: InvalidationBus, seed: int = 7) -> list:
    """Run a deterministic mixed operation trace; return every result."""
    rng = random.Random(seed)
    tag = lambda i: InvalidationTag.key("items", "id", i)  # noqa: E731
    results = []
    timestamp = 0
    for step in range(300):
        op = rng.randrange(7)
        key = f"key-{rng.randrange(40)}"
        if op == 0:  # still-valid put with tags
            results.append(
                cluster.put(key, {"step": step, "k": key}, Interval(timestamp), frozenset({tag(rng.randrange(10))}))
            )
        elif op == 1:  # bounded-interval put
            lo = rng.randrange(max(1, timestamp + 1))
            results.append(cluster.put(key, ("v", step), Interval(lo, lo + rng.randrange(1, 5))))
        elif op == 2:
            lo = rng.randrange(timestamp + 2)
            results.append(cluster.lookup(key, lo, lo + rng.randrange(8)))
        elif op == 3:
            lo = rng.randrange(timestamp + 2)
            results.append(cluster.transport_for(key).probe(key, lo, lo + rng.randrange(8)))
        elif op == 4:
            results.append(cluster.lookup(key, 0, 0).key_ever_stored)
        elif op == 5:  # batched lookups spanning several nodes
            requests = [
                LookupRequest(
                    f"key-{rng.randrange(40)}", timestamp, timestamp + 1, fresh_lo=i * 2
                )
                for i in range(rng.randrange(1, 6))
            ]
            results.append(cluster.multi_lookup(requests))
        else:  # invalidation through the bus
            timestamp += 1
            tags = (tag(rng.randrange(10)),) if rng.random() < 0.8 else (
                InvalidationTag.wildcard("items"),
            )
            bus.publish(InvalidationMessage(timestamp=timestamp, tags=tags))
            results.append(("invalidated", timestamp))
        if step % 97 == 0:
            results.append(cluster.evict_stale(max(0, timestamp - 5)))
    results.append(cluster.aggregate_stats())
    return results


def test_trace_parity_with_inprocess(transport_kind):
    """Both transports produce byte-identical results on the same trace."""
    reference_bus = InvalidationBus()
    reference = CacheCluster(
        node_count=3,
        capacity_bytes_per_node=256 * 1024,
        invalidation_bus=reference_bus,
        transport="inprocess",
    )
    subject_bus = InvalidationBus()
    subject = CacheCluster(
        node_count=3,
        capacity_bytes_per_node=256 * 1024,
        invalidation_bus=subject_bus,
        transport=transport_kind,
    )
    try:
        expected = _replay_trace(reference, reference_bus)
        actual = _replay_trace(subject, subject_bus)
        assert actual == expected
        # Byte-identical serialized results.  Each result is pickled on its
        # own after one normalizing round trip, so the comparison checks the
        # values themselves rather than incidental object sharing between
        # results (the socket transport's results have already crossed the
        # wire once, which otherwise perturbs pickle's memoization).
        def canonical(result):
            if isinstance(result, list):
                return [canonical(item) for item in result]
            return pickle.dumps(pickle.loads(pickle.dumps(result)))

        assert [canonical(a) for a in actual] == [canonical(e) for e in expected]
    finally:
        reference.close()
        subject.close()


def test_cluster_operations_work_over_any_transport(cluster):
    cluster.put("k", {"a": 1}, Interval(0, 5), frozenset())
    assert cluster.lookup("k", 0, 4).hit
    assert cluster.lookup("k", 0, 4).value == {"a": 1}
    assert not cluster.lookup("k", 6, 9).hit
    assert cluster.transport_for("k").probe("k", 0, 4)
    assert cluster.lookup("k", 6, 9).key_ever_stored
    assert not cluster.lookup("absent", 0, 4).key_ever_stored
    assert cluster.evict_stale(10) == 1
    cluster.put("k2", 2, Interval(0))
    assert [key for node in cluster.transports for key in cluster.node_keys(node)] == ["k2"]


def test_multi_lookup_groups_by_node_and_preserves_order(cluster):
    keys = [f"key-{i}" for i in range(30)]
    for i, key in enumerate(keys):
        cluster.put(key, i, Interval(0))
    requests = [LookupRequest(key, 0, 5) for key in keys]
    # No invalidation has been seen, so every entry is known valid at 0
    # only: a lookup over [3, 5] misses, and whether "a fresh version
    # exists" depends on where the staleness window starts.
    requests += [
        LookupRequest("never-stored", 0, 5),
        LookupRequest(keys[0], 3, 5, fresh_lo=0),
        LookupRequest(keys[0], 3, 5, fresh_lo=1),
    ]
    results = cluster.multi_lookup(requests)
    assert len(results) == len(requests)
    for i, result in enumerate(results[:30]):
        assert result.hit and result.value == i and result.key == keys[i]
    assert not results[30].hit and not results[30].key_ever_stored
    assert not results[30].fresh_version_exists
    assert not results[31].hit and results[31].fresh_version_exists
    assert not results[32].hit and not results[32].fresh_version_exists
    # The trace spanned every node.
    assert len({node for node, count in cluster.key_distribution(keys).items() if count}) > 1


def test_multi_lookup_matches_singleton_lookups(cluster):
    for i in range(20):
        cluster.put(f"key-{i}", i, Interval(0, 3 + i % 4))
    # Entries end at 3..6: over [4, 9] half of them hit, and of the misses
    # only those ending at 4 reach past fresh_lo=3.
    requests = [LookupRequest(f"key-{i}", 4, 9, fresh_lo=3) for i in range(20)]
    batched = cluster.multi_lookup(requests)
    singles = [cluster.lookup(r.key, r.lo, r.hi) for r in requests]
    assert [b.hit for b in batched] == [s.hit for s in singles] == [i % 4 >= 2 for i in range(20)]
    assert [b.value for b in batched] == [s.value for s in singles]
    for request, result in zip(requests, batched):
        if not result.hit:
            assert result.fresh_version_exists == cluster.transport_for(request.key).probe(
                request.key, request.fresh_lo, FAR_FUTURE
            )
    assert [b.fresh_version_exists for b in batched] == [i % 4 == 1 for i in range(20)]


def test_invalidations_reach_every_node(transport_kind):
    bus = InvalidationBus()
    cluster = CacheCluster(
        node_count=3, invalidation_bus=bus, transport=transport_kind
    )
    try:
        for i in range(30):
            cluster.put(
                f"key-{i}", i, Interval(0), frozenset({InvalidationTag.key("t", "id", i)})
            )
        bus.publish(InvalidationMessage(timestamp=4, tags=(InvalidationTag.wildcard("t"),)))
        for view in node_views(cluster).values():
            assert view.last_invalidation_timestamp == 4
        assert cluster.aggregate_stats().entries_invalidated == 30
    finally:
        cluster.close()


# ----------------------------------------------------------------------
# Socket specifics: framing, errors, lifecycle
# ----------------------------------------------------------------------
class TestSocketTransport:
    def test_transport_learns_node_name(self):
        with CacheServerProcess(CacheServer(name="nodeX")) as process:
            transport = SocketTransport(process.address)
            assert transport.name == "nodeX"
            transport.close()

    def test_server_survives_bad_requests(self):
        with CacheServerProcess(CacheServer()) as process:
            transport = SocketTransport(process.address)
            with pytest.raises(CacheTransportError, match="unknown cache operation"):
                transport._call("no-such-op")
            # The connection is still usable afterwards.
            assert transport.put("k", 1, Interval(0)) is True
            assert lookup_one(transport, "k", 0, 5).hit
            transport.close()

    def test_calls_after_close_raise(self):
        with CacheServerProcess(CacheServer()) as process:
            transport = SocketTransport(process.address)
            transport.close()
            with pytest.raises(CacheTransportError):
                transport.probe("k", 0, 1)

    def test_graceful_shutdown_disconnects_clients(self):
        process = CacheServerProcess(CacheServer())
        transport = SocketTransport(process.address)
        assert transport.probe("k", 0, 1) is False
        process.shutdown()
        assert not process.running
        with pytest.raises(CacheTransportError):
            transport.put("k", 1, Interval(0))
        transport.close()
        process.shutdown()  # idempotent

    def test_multiple_connections_share_one_node(self):
        with CacheServerProcess(CacheServer()) as process:
            first = SocketTransport(process.address)
            second = SocketTransport(process.address)
            first.put("k", "from-first", Interval(0))
            assert lookup_one(second, "k", 0, 5).value == "from-first"
            assert second.stats().insertions == 1
            first.close()
            second.close()

    def test_conforms_to_transport_protocol(self):
        with CacheServerProcess(CacheServer()) as process:
            transport = SocketTransport(process.address)
            assert isinstance(transport, CacheTransport)
            assert isinstance(InProcessTransport(CacheServer()), CacheTransport)
            transport.close()


# ----------------------------------------------------------------------
# Whole-stack scenarios over TCP
# ----------------------------------------------------------------------
class TestIntegrationOverTcp:
    def test_bank_invariant_holds_over_socket_transport(self):
        """The integration suite's consistency invariant, served over TCP."""
        from repro.db.query import Eq, Select

        accounts = 6
        deployment = build_bank_deployment(accounts=accounts, transport="socket")
        try:
            client = deployment.client()

            @client.cacheable(name="get_balance")
            def get_balance(account_id):
                return client.query(Select("accounts", Eq("id", account_id))).rows[0]["balance"]

            rng = random.Random(9)
            for round_number in range(25):
                transfer(deployment, rng.randrange(accounts), rng.randrange(accounts), rng.randint(1, 20))
                with client.read_only(staleness=rng.choice([0, 5, 30])):
                    cached_part = rng.randrange(accounts)
                    total = 0
                    for account in range(accounts):
                        if account <= cached_part:
                            total += get_balance(account)
                        else:
                            total += client.query(
                                Select("accounts", Eq("id", account))
                            ).rows[0]["balance"]
                assert total == accounts * 100, f"inconsistent snapshot on round {round_number}"
            assert client.stats.hits > 0  # the cache actually served traffic
        finally:
            deployment.shutdown()

    def test_deployment_modes_match_across_transports(self):
        """Same workload, same hit/miss pattern, whichever transport serves it."""
        from tests.helpers import TRANSPORTS as ALL_TRANSPORTS

        patterns = {}
        # Always compares both transports (the point of the test), even when
        # REPRO_TRANSPORT restricts the parametrized suites.
        for kind in ALL_TRANSPORTS:
            deployment = TxCacheDeployment(transport=kind, mode=ConsistencyMode.CONSISTENT)
            try:
                deployment.database.create_table(simple_schema())
                deployment.database.bulk_load(
                    "users",
                    [
                        {"id": i, "name": f"user{i}", "region": 0, "score": 0.0}
                        for i in range(1, 9)
                    ],
                )
                client = deployment.client()
                from repro.db.query import Eq, Select

                @client.cacheable(name="get_user")
                def get_user(user_id):
                    return client.query(Select("users", Eq("id", user_id))).rows[0]

                rng = random.Random(3)
                observed = []
                for _ in range(60):
                    with client.read_only():
                        observed.append(get_user(rng.randrange(1, 9))["name"])
                patterns[kind] = (
                    observed,
                    client.stats.hits,
                    client.stats.misses,
                    client.stats.cache_rpcs,
                )
            finally:
                deployment.shutdown()
        assert patterns["socket"] == patterns["inprocess"]
        assert patterns["socket-process"] == patterns["inprocess"]
