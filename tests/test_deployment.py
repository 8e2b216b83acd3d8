"""Tests for the deployment wiring helper."""

from __future__ import annotations

import dataclasses

from repro.clock import ManualClock
from repro.core.api import ConsistencyMode
from repro.db.query import Eq, Select
from repro.deployment import TxCacheDeployment
from tests.helpers import simple_schema, update_user


#: Every ``TxCacheDeployment`` field, in order.  ROADMAP item 13 admits a
#: field only as a parameter of the paper's system or a behaviour a trusted
#: number chose; a new one fails here until this list and item 13 are
#: updated together.
DEPLOYMENT_FIELDS = [
    "clock",
    "cache_nodes",
    "cache_capacity_bytes_per_node",
    "transport",
    "mode",
    "default_staleness",
    "new_pin_threshold",
    "pincushion_expiry_seconds",
    "track_validity",
    "failure_threshold",
    "rpc_timeout_seconds",
    "simulated_rpc_latency_seconds",
    "replication_factor",
    "supervision",
]


def test_the_deployment_has_exactly_its_fourteen_fields():
    fields = [field.name for field in dataclasses.fields(TxCacheDeployment)]
    assert fields == DEPLOYMENT_FIELDS
    assert len(fields) == 14


def build():
    deployment = TxCacheDeployment(cache_nodes=2)
    deployment.database.create_table(simple_schema())
    deployment.database.bulk_load(
        "users",
        [{"id": i, "name": f"user{i}", "region": 0, "score": 0.0} for i in range(1, 6)],
    )
    return deployment


class TestWiring:
    def test_cache_nodes_subscribed_to_invalidation_stream(self):
        deployment = build()
        update_user(deployment, 1, name="changed")
        for server in deployment.cache.servers.values():
            assert server.last_invalidation_timestamp == 1

    def test_clients_share_the_cache(self):
        deployment = build()
        first = deployment.client()
        second = deployment.client()
        assert first.cache is second.cache
        assert len(deployment.clients) == 2

    def test_client_mode_override(self):
        deployment = build()
        client = deployment.client(mode=ConsistencyMode.NO_CACHE)
        assert client.mode is ConsistencyMode.NO_CACHE

    def test_manual_clock_by_default(self):
        deployment = TxCacheDeployment()
        assert isinstance(deployment.clock, ManualClock)
        deployment.advance(5.0)
        assert deployment.clock.now() == 5.0


class TestHousekeeping:
    def test_housekeeping_expires_pins_and_vacuums(self):
        deployment = build()
        client = deployment.client()
        with client.read_only():
            client.query(Select("users", Eq("id", 1)))
        update_user(deployment, 1, name="v2")
        # Age everything past the pincushion expiry and staleness limit.
        deployment.advance(300.0)
        deployment.housekeeping(max_staleness=30.0)
        assert deployment.database.pinned_snapshots == {}
        # The superseded version has been vacuumed.
        assert deployment.database.table("users").version_count() == 5

    def test_housekeeping_evicts_stale_cache_entries(self):
        deployment = build()
        client = deployment.client()

        @client.cacheable(name="get_user")
        def get_user(user_id):
            return client.query(Select("users", Eq("id", user_id))).rows[0]

        with client.read_only():
            get_user(1)
        update_user(deployment, 1, name="v2")  # truncates the cached entry
        deployment.advance(300.0)
        update_user(deployment, 2, name="marker")  # a commit after the horizon
        deployment.housekeeping(max_staleness=30.0)
        assert deployment.cache.aggregate_stats().stale_evictions >= 1
