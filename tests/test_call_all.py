"""``call_all`` against the loop it stands for.

``TxCacheClient.call_all(calls)`` sends the lookups of several cacheable
calls as one batch, then takes the answers in call order under the
exactness rule of its docstring.  Everything the application and the cache
can see must be what ``[fn(*args) for fn, args in calls]`` gives; only the
number of cache round trips may differ.  Each check runs a deployment beside
a twin whose ``call_all`` is that plain loop:

* RUBiS, bidding and browsing mixes, on in-process and process-hosted
  nodes: page outputs, commit timestamps, client statistics and every
  node's stored versions are identical, and ``cache_rpcs`` is lower;
* Hypothesis at the library level: several pins, hits that can no longer
  narrow the pin set, keys stored mid-batch (directly and from a nested
  call), duplicate keys, a nested ``call_all``, queries between batches,
  the three consistency modes and read/write transactions, compared after
  every batch.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.rubis.workload import BIDDING_MIX, BROWSING_MIX
from repro.core.api import ConsistencyMode
from repro.core.exceptions import NotInTransactionError
from repro.core.stats import MissType
from repro.db.query import Eq, Select
from repro.db.schema import TableSchema
from repro.deployment import TxCacheDeployment
from tests.helpers import failover_batch, node_views, rubis_sessions, run_interactions


def plain_loop(calls):
    """What ``call_all`` stands for."""
    return [fn(*args) for fn, args in calls]


def counted_stats(client) -> dict:
    """The client's statistics, round trips aside."""
    stats = dataclasses.asdict(client.stats)
    del stats["cache_rpcs"]
    return stats


def stored_versions(deployment) -> dict:
    """Every version every node holds: value, interval and tags."""
    return {
        (name, key): [(entry.value, entry.interval, entry.tags) for entry in view.versions_of(key)]
        for name, view in node_views(deployment.cache).items()
        for key in view.keys()
    }


# ----------------------------------------------------------------------
# RUBiS, batched pages beside the plain loop
# ----------------------------------------------------------------------
def rubis_run(transport: str, mix, batched: bool, interactions: int):
    """Page outputs and commit timestamps, statistics, stored versions and
    cache round trips of one seeded RUBiS run."""
    deployment = TxCacheDeployment(
        cache_nodes=2,
        cache_capacity_bytes_per_node=32 << 20,
        transport=transport,
        default_staleness=10.0,
    )
    try:
        client = deployment.client()
        if not batched:
            client.call_all = plain_loop
        sessions = rubis_sessions(deployment, client, seed=1, staleness=10.0, scale=400, mix=mix)
        app = sessions[0].app
        seen = []
        run_read_only, commit = app.run_read_only, client.commit

        def recorded_page(page_function, *args, staleness=None):
            seen.append(run_read_only(page_function, *args, staleness=staleness))
            return seen[-1]

        def recorded_commit():
            seen.append(commit())
            return seen[-1]

        app.run_read_only = recorded_page
        client.commit = recorded_commit
        run_interactions(deployment, sessions, 0, interactions, dt=0.020)
        return seen, counted_stats(client), stored_versions(deployment), client.stats.cache_rpcs
    finally:
        deployment.shutdown()


@pytest.mark.parametrize("transport", ["inprocess", "socket-process"])
@pytest.mark.parametrize("mix", [BIDDING_MIX, BROWSING_MIX], ids=["bidding", "browsing"])
def test_rubis_pages_batched_equal_the_plain_loop(transport, mix):
    interactions = 1500 if transport == "inprocess" else 600
    seen, stats, stored, rpcs = rubis_run(transport, mix, True, interactions)
    plain_seen, plain_stats, plain_stored, plain_rpcs = rubis_run(
        transport, mix, False, interactions
    )
    assert stats["hits"] > 0 and stats["misses"] > 0 and stats["db_queries"] > 0
    assert seen == plain_seen
    assert stats == plain_stats
    assert stored == plain_stored
    assert rpcs < plain_rpcs


# ----------------------------------------------------------------------
# The library, under Hypothesis
# ----------------------------------------------------------------------
ROWS = 5


class Library:
    """One deployment with three cacheables over a five-row table.

    ``get(i)`` reads a row; ``pair(i, j)`` calls ``get`` twice, so a miss
    stores ``get``'s keys from a nested call; ``spread(i, j)`` makes a
    nested ``call_all`` whose first call stores its later calls' keys.
    """

    def __init__(self, mode: ConsistencyMode, batched: bool) -> None:
        self.deployment = TxCacheDeployment(
            cache_nodes=2,
            cache_capacity_bytes_per_node=4 << 20,
            mode=mode,
            default_staleness=60.0,
        )
        database = self.deployment.database
        database.create_table(TableSchema.build("rows", ["id", "v"], primary_key="id"))
        database.bulk_load("rows", [{"id": i, "v": 0} for i in range(ROWS)])
        self.client = client = self.deployment.client()
        if not batched:
            client.call_all = plain_loop
        self.get = client.make_cacheable(self._get, name="get")
        self.pair = client.make_cacheable(self._pair, name="pair")
        self.spread = client.make_cacheable(self._spread, name="spread")

    def _get(self, i):
        return self.client.query(Select("rows", Eq("id", i))).rows[0]["v"]

    def _pair(self, i, j):
        return (self.get(i), self.get(j))

    def _spread(self, i, j):
        return tuple(
            self.client.call_all([(self.pair, (i, j)), (self.get, (i,)), (self.get, (j,))])
        )

    def calls(self, specs):
        return [(getattr(self, name), tuple(args)) for name, *args in specs]

    def write(self, changes) -> None:
        client = self.client
        with client.read_write():
            for row, value in changes:
                client.update("rows", Eq("id", row), {"v": value})

    def observed(self) -> tuple:
        """What a call may change besides its result."""
        client = self.client
        pin_set = client.current_pin_set
        pins = None if pin_set is None else (pin_set.sorted_timestamps(), pin_set.has_star)
        return pins, client.current_timestamp, counted_stats(client)


#: Four of the five rows, so that keys repeat.
row = st.integers(0, 3)
call = st.one_of(
    st.tuples(st.just("get"), row),
    st.tuples(st.just("pair"), row, row),
    st.tuples(st.just("spread"), row, row),
)
#: One round of history: writes, then a transaction on a newly pinned
#: snapshot that caches some calls.  Rounds are seconds apart, so each pins
#: its own snapshot and the final transaction starts with several pins.  A
#: round that rewrites every row leaves versions valid at its pin alone, the
#: source of hits that a batch's earlier calls leave no timestamp.
history_round = st.tuples(
    st.one_of(
        st.lists(st.tuples(row, st.integers(1, 9)), min_size=1, max_size=3),
        st.integers(1, 9).map(lambda value: [(i, value) for i in range(ROWS)]),
    ),
    st.lists(call, max_size=6),
)
#: One step of the final transaction: one time in ten a query (which fixes
#: the transaction's timestamp), then a batch.
step = st.tuples(st.integers(0, 9), st.lists(call, max_size=6))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    # Only the consistent mode narrows pin sets: it gets half the examples.
    mode=st.sampled_from([ConsistencyMode.CONSISTENT, *ConsistencyMode]),
    history=st.lists(history_round, min_size=2, max_size=4),
    steps=st.lists(step, min_size=1, max_size=4),
)
def test_call_all_equals_the_plain_loop(mode, history, steps):
    twins = [Library(mode, batched=True), Library(mode, batched=False)]
    for library in twins:
        for changes, warm in history:
            library.write(changes)
            library.deployment.advance(6.0)
            with library.client.read_only(staleness=0.0):
                plain_loop(library.calls(warm))
            library.deployment.advance(1.0)
        library.client.begin_ro()
    batched, plain = twins
    assert batched.observed() == plain.observed()
    for query_first, specs in steps:
        if query_first == 0:
            for library in twins:
                library.client.query(Select("rows", Eq("id", 0)))
        assert batched.client.call_all(batched.calls(specs)) == plain_loop(plain.calls(specs))
        assert batched.observed() == plain.observed()
    assert batched.client.commit() == plain.client.commit()
    assert counted_stats(batched.client) == counted_stats(plain.client)
    assert stored_versions(batched.deployment) == stored_versions(plain.deployment)


def test_hits_that_cannot_narrow_and_keys_stored_mid_batch_are_looked_up_again():
    """The two halves of the rule, each on a batch that needs it."""
    twins = [Library(ConsistencyMode.CONSISTENT, batched) for batched in (True, False)]
    for library in twins:
        # get(1) is cached at the first pin only, get(3) at the second only,
        # and get(2) at each.
        with library.client.read_only(staleness=0.0):
            plain_loop(library.calls([("get", 1), ("get", 2)]))
        library.write([(1, 5), (2, 5), (3, 5)])
        library.deployment.advance(6.0)
        with library.client.read_only(staleness=0.0):
            plain_loop(library.calls([("get", 2), ("get", 3)]))
        library.deployment.advance(1.0)
        library.client.begin_ro()
    batched, plain = twins
    # Every get answers a hit at the batch's bounds, but get(1) narrows the
    # pin set to the first pin, which the versions of get(2) and get(3) the
    # batch saw leave nothing: get(2) hits its older version on its own
    # lookup, get(3) misses.  pair(0, 4) stores get(0) before get(0)'s turns.
    specs = [("get", 1), ("get", 2), ("get", 3), ("pair", 0, 4), ("get", 0), ("get", 0)]
    calls = batched.calls(specs)
    nodes = {
        batched.deployment.cache.replicas_for(fn.__txcache_key_maker__(args, {}))[0]
        for fn, args in calls
    }
    before = batched.client.stats.cache_rpcs
    assert batched.client.call_all(calls) == plain_loop(plain.calls(specs))
    assert batched.observed() == plain.observed()
    stats = batched.client.stats
    assert (stats.hits, stats.misses_by_type[MissType.CONSISTENCY]) == (4, 1)
    # One round trip per node the batch went to; then get(2), get(3), pair's
    # nested get(0) and get(4), and twice get(0) look up on their own; and
    # get(3), get(0), get(4) and pair(0, 4) are put.
    assert stats.cache_rpcs - before == len(nodes) + 6 + 4
    batched.client.commit()
    plain.client.commit()
    assert stored_versions(batched.deployment) == stored_versions(plain.deployment)


@pytest.mark.parametrize("mode", list(ConsistencyMode))
def test_outside_a_transaction_and_read_write_are_the_plain_loop(mode):
    library = Library(mode, batched=True)
    calls = library.calls([("get", 1), ("pair", 1, 2)])
    with pytest.raises(NotInTransactionError):
        library.client.call_all(calls)
    assert library.client.call_all([]) == []
    with library.client.read_write():
        assert library.client.call_all(calls) == [0, (0, 0)]
    stats = library.client.stats
    # pair's nested get calls bypass too: four calls, no cache traffic.
    assert (stats.cache_bypassed_calls, stats.lookups, stats.cache_rpcs) == (4, 0, 0)


def test_a_batch_that_fails_over_gets_each_call_its_own_value():
    """Over sockets with R = 2 and one node shut down: the dead node's call
    fails over onto the node that answers the rest of the batch, and every
    call still returns its own row."""
    deployment = TxCacheDeployment(
        cache_nodes=3,
        cache_capacity_bytes_per_node=4 << 20,
        transport="socket",
        replication_factor=2,
        default_staleness=60.0,
    )
    try:
        database = deployment.database
        database.create_table(TableSchema.build("rows", ["id", "v"], primary_key="id"))
        database.bulk_load("rows", [{"id": i, "v": f"row{i}"} for i in range(40)])
        client = deployment.client()
        get = client.make_cacheable(
            lambda i: client.query(Select("rows", Eq("id", i))).rows[0]["v"], name="get"
        )
        key_of = {get.__txcache_key_maker__((i,), {}): i for i in range(40)}
        batch, victim = failover_batch(deployment.cache.replicas_for, list(key_of))
        rows = [key_of[key] for key in batch]
        with client.read_only():
            plain_loop([(get, (i,)) for i in rows])
        deployment.cache.processes[victim].shutdown()
        with client.read_only():
            assert client.call_all([(get, (i,)) for i in rows]) == [f"row{i}" for i in rows]
        assert client.stats.hits == 3
    finally:
        deployment.shutdown()
