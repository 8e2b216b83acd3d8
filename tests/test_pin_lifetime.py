"""A transaction that has asked the database has one timestamp; a pin is one
reference.

Two faults the benchmark used to count instead of hide, as regressions:

* ``EmptyPinSetError`` escaping ``TxCacheClient.query``.  Once a read-only
  transaction had opened its database snapshot at X its pin set kept the
  other pins, a later cache hit narrowed the set to pins older than X, and
  the next query — whose validity is an interval around X — found no
  survivor in ``PinSet.restrict``.  The pin set now collapses to ``{X}``
  when the snapshot is opened.  Checked by a Hypothesis property over one
  table, and by the bidding mix in the benchmark's configuration at the four
  seeds that failed, each cut to the prefix that first raised.
* The pin leak.  Every library instance that pinned a snapshot the
  pincushion already had left one database reference nobody would drop, and
  snapshots were registered under the wall clock of their *commit*, so in a
  quiet spell every transaction pinned the same latest snapshot again.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import MissType
from repro.db.query import Eq, Select
from repro.db.schema import TableSchema
from repro.deployment import TxCacheDeployment
from tests.helpers import (
    assert_pin_invariant,
    assert_pins_drain,
    rubis_sessions,
    run_interactions,
)

ROWS = 4


def build() -> TxCacheDeployment:
    deployment = TxCacheDeployment(cache_nodes=2)
    deployment.database.create_table(TableSchema.build("t", ["id", "v"], primary_key="id"))
    deployment.database.bulk_load("t", [{"id": i, "v": 0} for i in range(ROWS)])
    return deployment


def select_row(row_id: int) -> Select:
    return Select("t", Eq("id", row_id))


def cacheable_get_row(client):
    return client.cacheable(
        lambda row_id: client.query(select_row(row_id)).rows[0]["v"], name="get_row"
    )


# ----------------------------------------------------------------------
# The pin leak
# ----------------------------------------------------------------------
def test_a_quiet_spell_takes_one_pin_and_expiry_drops_it():
    """One table, one client, five read-only transactions six seconds
    apart, no writes: ``{0: 5}`` then ``{0: 4}`` for ever, before."""
    deployment = build()
    client = deployment.client()
    for _ in range(5):
        with client.read_only():
            client.query(select_row(1))
        deployment.advance(6)
    assert deployment.database.pinned_snapshots == {0: 1}
    assert deployment.pincushion.pinned_ids == [0]
    deployment.advance(500)
    deployment.housekeeping()
    assert deployment.database.pinned_snapshots == {}
    assert deployment.pincushion.pinned_ids == []


def test_a_snapshot_seen_to_be_latest_is_fresh_as_of_that_moment():
    """Registered under the wall clock it was *observed* at: forty seconds
    after the only commit, snapshot 0 is still what the database holds, and
    a transaction that tolerates one second may use the pin of a moment ago
    instead of taking another."""
    deployment = build()
    client = deployment.client()
    deployment.advance(40)
    with client.read_only(staleness=1):
        client.query(select_row(1))
    assert deployment.pincushion.snapshot(0).wallclock == 40
    deployment.advance(0.5)
    pins_before = deployment.database.stats.pins
    with client.read_only(staleness=1):
        assert client.current_pin_set.timestamps == frozenset({0})
        client.query(select_row(1))
    assert deployment.database.stats.pins == pins_before
    assert_pins_drain(deployment)


def test_two_clients_pinning_one_snapshot_share_one_reference():
    deployment = build()
    first, second = deployment.client(), deployment.client()
    first.begin_ro()
    deployment.advance(31)  # too old for the second client's window
    second.begin_ro()
    assert deployment.pincushion.snapshot(0).in_use == 2
    assert_pin_invariant(deployment)
    first.commit()
    second.commit()
    assert deployment.pincushion.snapshot(0).in_use == 0
    assert_pins_drain(deployment)


# ----------------------------------------------------------------------
# One timestamp once the database has been asked
# ----------------------------------------------------------------------
def test_pin_set_collapses_when_the_snapshot_is_opened():
    deployment = build()
    client = deployment.client()
    for version in (1, 2):  # leave two pins behind, 0 and 1; latest is 2
        with client.read_only():
            client.query(select_row(0))
        with client.read_write():
            client.update("t", Eq("id", 0), {"v": version})
        deployment.advance(6)  # past the new-pin threshold: the next one pins
    with client.read_only(staleness=60):
        assert len(client.current_pin_set.timestamps) >= 2
        client.query(select_row(1))
        chosen = client.current_timestamp
        assert client.current_pin_set.timestamps == frozenset({chosen})
        assert not client.current_pin_set.has_star


def test_a_version_that_excludes_the_open_snapshot_is_a_consistency_miss():
    """Not a hit that narrows the set to an older pin, and not an exception
    from the query after it (the shape of every benchmark failure)."""
    deployment = build()
    client = deployment.client()
    get_row = cacheable_get_row(client)
    with client.read_only():
        assert get_row(0) == 0  # cached at snapshot 0, pinned
    with client.read_write():
        client.update("t", Eq("id", 0), {"v": 1})  # ... and ended at 1
    deployment.advance(1)
    with client.read_write():
        client.update("t", Eq("id", 1), {"v": 1})
    deployment.advance(6)  # the old pin is past the new-pin threshold
    before = client.stats.misses_by_type[MissType.CONSISTENCY]
    with client.read_only(staleness=60):
        assert client.current_pin_set.timestamps == frozenset({0})
        assert client.query(select_row(2)).rows[0]["v"] == 0  # opens snapshot 2
        assert client.current_timestamp == 2
        assert get_row(0) == 1  # [0, 1) excludes 2: recomputed, not reused
        assert client.query(select_row(1)).rows[0]["v"] == 1  # raised before
    assert client.stats.misses_by_type[MissType.CONSISTENCY] == before + 1
    assert_pins_drain(deployment)


row_ids = st.integers(min_value=0, max_value=ROWS - 1)
reader_ops = st.one_of(
    st.tuples(st.just("call"), row_ids),
    st.tuples(st.just("query"), row_ids),
    st.tuples(st.just("write"), row_ids),
    st.tuples(st.just("advance"), st.sampled_from([0.5, 3.0, 6.0])),
)
schedule_steps = st.one_of(
    st.tuples(st.just("write"), row_ids),
    st.tuples(st.just("advance"), st.sampled_from([0.5, 3.0, 6.0, 20.0])),
    st.tuples(st.just("housekeeping"), st.none()),
    st.tuples(
        st.just("read_only"),
        st.tuples(st.sampled_from([0, 5, 30, 60]), st.lists(reader_ops, max_size=8)),
    ),
)


@given(st.lists(schedule_steps, max_size=30))
@settings(max_examples=150, deadline=None)
def test_no_interleaving_inside_a_read_only_transaction_empties_the_pin_set(steps):
    """Hits, consistency misses and queries in any order inside one
    read-only transaction, writers committing in between: nothing raises,
    everything observed belongs to the snapshot COMMIT names, and the pin
    invariant holds between transactions."""
    deployment = build()
    client = deployment.client()
    database = deployment.database
    get_row = cacheable_get_row(client)

    def write(row_id):
        transaction = database.begin_rw()
        current = transaction.query(select_row(row_id)).rows[0]["v"]
        transaction.update("t", Eq("id", row_id), {"v": current + 1})
        transaction.commit()

    for kind, argument in steps:
        if kind == "write":
            write(argument)
        elif kind == "advance":
            deployment.advance(argument)
        elif kind == "housekeeping":
            deployment.housekeeping()  # conftest holds it to the pin invariant
        else:
            staleness, ops = argument
            observed = []
            client.begin_ro(staleness)
            for op, value in ops:
                if op == "call":
                    observed.append((value, get_row(value)))
                elif op == "query":
                    observed.append((value, client.query(select_row(value)).rows[0]["v"]))
                elif op == "write":
                    write(value)
                else:
                    deployment.advance(value)
                assert not client.current_pin_set.empty
            timestamp = client.commit()
            at_commit = database.begin_ro(timestamp)
            for row_id, seen in observed:
                assert at_commit.query(select_row(row_id)).rows[0]["v"] == seen, (
                    timestamp, observed
                )
            assert_pin_invariant(deployment)
    assert_pins_drain(deployment)


# ----------------------------------------------------------------------
# The benchmark's failures, cut to the interaction that first raised
# ----------------------------------------------------------------------
#: seed -> interactions up to and including the first ``EmptyPinSetError``
#: of ``rubis-bidding-inproc`` before the pin set collapsed.
FIRST_FAILURE = {2: 2527, 3: 7521, 5: 7054, 7: 6104}


@pytest.mark.parametrize("seed", sorted(FIRST_FAILURE))
def test_bidding_prefix_that_raised_runs_clean(seed):
    """The benchmark's bidding configuration without importing ``perf/``:
    ``IN_MEMORY_CONFIG.scaled(100)`` loaded with seed 42, 24 sessions seeded
    ``seed * 1000 + i`` stepped round-robin at 30 s staleness, 10 ms of
    virtual time per interaction, housekeeping every 400."""
    deployment = TxCacheDeployment(
        cache_nodes=2, cache_capacity_bytes_per_node=32 << 20, default_staleness=30.0
    )
    client = deployment.client()
    sessions = rubis_sessions(deployment, client, seed)
    # Any exception fails the test; conftest holds every housekeeping() of
    # the run to the pin invariant.
    run_interactions(deployment, sessions, 0, FIRST_FAILURE[seed])
    assert not client.in_transaction
    assert_pins_drain(deployment)
