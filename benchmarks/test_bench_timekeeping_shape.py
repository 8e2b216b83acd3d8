"""Keeping time costs what moved, not what is held.

A read-only transaction that reads nothing asks the pincushion for the fresh
pins and hands them back: the stale pins still registered are not looked at.
Housekeeping pops the versions that expired and prunes the histories that
grew: the versions that stay and the histories nothing was added to are not
looked at.  Asserted as *shape*, by counting call events under
``sys.setprofile`` (Python and C calls both: a walk shows up as one
``list.append`` or ``bisect`` per item walked), never as a wall-clock figure.
"""

from __future__ import annotations

import sys

from benchmarks.test_bench_lookup_path_shape import _profiled
from repro.cache.server import CacheServer
from repro.comm.multicast import InvalidationMessage
from repro.db.invalidation import InvalidationTag
from repro.db.query import Eq
from repro.db.schema import TableSchema
from repro.deployment import TxCacheDeployment
from repro.interval import Interval

FRESH = 6

#: Call events of ``with client.read_only(): pass`` with six fresh pins
#: (CPython 3.11): 14 Python calls and 5 C calls.  The commit before the
#: pincushion kept its table in id order measured 38 — a sort key and a
#: ``dict.get`` per pin among them.  The bound is the new count plus 25 %.
EMPTY_TRANSACTION_EVENTS_MEASURED = 19
EMPTY_TRANSACTION_EVENTS_BOUND = EMPTY_TRANSACTION_EVENTS_MEASURED * 1.25


def _call_events(action) -> int:
    python_calls, c_calls = _profiled(action)
    del c_calls[sys.setprofile]  # _profiled switching itself off
    return sum(python_calls.values()) + sum(c_calls.values())


def _empty_transaction_events(stale: int) -> int:
    """Call events of an empty read-only transaction with ``FRESH`` fresh
    pins registered beside ``stale`` ones too old for it."""
    deployment = TxCacheDeployment(cache_nodes=1, pincushion_expiry_seconds=1e9)
    try:
        deployment.database.create_table(TableSchema.build("t", ["id", "v"], primary_key="id"))
        deployment.database.bulk_load("t", [{"id": 1, "v": 0}])
        client = deployment.client()
        for serial in range(stale + FRESH):
            if serial == stale:
                deployment.advance(1000.0)  # everything so far is now stale
            with client.read_write():
                client.update("t", Eq("id", 1), {"v": serial})
            deployment.advance(1.0)
            deployment.pincushion.release([client._pin_new_snapshot()])
        assert len(deployment.pincushion) == stale + FRESH

        def empty_transaction():
            with client.read_only():
                pass

        client.begin_ro()
        assert len(client.current_pin_set.timestamps) == FRESH
        client.commit()
        return _call_events(empty_transaction) - 1  # but for empty_transaction itself
    finally:
        deployment.shutdown()


def test_an_empty_transaction_costs_its_fresh_pins_not_the_stale_ones():
    events = {stale: _empty_transaction_events(stale) for stale in (0, 6, 60)}
    print(f"\ncall events of an empty read-only transaction, by stale pins: {events}")
    assert events[6] == events[60] == events[0]
    assert events[6] <= EMPTY_TRANSACTION_EVENTS_BOUND, (
        f"{events[6]} call events; measured {EMPTY_TRANSACTION_EVENTS_MEASURED} "
        "when this bound was set"
    )


def _evict_stale_events(stored: int, expiring: int = 50) -> int:
    """Call events of one ``evict_stale`` that removes ``expiring`` versions
    from a store of ``stored``."""
    server = CacheServer(name="shape", capacity_bytes=1 << 30)
    for i in range(stored):
        # Every key keeps one version; the first ``expiring`` end by 100.
        hi = 100 - i if i < expiring else 1000 + i
        assert server.put(f"k{i}", i, Interval(1, hi))
    events = _call_events(lambda: server.evict_stale(100))
    assert server.stats.stale_evictions == expiring
    assert server.entry_count == stored - expiring
    return events


def test_evict_stale_costs_the_versions_it_removes():
    small, large = _evict_stale_events(500), _evict_stale_events(5000)
    print(f"\ncall events of evict_stale removing 50 of 500 / 5000 versions: {small} / {large}")
    assert small == large


def _prune_events(untouched: int, grown: int = 50) -> int:
    """Call events of one ``evict_stale`` whose horizon passes ``grown``
    histories' newest members, beside ``untouched`` histories already pruned
    to their heads."""
    server = CacheServer(name="shape", capacity_bytes=1 << 30)

    def invalidate(timestamp: int, serial: int) -> None:
        tag = InvalidationTag.key("items", "id", serial)
        server.process_invalidation(InvalidationMessage(timestamp=timestamp, tags=(tag,)))

    for serial in range(untouched + grown):
        invalidate(serial + 1, serial)
    horizon = untouched + grown
    server.evict_stale(horizon)  # every history is now its head
    for serial in range(grown):
        invalidate(horizon + 1 + serial, untouched + serial)
    events = _call_events(lambda: server.evict_stale(horizon + grown))
    histories = server._tag_invalidations
    assert len(histories) == untouched + grown
    assert all(len(history) == 1 for history in histories.values())
    return events


def test_pruning_costs_the_histories_that_grew():
    small, large = _prune_events(50), _prune_events(5000)
    print(f"\ncall events of pruning 50 histories beside 50 / 5000 untouched: {small} / {large}")
    assert small == large
