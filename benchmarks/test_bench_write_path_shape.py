"""The write path costs what it touched, not what is stored.

One precise invalidation finds its entries through the cache node's tag
index, and one UPDATE by primary key finds its row through the table's
index, so neither should slow down as unrelated entries or dead versions
pile up beside the one they touch.  Asserted as *shape* with a wide margin
(100x the bystanders may cost at most 5x; a scan of the store costs about
100x), never as a wall-clock figure, and recorded nowhere.
"""

from __future__ import annotations

import statistics
import time

from repro.cache.server import CacheServer
from repro.clock import ManualClock
from repro.comm.multicast import InvalidationMessage
from repro.db.database import Database
from repro.db.invalidation import InvalidationTag
from repro.db.query import Eq, TruePredicate
from repro.db.schema import TableSchema
from repro.interval import Interval

SMALL, LARGE = 200, 20_000
REPEATS = 41
MAX_RATIO = 5.0


def _median_seconds(timed_call, prepare=lambda repeat: None) -> float:
    samples = []
    for repeat in range(REPEATS):
        prepare(repeat)
        started = time.perf_counter()
        timed_call(repeat)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _invalidation_seconds(bystanders: int) -> float:
    """Median time to invalidate one precise tag beside ``bystanders``
    still-valid entries that depend on other keys of the same table."""
    server = CacheServer(name="shape", capacity_bytes=1 << 30)
    for i in range(bystanders):
        server.put(f"item:{i}", i, Interval(1), frozenset({InvalidationTag.key("items", "id", i)}))
    target = InvalidationTag.key("items", "id", -1)

    def put_target(repeat: int) -> None:
        assert server.put("target", repeat, Interval(2 * repeat + 1), frozenset({target}))

    def invalidate_target(repeat: int) -> None:
        server.process_invalidation(InvalidationMessage(timestamp=2 * repeat + 2, tags=(target,)))

    median = _median_seconds(invalidate_target, prepare=put_target)
    assert server.stats.entries_invalidated == REPEATS  # the target each time, nothing else
    return median


def _update_seconds(dead_versions: int) -> float:
    """Median time of one UPDATE by primary key on a table that also holds
    ``dead_versions`` versions of other rows no new snapshot can see."""
    database = Database(clock=ManualClock())
    database.create_table(TableSchema.build("accounts", ["id", "balance"], primary_key="id"))
    database.bulk_load(
        "accounts", [{"id": i, "balance": 0} for i in range(1, dead_versions + 1)]
    )
    purge = database.begin_rw()
    assert purge.delete("accounts", TruePredicate()) == dead_versions
    purge.insert("accounts", {"id": 0, "balance": 0})
    purge.commit()
    assert database.table("accounts").version_count() == dead_versions + 1

    def update_survivor(repeat: int) -> None:
        transaction = database.begin_rw()
        assert transaction.update("accounts", Eq("id", 0), {"balance": repeat}) == 1
        transaction.commit()

    return _median_seconds(update_survivor)


def test_precise_invalidation_cost_does_not_grow_with_unrelated_entries():
    small, large = _invalidation_seconds(SMALL), _invalidation_seconds(LARGE)
    assert large < MAX_RATIO * small, f"{SMALL}: {small * 1e6:.1f} us, {LARGE}: {large * 1e6:.1f} us"


def test_update_by_primary_key_cost_does_not_grow_with_dead_versions():
    small, large = _update_seconds(SMALL), _update_seconds(LARGE)
    assert large < MAX_RATIO * small, f"{SMALL}: {small * 1e6:.1f} us, {LARGE}: {large * 1e6:.1f} us"
