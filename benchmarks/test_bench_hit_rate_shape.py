"""The hit rate does not depend on how long you watch.

The benchmark's bidding mix (``perf/workloads.py``, rebuilt here from
``tests.helpers`` without importing it) on its virtual clock: a warm-up,
then two consecutive windows of equal length.  Asserted as *shape*, in
counts the program makes itself and that repeat exactly at a seed — no
clock is read:

* no interaction fails;
* the second window's hit rate is not below the first's (0.02 of slack);
* no still-valid result of a primary-key read is stored narrower than the
  row's own version says it is valid.

The third is the cause of what the second used to show.  A result read from
a row that had been written once was stored as the one-timestamp sliver
``[T, T + 1)`` (the cache node counted the invalidation of the very commit
the value was read from against it), so as the bidding mix wrote more rows
fewer of them could be cached at all and the hit rate fell with run length
— this is ROADMAP item 3(b)'s stationarity check in miniature, as a tier-1
count.
"""

from __future__ import annotations

import pytest

from repro.deployment import TxCacheDeployment
from tests.helpers import rubis_sessions, run_interactions

WARM = 2000
WINDOW = 3000
SLACK = 0.02
#: Tables whose cacheable reads by ``id`` are reads of one row.
PRIMARY_KEY_READS = ("users", "items")


def _window(deployment, client, sessions, first):
    hits, misses = client.stats.hits, client.stats.misses
    run_interactions(deployment, sessions, first, WINDOW)  # a failure raises
    hits, misses = client.stats.hits - hits, client.stats.misses - misses
    return hits / (hits + misses)


def _row_versions(database):
    """(table, id) -> {xmin: xmax} of the versions vacuum has not removed."""
    versions = {}
    for table in PRIMARY_KEY_READS:
        stored = database.table(table)
        for version in stored.scan_versions():
            key = (table, stored.row_of(version)["id"])
            versions.setdefault(key, {})[version.xmin] = version.xmax
    return versions


@pytest.mark.parametrize("seed", [1, 2, 3, 5, 7])
def test_bidding_hit_rate_holds_and_row_reads_keep_their_validity(seed):
    deployment = TxCacheDeployment(
        cache_nodes=2, cache_capacity_bytes_per_node=32 << 20, default_staleness=30.0
    )
    client = deployment.client()
    sessions = rubis_sessions(deployment, client, seed)

    #: (key, lower bound, table, id) of every still-valid put whose one
    #: dependency is a row of a table read by primary key.
    row_reads = []
    cluster_put = deployment.cache.put

    def recording_put(key, value, interval, tags=frozenset()):
        if interval.unbounded and len(tags) == 1:
            (tag,) = tags
            if tag.table in PRIMARY_KEY_READS and tag.column == "id":
                row_reads.append((key, interval.lo, tag.table, tag.value))
        return cluster_put(key, value, interval, tags)

    deployment.cache.put = recording_put
    run_interactions(deployment, sessions, 0, WARM)
    first = _window(deployment, client, sessions, WARM)
    second = _window(deployment, client, sessions, WARM + WINDOW)

    # Every commit's invalidation has been delivered (the bus is
    # synchronous), so a stored interval is final: it must be the version's.
    versions = _row_versions(deployment.database)
    stored = {
        (entry.key, entry.interval.lo): entry.interval
        for server in deployment.cache.servers.values()
        for key in server.keys()
        for entry in server.versions_of(key)
    }
    checked = narrower = 0
    for key, lo, table, row_id in row_reads:
        row = versions.get((table, row_id), {})
        if lo not in row or (key, lo) not in stored:
            continue  # the version was vacuumed, or the entry aged out
        checked += 1
        true_hi, hi = row[lo], stored[key, lo].hi
        narrower += hi is not None and (true_hi is None or hi < true_hi)
    assert checked > 500
    assert narrower == 0, f"{narrower} of {checked} row reads stored narrower than the row"
    assert second >= first - SLACK, f"hit rate {first:.4f} then {second:.4f}"
    assert first > 0.6
