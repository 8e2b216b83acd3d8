"""Anti-entropy repair: its wire cost, its outcome, and its pages.

Three concerns:

* **wire cost of repair** (pinned per transport via the transports'
  ``op_counts``): a clean sweep is one ``key_digest`` round trip per page
  of each store — N for stores within one page — and nothing else: no
  ``keys``, no ``keys_in_range``, no entry pages; and even a dirty sweep
  never falls back to full ``keys`` inventories;
* **outcome**: a threshold eviction at R = 2 is followed by a repair that
  leaves every surviving key on its full replica set; the outcome does not
  depend on the page size, a node leaving between two pages is a node
  lost, and a repair that raises leaves the next one to finish its work;
* **foreground traffic between pages**: a node serves one frame at a time,
  so a repair keeps out of the foreground's way by being made of bounded
  pages — one frame each, with foreground probes answered between them.
  That is why the synchronous sweep needs no budget.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.cache import membership as membership_module
from repro.cache import server as server_module
from repro.cache.cluster import CacheCluster
from repro.comm import wire
from repro.deployment import TxCacheDeployment
from repro.interval import Interval
from tests.helpers import crash_and_detect, transports_under_test

# ----------------------------------------------------------------------
# Repair wire cost, pinned via transport op counters
# ----------------------------------------------------------------------
def _sum_op_counts(cluster: CacheCluster) -> dict:
    totals: dict = {}
    for transport in cluster.transports.values():
        for op, count in transport.op_counts.items():
            totals[op] = totals.get(op, 0) + count
    return totals


def _reset_op_counts(cluster: CacheCluster) -> None:
    for transport in cluster.transports.values():
        transport.op_counts.clear()


@pytest.mark.parametrize("transport", transports_under_test())
def test_clean_repair_costs_exactly_n_digest_rpcs(transport):
    with TxCacheDeployment(
        cache_nodes=3, transport=transport, replication_factor=2
    ) as deployment:
        cluster = deployment.cache
        for i in range(30):
            cluster.put(f"key{i}", f"value{i}", Interval(1, None))
        _reset_op_counts(cluster)
        installed = deployment.membership.repair()
        totals = _sum_op_counts(cluster)
        assert installed == 0
        assert totals.get("key_digest") == 3  # one per node, nothing else
        assert totals.get("keys", 0) == 0
        assert totals.get("keys_in_range", 0) == 0
        assert totals.get("extract_entries", 0) == 0
        assert totals.get("install_entries", 0) == 0
        assert deployment.membership.stats.repair_arcs_dirty == 0


@pytest.mark.parametrize("transport", transports_under_test())
def test_dirty_repair_fetches_keys_only_for_divergent_arcs(transport):
    with TxCacheDeployment(
        cache_nodes=3, transport=transport, replication_factor=2
    ) as deployment:
        cluster = deployment.cache
        for i in range(30):
            cluster.put(f"key{i}", f"value{i}", Interval(1, None))
        victim = "cache1"
        lost = cluster.node_keys(victim)[:10]
        cluster.discard_keys(victim, lost)
        _reset_op_counts(cluster)
        stats = deployment.membership.stats
        installed = deployment.membership.repair()
        totals = _sum_op_counts(cluster)
        assert installed == len(lost)
        assert totals.get("key_digest") == 3
        # Key lists were fetched for dirty arcs — but never via the
        # whole-store ``keys`` inventory the old sweep used.
        assert totals.get("keys_in_range", 0) >= 1
        assert totals.get("keys", 0) == 0
        assert stats.repair_arcs_dirty >= 1
        assert stats.repair_arcs_clean >= 1
        assert sorted(cluster.node_keys(victim)) == sorted(
            set(cluster.node_keys(victim)) | set(lost)
        )


@pytest.mark.parametrize("transport", transports_under_test())
def test_a_node_share_longer_than_one_walk_is_walked_in_groups(transport, monkeypatch):
    """A node walks at most ``MAX_BATCH_ITEMS`` arcs per frame (a
    thread-hosted node refuses more from the list header), so the mover
    walks a longer share as consecutive walks and repair still restores
    every lost key.  The node reads the bound through ``wire``, the mover
    through ``membership``; both are lowered."""
    monkeypatch.setattr(wire, "MAX_BATCH_ITEMS", 16)
    monkeypatch.setattr(membership_module, "MAX_BATCH_ITEMS", 16)
    with TxCacheDeployment(
        cache_nodes=3, transport=transport, replication_factor=2
    ) as deployment:
        cluster = deployment.cache
        for i in range(30):
            cluster.put(f"key{i}", f"value{i}", Interval(1, None))
        victim = "cache1"
        lost = cluster.node_keys(victim)[:10]
        cluster.discard_keys(victim, lost)
        shares = [len(cluster.ring.replica_ranges(node, 2)) for node in cluster.ring.nodes]
        assert min(shares) > 16
        _reset_op_counts(cluster)
        assert deployment.membership.repair() == len(lost)
        assert _sum_op_counts(cluster).get("key_digest") == sum(-(-share // 16) for share in shares)
        assert set(lost) <= set(cluster.node_keys(victim))


# ----------------------------------------------------------------------
# Repair after a threshold eviction
# ----------------------------------------------------------------------
def test_a_threshold_eviction_at_r2_returns_with_every_key_on_its_replica_set():
    deployment = TxCacheDeployment(cache_nodes=3, replication_factor=2)
    cluster = deployment.cache
    keys = [f"key{i}" for i in range(20)]
    for key in keys:
        cluster.put(key, f"value-{key}", Interval(1, None))
    crash_and_detect(cluster, "cache1")  # the threshold evicts it: auto-repair
    assert "cache1" not in cluster.ring
    assert deployment.membership.stats.repairs == 1
    assert deployment.membership.stats.entries_re_replicated > 0
    # R = 2 lost no key, and each is back on both members of its replica set.
    held = {node: set(cluster.node_keys(node)) for node in cluster.ring.nodes}
    for key in keys:
        assert sorted(node for node in held if key in held[node]) == sorted(
            cluster.replicas_for(key)
        ), key


# ----------------------------------------------------------------------
# One repair path: its outcome at any page size, under a leave, after an error
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transport", transports_under_test())
def test_a_repair_in_small_pages_matches_a_whole_store_sweep_exactly(transport):
    """The page size moves only the number of entry pages: a sweep of
    four-key pages and a sweep of whole-store pages re-store the same
    versions, walk the same digest and inventory pages and find the same
    arcs dirty."""
    with TxCacheDeployment(
        cache_nodes=3, transport=transport, replication_factor=2
    ) as deployment:
        cluster = deployment.cache
        membership = deployment.membership
        keys = [f"key{i}" for i in range(40)]
        for key in keys:
            cluster.put(key, f"value-{key}", Interval(1, None))
        victim = "cache2"
        lost = cluster.node_keys(victim)[: len(cluster.node_keys(victim)) // 2]
        outcomes = []
        for chunk_size in (4, len(keys)):
            cluster.discard_keys(victim, lost)
            before = dataclasses.replace(membership.stats)
            membership.chunk_size = chunk_size
            installed = membership.repair()
            after = membership.stats
            outcomes.append(
                (
                    installed,
                    sorted(cluster.node_keys(victim)),
                    after.repair_digest_rpcs - before.repair_digest_rpcs,
                    after.inventory_pages - before.inventory_pages,
                    after.repair_arcs_dirty - before.repair_arcs_dirty,
                    after.migration_chunks - before.migration_chunks,
                )
            )
        small, whole = outcomes
        assert small[0] == whole[0] == len(lost)
        assert small[1:5] == whole[1:5]
        assert set(lost) <= set(small[1])
        assert small[5] > whole[5]  # the same entries, in more pages


@pytest.mark.parametrize("transport", transports_under_test())
def test_a_repair_survives_a_node_leaving_between_its_pages(transport, monkeypatch):
    """A node that leaves between two pages of a repair is, for the rest of
    that repair, a node that stopped answering: the repair finishes without
    raising, and the repair and the leave's drain together leave every key
    on its full replica set."""
    with TxCacheDeployment(
        cache_nodes=4, transport=transport, replication_factor=2
    ) as deployment:
        cluster = deployment.cache
        membership = deployment.membership
        membership.chunk_size = 4
        keys = [f"key{i}" for i in range(200)]
        for key in keys:
            cluster.put(key, key, Interval(1, None))
        cluster.discard_keys("cache2", cluster.node_keys("cache2")[:20])
        real_extract = cluster.extract_entries
        state = {"left": False, "leaving": False, "pages_after": 0}

        def extract_then_leave(node, cursor, limit):
            if state["left"] and not state["leaving"]:
                state["pages_after"] += 1
            page = real_extract(node, cursor, limit)
            if not state["left"]:
                state["left"] = state["leaving"] = True
                membership.leave("cache3")  # between this page and the next
                state["leaving"] = False
            return page

        monkeypatch.setattr(cluster, "extract_entries", extract_then_leave)
        membership.repair()
        assert state["left"] and state["pages_after"] > 0
        assert "cache3" not in cluster.ring
        held = {node: set(cluster.node_keys(node)) for node in cluster.ring.nodes}
        for key in keys:
            assert sorted(node for node in held if key in held[node]) == sorted(
                cluster.replicas_for(key)
            ), key


def test_a_repair_that_raises_does_not_poison_the_next_one(monkeypatch):
    """An error the mover does not take for a lost node (a bug, say) leaves
    the repair that met it; the membership stays usable, and the next
    repair restores every key the failed one did not."""
    deployment = TxCacheDeployment(cache_nodes=3, replication_factor=2)
    cluster = deployment.cache
    membership = deployment.membership
    for i in range(40):
        cluster.put(f"key{i}", f"value{i}", Interval(1, None))
    victim = "cache2"
    lost = cluster.node_keys(victim)[: len(cluster.node_keys(victim)) // 2]
    cluster.discard_keys(victim, lost)
    real_install = cluster.install_entries
    raises = [1]

    def install_raising_once(node, records):
        if raises[0]:
            raises[0] -= 1
            raise RuntimeError("boom")
        return real_install(node, records)

    monkeypatch.setattr(cluster, "install_entries", install_raising_once)
    with pytest.raises(RuntimeError, match="boom"):
        membership.repair()
    assert not set(lost) & set(cluster.node_keys(victim))
    assert membership.repair() == len(lost)
    assert set(lost) <= set(cluster.node_keys(victim))
    assert membership.repair() == 0  # nothing left over
    assert membership.stats.repairs == 3
    assert membership.stats.entries_re_replicated == len(lost)


# ----------------------------------------------------------------------
# Foreground traffic between the pages of a repair
# ----------------------------------------------------------------------
def test_repair_interleaves_with_foreground_probes_page_by_page(monkeypatch):
    """Each page of a repair is one bounded frame at the node, and the node
    serves a foreground probe between any two of them.

    A node serves one frame at a time, so what keeps foreground traffic
    moving through a repair is that the repair is made of pages: no budget
    is needed to keep it out of the foreground's way.  Pages of
    eight keys make every pass of the sweep — digests, key lists, entry
    pages — span several frames over the wire.  After every page the drain
    hands over to the foreground, whose probe must be answered before the
    next page is asked for; every page stays within its limit; and the
    sweep, folded across pages, re-replicates exactly what was lost.
    """
    page_keys = 8
    monkeypatch.setattr(server_module, "SCAN_PAGE_KEYS", page_keys)
    with TxCacheDeployment(
        cache_nodes=2, transport="socket", replication_factor=2
    ) as deployment:
        cluster = deployment.cache
        for i in range(40):
            cluster.put(f"key{i}", f"value{i}", Interval(1, None))
        victim = "cache0"
        lost = cluster.node_keys(victim)[:5]
        cluster.discard_keys(victim, lost)
        pages = []
        for server in cluster.servers.values():
            take_page = server._page

            def counted(cursor, limit, take_page=take_page):
                chunk, next_cursor = take_page(cursor, limit)
                pages.append((len(chunk), min(limit, page_keys)))
                return chunk, next_cursor

            server._page = counted
        page_done, probed = threading.Event(), threading.Event()
        ops = []
        for op in ("key_digest", "keys_in_range", "extract_entries"):
            original = getattr(cluster, op)

            def handing_over(*args, op=op, original=original):
                answer = original(*args)
                ops.append(op)
                page_done.set()  # the page is in: let the foreground in
                assert probed.wait(timeout=10), "the foreground probe never came back"
                probed.clear()
                return answer

            monkeypatch.setattr(cluster, op, handing_over)
        membership = deployment.membership
        membership.chunk_size = 4
        repaired = []
        drainer = threading.Thread(target=lambda: repaired.append(membership.repair()))
        drainer.start()
        probes = 0
        try:
            while drainer.is_alive() or page_done.is_set():
                if not page_done.wait(timeout=0.05):
                    continue
                page_done.clear()
                assert cluster.transport_for("key1").probe("key1", 0, 10)
                probes += 1
                probed.set()
        finally:
            probed.set()
            drainer.join(timeout=30)
        assert not drainer.is_alive()
        assert repaired == [len(lost)]
        assert probes == len(ops)
        assert {"key_digest", "keys_in_range", "extract_entries"} <= set(ops)
        assert ops.count("key_digest") > len(cluster.servers)  # digests span pages
        assert pages and all(size <= limit for size, limit in pages)
        assert membership.stats.entries_re_replicated == len(lost)
        assert set(lost) <= set(cluster.node_keys(victim))
