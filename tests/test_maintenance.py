"""The budgeted maintenance plane and the digest-based repair wire cost.

Four concerns:

* unit behaviour of :class:`MaintenanceBudget` / :class:`ChunkedJob` /
  :class:`MaintenancePlane` on a manual clock — window refills, post-hoc
  overdraw, deferrals, failed jobs not poisoning the queue;
* **exact budget accounting**: the op/byte totals the plane reports are the
  precise sum of every chunk's charge, match the budget's own ledger, and a
  budgeted repair re-replicates exactly what a synchronous sweep would;
* **wire cost of repair** (pinned per transport via the transports'
  ``op_counts``): a clean sweep is one ``key_digest`` round trip per page
  of each store — N for stores within one page — and nothing else: no
  ``keys``, no ``keys_in_range``, no entry pages; and even a dirty sweep
  never falls back to full ``keys`` inventories;
* **foreground traffic between pages**: a node serves one frame at a time,
  so a repair keeps out of the foreground's way by being made of bounded
  pages — one frame each, with foreground probes answered between them.
"""

from __future__ import annotations

import threading

import pytest

from repro.cache import server as server_module
from repro.cache.cluster import CacheCluster
from repro.cache.maintenance import ChunkedJob, MaintenanceBudget, MaintenancePlane
from repro.cache.membership import ClusterMembership
from repro.clock import ManualClock
from repro.comm import wire
from repro.deployment import TxCacheDeployment
from repro.interval import Interval
from tests.helpers import transports_under_test

# ----------------------------------------------------------------------
# Budget / job / plane units
# ----------------------------------------------------------------------
def test_budget_refills_per_interval_on_the_injected_clock():
    clock = ManualClock()
    budget = MaintenanceBudget(
        clock=clock, ops_per_interval=2, bytes_per_interval=100, interval_seconds=1.0
    )
    assert budget.allows()
    budget.charge(2, 10)
    assert not budget.allows()  # ops exhausted
    clock.advance(0.5)
    assert not budget.allows()  # window not over yet
    clock.advance(0.5)
    assert budget.allows()  # refilled
    assert budget.windows == 2
    budget.charge(1, 500)  # single chunk may overdraw bytes post-hoc
    assert not budget.allows()
    assert (budget.consumed_ops, budget.consumed_bytes) == (3, 510)


def test_budget_rejects_degenerate_parameters():
    for kwargs in (
        {"ops_per_interval": 0},
        {"bytes_per_interval": 0},
        {"interval_seconds": 0.0},
    ):
        with pytest.raises(ValueError):
            MaintenanceBudget(clock=ManualClock(), **kwargs)


def test_chunked_job_steps_chunks_and_captures_the_result():
    def chunks():
        yield (1, 10)
        yield (2, 20)
        return "done"

    job = ChunkedJob("demo", chunks())
    assert job.step() == (False, 1, 10)
    assert job.step() == (False, 2, 20)
    done, ops, nbytes = job.step()
    assert done and (ops, nbytes) == (0, 0)
    assert job.result == "done"


def test_plane_pump_defers_on_an_exhausted_window_and_resumes():
    clock = ManualClock()
    budget = MaintenanceBudget(
        clock=clock, ops_per_interval=2, bytes_per_interval=1 << 20,
        interval_seconds=1.0,
    )
    plane = MaintenancePlane(budget=budget)

    def chunks():
        for _ in range(6):
            yield (1, 1)
        return "finished"

    job = plane.submit(ChunkedJob("six", chunks()))
    assert plane.pump() == 2  # window pays for 2 ops, then a deferral
    assert plane.stats.budget_deferrals == 1
    assert not plane.idle
    ran = 0
    while not plane.idle:
        clock.advance(1.0)
        ran += plane.pump()
    assert job.result == "finished"
    assert plane.stats.jobs_completed == 1
    # Exact accounting: every chunk's charge is in both ledgers.
    assert plane.stats.ops_charged == budget.consumed_ops == 6
    assert plane.stats.bytes_charged == budget.consumed_bytes == 6
    assert plane.stats.chunks_run == 2 + ran


def test_a_raising_job_fails_without_poisoning_the_queue():
    plane = MaintenancePlane()

    def bad():
        yield (1, 1)
        raise RuntimeError("boom")

    def good():
        yield (1, 1)
        return 7

    plane.submit(ChunkedJob("bad", bad()))
    survivor = plane.submit(ChunkedJob("good", good()))
    plane.drain()
    assert plane.stats.jobs_failed == 1
    assert plane.stats.jobs_completed == 1
    assert survivor.result == 7
    assert plane.idle


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
    """A node walks at most ``wire.MAX_BATCH_ITEMS`` arcs per frame (a
    thread-hosted node refuses more from the list header), so the mover
    walks a longer share as consecutive walks and repair still restores
    every lost key."""
    monkeypatch.setattr(wire, "MAX_BATCH_ITEMS", 16)
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
# Budgeted repair: exact accounting, parity with the synchronous sweep
# ----------------------------------------------------------------------
def _damaged_cluster(clock: ManualClock):
    cluster = CacheCluster(node_count=3, clock=clock, replication_factor=2)
    for i in range(40):
        cluster.put(f"key{i}", f"value{i}", Interval(1, None))
    victim = "cache2"
    lost = cluster.node_keys(victim)[: len(cluster.node_keys(victim)) // 2]
    cluster.discard_keys(victim, lost)
    return cluster, victim, lost


def test_budgeted_repair_matches_the_synchronous_sweep_exactly():
    sync_clock = ManualClock()
    sync_cluster, _, sync_lost = _damaged_cluster(sync_clock)
    sync_membership = ClusterMembership(sync_cluster, chunk_size=4)
    sync_installed = sync_membership.repair()
    assert sync_installed == len(sync_lost)

    clock = ManualClock()
    cluster, victim, lost = _damaged_cluster(clock)
    budget = MaintenanceBudget(
        clock=clock, ops_per_interval=2, bytes_per_interval=1 << 20,
        interval_seconds=1.0,
    )
    plane = MaintenancePlane(budget=budget)
    membership = ClusterMembership(cluster, chunk_size=4, plane=plane)
    assert membership.repair() == 0  # submitted, not yet run
    assert plane.pending_jobs == 1
    pumps = 0
    while not plane.idle:
        plane.pump()
        clock.advance(1.0)
        pumps += 1
        assert pumps < 1000, "budgeted repair failed to converge"
    # The budget throttled the sweep across many windows ...
    assert plane.stats.budget_deferrals > 0
    assert budget.windows > 2
    # ... the ledgers agree to the op ...
    assert plane.stats.ops_charged == budget.consumed_ops
    assert plane.stats.bytes_charged == budget.consumed_bytes
    # ... and the outcome is identical to the synchronous sweep.
    assert membership.stats.entries_re_replicated == sync_installed
    assert sorted(cluster.node_keys(victim)) == sorted(
        sync_cluster.node_keys(victim)
    )
    assert membership.stats.inventory_pages == sync_membership.stats.inventory_pages
    assert membership.stats.repair_arcs_dirty == sync_membership.stats.repair_arcs_dirty


def test_repair_after_crash_goes_through_the_plane_when_attached():
    clock = ManualClock()
    deployment = TxCacheDeployment(
        clock=clock, cache_nodes=3, replication_factor=2,
        background_maintenance=True, maintenance_ops_per_interval=4,
    )
    cluster = deployment.cache
    for i in range(20):
        cluster.put(f"key{i}", f"value{i}", Interval(1, None))
    cluster.fail_node("cache1")  # inprocess: evicts immediately, auto-repair
    plane = deployment.membership.plane
    assert plane.pending_jobs == 1  # queued as a background job, not swept
    while not plane.idle:
        deployment.housekeeping()  # housekeeping is the pump
        deployment.advance(1.0)
    assert deployment.membership.stats.repairs == 1
    # Every surviving key is back at full replication: both survivors hold it.
    for node in ("cache0", "cache2"):
        held = set(cluster.node_keys(node))
        for key in held:
            owners = cluster.ring.successors(key, 2)
            if node in owners:
                for other in owners:
                    assert key in set(cluster.node_keys(other))


def test_a_budgeted_repair_survives_a_node_leaving_between_its_chunks():
    """A job that names a node which leaves before its next chunk treats the
    node as unreachable, like one that stopped answering: the job finishes,
    and the repair and the leave's drain together leave every key on its
    full replica set."""
    cluster = CacheCluster(node_count=4, clock=ManualClock(), replication_factor=2)
    keys = [f"key{i}" for i in range(200)]
    for key in keys:
        cluster.put(key, key, Interval(1, None))
    cluster.discard_keys("cache2", cluster.node_keys("cache2")[:20])
    plane = MaintenancePlane()
    membership = ClusterMembership(cluster, plane=plane)
    membership.repair()
    assert plane.pump(max_chunks=1) == 1
    membership.leave("cache3")
    plane.pump()
    assert plane.idle
    assert plane.stats.jobs_failed == 0
    held = {node: set(cluster.node_keys(node)) for node in cluster.ring.nodes}
    for key in keys:
        assert sorted(node for node in held if key in held[node]) == sorted(
            cluster.replicas_for(key)
        ), key


# ----------------------------------------------------------------------
# Foreground traffic between the pages of a repair
# ----------------------------------------------------------------------
def test_budgeted_repair_interleaves_with_foreground_probes_page_by_page(monkeypatch):
    """Each page of a repair is one bounded frame at the node, and the node
    serves a foreground probe between any two of them.

    A node serves one frame at a time, so what keeps foreground traffic
    moving through a repair is that the repair is made of pages.  Pages of
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
        membership.plane = MaintenancePlane()
        membership.repair()
        drainer = threading.Thread(target=membership.plane.drain)
        drainer.start()
        probes = 0
        try:
            while drainer.is_alive() or page_done.is_set():
                if not page_done.wait(timeout=0.05):
                    continue
                page_done.clear()
                assert cluster.probe("key1", 0, 10)
                probes += 1
                probed.set()
        finally:
            probed.set()
            drainer.join(timeout=30)
        assert not drainer.is_alive()
        assert membership.plane.idle
        assert probes == len(ops)
        assert {"key_digest", "keys_in_range", "extract_entries"} <= set(ops)
        assert ops.count("key_digest") > len(cluster.servers)  # digests span pages
        assert pages and all(size <= limit for size, limit in pages)
        assert membership.stats.entries_re_replicated == len(lost)
        assert set(lost) <= set(cluster.node_keys(victim))
