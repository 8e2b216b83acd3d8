"""Cluster membership: epochs, one entry mover, failure-driven eviction.

The paper assumes a mostly static cache-server list; this module is what
turns the reproduction's cache tier into an *elastic* one.  A
:class:`ClusterMembership` coordinator sits next to a
:class:`repro.cache.cluster.CacheCluster` and versions its node set into
**epochs**: every join, leave, rejoin, or failure-driven eviction advances
the epoch and is recorded in the membership history.

**One entry mover.**  Consistent hashing already guarantees a membership
change remaps only ~1/n of the key space; moving the entries of that slice
keeps it warm.  Every movement is one chunk generator,
:meth:`ClusterMembership._reconcile` ``(before, after, arcs)``: it gives
each key in the named hash-ring arcs a copy on every member of its replica
set under ``after``, taking each copy from a node that held the key under
``before``.

1. *Ask.*  Each named arc lies inside one segment of both rings, so the
   successor lists at its start point name every node that can hold its
   keys.  Each of them is inventoried over its share of the arcs with
   paged ``keys_in_range``; a node that fails its inventory is neither a
   source nor a destination.
2. *Plan.*  A key goes to each reachable member of its ``after`` replica
   set that lacks it, copied from one holder: one that loses the key under
   ``after`` first (the copy that is moving is the one shipped), then in
   ``before`` replica order, then by name.
3. *Ship.*  Each source is paged with ``extract_entries`` (bounded pages,
   all versions of a key in one page) and the planned records go out with
   ``install_entries``, which reuses the server's put semantics, so the
   insert/invalidate race protection applies to in-flight records too.
4. *Discard.*  A holder that stays a member of ``after`` but no longer
   replicates a key drops it once every replica has confirmed a copy.

The callers differ only in the two rings and the arcs they name: a join
stages the ring with the newcomer and moves the newcomer's arcs; a leave
moves the leaver's arcs to the ring without it; a re-warm moves a
cold-joined node's arcs from the ring it joined; and a repair names the
arcs whose replicas' digests disagree, on the current ring for both.
Joins and leaves drain the mover before the ring switches; re-warms and
repairs are submitted to the :class:`repro.cache.maintenance.MaintenancePlane`
when the coordinator has one (drained otherwise).

Because every node subscribes to the same invalidation stream throughout,
invalidations published during a move reach both the old and the new
holder; a record extracted before an invalidation and installed after it
is truncated on insert by the destination's tag history.

**Watermarks.**  Only a *fresh* node — a joiner or a respawned node,
freshly provisioned, empty and subscribed to the stream from birth — has
its invalidation watermark advanced, to the highest watermark of the nodes
asked, so entries are usable at current timestamps the moment they land.
No other node's watermark is ever moved: force-advancing a node that
*missed* messages (a healed partition) would let its un-truncated
still-valid entries claim validity through timestamps whose invalidations
it never processed — a stale read.

**Failure handling.**  The cluster itself degrades operations against an
unreachable node to misses/no-ops and evicts the node from the ring after
``failure_threshold`` consecutive failures (see
:class:`repro.cache.cluster.CacheCluster`); the coordinator observes those
evictions through the cluster's ``on_node_evicted`` hook, records an epoch,
and allows the node (or a replacement with the same name) to *rejoin* later
via :meth:`join` or :meth:`rejoin`.  The mover never evicts: a node that
fails mid-move is only marked suspect, so a staged ring stays valid.

**Replication.**  With ``replication_factor=R > 1`` a crash leaves every
arc the victim replicated one copy short, so each eviction is followed by
an **anti-entropy repair** (:meth:`repair`): replicas first compare cheap
per-arc key digests, and only the arcs whose digests disagree are handed
to the mover — a clean sweep ships nothing.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, Generator, Iterator, List, Optional, Set, Tuple

# _FAILURE_EXCEPTIONS: the cluster's definition of "node unreachable";
# the mover treats a vanished node the same way routing does.
from repro.cache.cluster import _FAILURE_EXCEPTIONS, CacheCluster
from repro.cache.entry import EntryRecord
from repro.cache.hashring import HASH_SPACE, ConsistentHashRing
from repro.cache.maintenance import ChunkedJob, MaintenancePlane
from repro.cache.server import CacheServer
from repro.comm import wire

__all__ = ["ClusterMembership", "MembershipStats", "EpochRecord"]

#: What a chunk generator yields per RPC page: ``(ops, approx_bytes)``.
Chunks = Generator[Tuple[int, int], None, int]
Arc = Tuple[int, int]


@dataclass
class MembershipStats:
    """Counters kept by the membership coordinator."""

    joins: int = 0
    leaves: int = 0
    rejoins: int = 0
    #: Failure-driven ring evictions observed via the cluster hook.
    failure_evictions: int = 0
    #: Administrative :meth:`ClusterMembership.evict` calls (no migration).
    manual_evictions: int = 0
    #: Planned joins and leaves that ran the mover.
    migrations: int = 0
    #: Entry versions planned joins and leaves stored on a new replica.
    entries_migrated: int = 0
    #: Distinct keys the mover copied onto at least one node (every caller).
    keys_migrated: int = 0
    #: extract_entries pages issued.
    migration_chunks: int = 0
    #: Entry versions dropped by holders the new ring displaced.
    entries_discarded: int = 0
    #: Nodes lost mid-move (a failed inventory or extract page): from then
    #: on neither a source nor a destination of that move.
    migration_nodes_lost: int = 0
    #: Install batches lost because the destination was unreachable.
    migration_install_failures: int = 0
    #: ``keys_in_range`` round trips (pages) the mover issued, failed ones
    #: included.
    inventory_pages: int = 0
    #: Anti-entropy repair sweeps run (after failure evictions, or manual).
    repairs: int = 0
    #: Entry versions actually (re-)stored on an under-replicated node by
    #: repair sweeps (duplicate installs on up-to-date replicas don't count).
    entries_re_replicated: int = 0
    #: ``key_digest`` round trips issued by repair sweeps (one per page of
    #: each node's store: one per node while its store fits one page).
    repair_digest_rpcs: int = 0
    #: Ring arcs whose replica digests all matched (no key traffic at all).
    repair_arcs_clean: int = 0
    #: Ring arcs whose replica digests disagreed (handed to the mover).
    repair_arcs_dirty: int = 0
    #: Budgeted re-warm sweeps started for a respawned/rejoined node.
    rewarms: int = 0
    #: Entry versions streamed onto a rejoined node by re-warm sweeps.
    entries_rewarmed: int = 0


@dataclass(frozen=True)
class EpochRecord:
    """One entry of the membership history."""

    epoch: int
    change: str  # "genesis" | "join" | "rejoin" | "leave" | "evict"
    node: Optional[str]
    #: Node set after the change took effect.
    members: Tuple[str, ...] = ()


@dataclass
class ClusterMembership:
    """Epoch-versioned membership coordinator for one cache cluster."""

    cluster: CacheCluster
    #: Keys per extract_entries page during migration.
    chunk_size: int = 128
    #: Background maintenance plane.  When set, :meth:`repair` and
    #: :meth:`rejoin` submit a resumable chunked job to it (drained by the
    #: plane's pump under its op/byte budget) instead of running it inline.
    plane: Optional[MaintenancePlane] = None

    epoch: int = field(init=False, default=0)
    history: List[EpochRecord] = field(init=False, default_factory=list)
    stats: MembershipStats = field(init=False, default_factory=MembershipStats)

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        #: Names that departed (leave or eviction); joining one again is a
        #: rejoin rather than a first join.
        self._departed: set = set()
        self.history.append(
            EpochRecord(epoch=0, change="genesis", node=None, members=self._members())
        )
        self.cluster.on_node_evicted = self._on_failure_eviction

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def members(self) -> List[str]:
        """Current ring members."""
        return self.cluster.ring.nodes

    def _members(self) -> Tuple[str, ...]:
        return tuple(sorted(self.cluster.ring.nodes))

    def _advance(self, change: str, node: Optional[str]) -> None:
        self.epoch += 1
        self.history.append(
            EpochRecord(epoch=self.epoch, change=change, node=node, members=self._members())
        )

    # ------------------------------------------------------------------
    # Planned membership changes
    # ------------------------------------------------------------------
    def join(
        self,
        name: str,
        capacity_bytes: int = 64 * 1024 * 1024,
        weight: float = 1.0,
        migrate: bool = True,
    ) -> CacheServer:
        """Add a node, optionally warming it by live migration.

        The node is provisioned outside the ring (it already receives the
        invalidation stream), the entries of the arcs it will replicate are
        moved onto it, and only then does the ring — and with it live
        traffic — switch over.  With ``migrate=False`` this is a cold
        join: remapped keys start over.
        """
        if name in self.cluster.ring:
            raise ValueError(f"cache node {name!r} is already a member")
        rejoining = name in self._departed
        server = self.cluster.provision_node(name, capacity_bytes)
        ring = self.cluster.ring
        staged = ring.copy()
        staged.add_node(name, weight=weight)
        if migrate and len(ring) > 0:
            arcs = staged.replica_ranges(name, self.cluster.replication_factor)
            self._migrate("join", self._reconcile(ring, staged, arcs, fresh=name))
        self.cluster.adopt_ring(staged)
        if rejoining:
            self._departed.discard(name)
            self.stats.rejoins += 1
            self._advance("rejoin", name)
        else:
            self.stats.joins += 1
            self._advance("join", name)
        return server

    def rejoin(self, name: str, capacity_bytes: int = 64 * 1024 * 1024, weight: float = 1.0) -> int:
        """Cold-join a respawned node, then re-warm it under the budget.

        The supervisor's rejoin path: the node enters the ring immediately
        (serving cold misses from its slice — availability first), and its
        arcs are moved back onto it from the ring it joined as a resumable
        :class:`ChunkedJob` on the maintenance plane, so recovery traffic is
        paced by the plane's op/byte budget instead of spiking foreground
        p99 the way ``join(migrate=True)``'s synchronous pre-warm would.
        The nodes that absorbed its slice meanwhile drop their displaced
        copies, so the rejoin ends where a join would.  Without a plane the
        job drains at once and the installed count is returned; with one, 0
        is returned and ``stats.entries_rewarmed`` advances as the job is
        pumped.
        """
        before = self.cluster.ring.copy()
        self.join(name, capacity_bytes=capacity_bytes, weight=weight, migrate=False)
        ring = self.cluster.ring
        arcs = ring.replica_ranges(name, self.cluster.replication_factor)
        self.stats.rewarms += 1

        def rewarm() -> Chunks:
            installed = yield from self._reconcile(before, ring, arcs, fresh=name)
            self.stats.entries_rewarmed += installed
            return installed

        return self._run("rewarm", rewarm())

    def leave(self, name: str, migrate: bool = True) -> None:
        """Remove a node, optionally draining its entries to the survivors.

        With migration, the arcs the departing node replicated are moved to
        the ring without it before routing switches and the node shuts
        down; the departing slice stays warm.
        """
        if name not in self.cluster.ring:
            raise KeyError(name)
        ring = self.cluster.ring
        staged = ring.copy()
        staged.remove_node(name)
        if migrate and len(staged) > 0:
            arcs = ring.replica_ranges(name, self.cluster.replication_factor)
            self._migrate("leave", self._reconcile(ring, staged, arcs))
        self.cluster.adopt_ring(staged)
        self.cluster.remove_node(name)  # ring removal already done; detaches node
        self._departed.add(name)
        self.stats.leaves += 1
        self._advance("leave", name)

    def _migrate(self, label: str, chunks: Chunks) -> None:
        """Drain a planned change's move before its ring is adopted."""
        self.stats.migrations += 1
        self.stats.entries_migrated += int(ChunkedJob(label, chunks).drain())

    def evict(self, name: str) -> None:
        """Forcibly drop a (presumed dead) node: no migration, epoch bump.

        This is the manual form of what the cluster does automatically after
        repeated transport failures, including the follow-up: on a
        replicated cluster the eviction leaves the victim's arcs one copy
        short, so the same anti-entropy repair runs afterwards.  Without
        replication the node's slice of the key space cold-starts on the
        survivors.
        """
        if name not in self.cluster.ring:
            raise KeyError(name)
        new_ring = self.cluster.ring.copy()
        new_ring.remove_node(name)
        self.cluster.adopt_ring(new_ring)
        self.cluster.remove_node(name)
        self.stats.manual_evictions += 1
        self._record_eviction(name)

    def _on_failure_eviction(self, name: str) -> None:
        """Cluster hook: a node crossed the failure threshold and was evicted.

        A crash (unlike a drained leave) leaves every range the victim
        replicated one copy short, so a replicated cluster follows the epoch
        bump with an anti-entropy repair that restores the replication
        factor from the surviving copies.
        """
        self.stats.failure_evictions += 1
        self._record_eviction(name)

    def _record_eviction(self, name: str) -> None:
        self._departed.add(name)
        self._advance("evict", name)
        self.repair()

    # ------------------------------------------------------------------
    # Anti-entropy repair (re-replication after a crash)
    # ------------------------------------------------------------------
    def repair(self) -> int:
        """Restore the replication factor from the surviving copies.

        A *digest* pass fetches every member's per-arc key digests (one
        ``key_digest`` round trip per page of its store, folded per arc;
        see :meth:`repro.cache.server.CacheServer.key_digest`) and compares
        the replicas of each arc — an arc whose digests all match is in sync
        and generates **no key traffic at all**, so the steady-state sweep
        costs one digest round trip per page, N while every store fits one
        page, and ships nothing.  The arcs whose digests disagree go to the
        mover on the current ring, which copies each key onto the replicas
        that lack it.  Reconciliation is key-granular: a replica that holds
        *any* version of a key is considered current (finer, per-version
        divergence ages out or is refilled by traffic).

        Without a :attr:`plane` the sweep runs synchronously and returns
        the number of entry versions actually re-stored.  With one, the
        sweep is submitted as a chunked background job — drained by the
        plane's pump under its op/byte budget — and this returns 0
        immediately; ``stats.entries_re_replicated`` advances as the job
        completes.  A no-op for unreplicated clusters and rings too small
        to replicate.
        """
        ring = self.cluster.ring
        if self.cluster.replication_factor <= 1 or len(ring) <= 1:
            return 0
        self.stats.repairs += 1

        def sweep() -> Chunks:
            dirty = yield from self._dirty_arcs(ring)
            installed = yield from self._reconcile(ring, ring, dirty)
            self.stats.entries_re_replicated += installed
            return installed

        return self._run("repair", sweep())

    def _run(self, label: str, chunks: Chunks) -> int:
        """Submit a job to the plane (returning 0), or drain it without one
        (returning its installed count)."""
        job = ChunkedJob(label, chunks)
        if self.plane is not None:
            self.plane.submit(job)
            return 0
        return int(job.drain())

    def _pages(self, op: str, node: str, arcs) -> Iterator[Tuple[int, list]]:
        """Each page of ``op`` (``key_digest`` or ``keys_in_range``) over
        ``node``'s store, one round trip apiece, with the index in ``arcs``
        of the page's first arc.  A node walks at most
        :data:`~repro.comm.wire.MAX_BATCH_ITEMS` arcs at a time, so a
        longer list is walked as consecutive walks of that many.  A chunk
        generator yields once per page, so the maintenance budget sees
        every one."""
        step = wire.MAX_BATCH_ITEMS
        for first in range(0, len(arcs), step):
            group = arcs[first:first + step]
            cursor: Optional[str] = None
            while True:
                page, cursor = getattr(self.cluster, op)(node, group, cursor)
                yield first, page
                if cursor is None:
                    break

    def _dirty_arcs(self, ring: ConsistentHashRing) -> Generator[Tuple[int, int], None, List[Arc]]:
        """The digest pass: the arcs whose reachable replicas disagree.

        Replicas of one ring segment report the segment under the *same*
        ``(start, end)`` arc tuple (see ``replica_ranges``), so digests are
        directly comparable per arc across nodes.  An unreachable replica
        takes no part in the comparison.
        """
        factor = self.cluster.replication_factor
        replicas_of: Dict[Arc, List[str]] = {}
        arc_digest: Dict[Tuple[str, Arc], Tuple[int, int, int]] = {}
        for node in sorted(ring.nodes):
            arcs = ring.replica_ranges(node, factor)
            for arc in arcs:
                replicas_of.setdefault(arc, []).append(node)
            # Folded per arc across pages — exact, since the fold commutes.
            folded = [(0, 0, 0)] * len(arcs)
            try:
                for first, page in self._pages("key_digest", node, arcs):
                    self.stats.repair_digest_rpcs += 1
                    folded[first:first + len(page)] = [
                        (count + c, xor ^ x, (total + t) % HASH_SPACE)
                        for (count, xor, total), (c, x, t) in zip(folded[first:], page)
                    ]
                    yield (1, 24 * max(1, len(page)))
            except _FAILURE_EXCEPTIONS:
                self.stats.repair_digest_rpcs += 1  # the round trip that failed
                self.cluster.note_transport_failure(node)
                continue
            for arc, digest in zip(arcs, folded):
                arc_digest[(node, arc)] = digest
        dirty: List[Arc] = []
        for arc, replicas in sorted(replicas_of.items()):
            seen = {arc_digest[(node, arc)] for node in replicas if (node, arc) in arc_digest}
            if len(seen) > 1:
                dirty.append(arc)
                self.stats.repair_arcs_dirty += 1
            else:
                self.stats.repair_arcs_clean += 1
        return dirty

    # ------------------------------------------------------------------
    # The entry mover
    # ------------------------------------------------------------------
    def _reconcile(
        self,
        before: ConsistentHashRing,
        after: ConsistentHashRing,
        arcs: List[Arc],
        fresh: Optional[str] = None,
    ) -> Chunks:
        """Give every key in ``arcs`` a copy on each member of its replica
        set under ``after``, taken from a node that held it under ``before``.

        A chunk generator (one yield per RPC) returning the number of entry
        versions installed; see the module docstring for the four steps.
        Every named arc must lie inside one segment of both rings, which
        holds for the arcs of the finer of two rings that differ by one
        node.  With ``fresh`` set, that freshly provisioned node's
        watermark first advances to the highest watermark of the nodes
        asked; no other watermark moves.
        """
        cluster = self.cluster
        factor = cluster.replication_factor
        if not arcs or not len(before) or not len(after):
            return 0
        # Who is asked: every node that can hold an arc's keys, over its share.
        arcs_of: Dict[str, List[Arc]] = {}
        for arc in arcs:
            nodes = set(before.successors_for_point(arc[0], factor))
            for node in nodes.union(after.successors_for_point(arc[0], factor)):
                arcs_of.setdefault(node, []).append(arc)
        if fresh is not None:
            marks: Dict[str, int] = {}
            for node in sorted(arcs_of):
                try:
                    marks[node] = cluster.watermark(node)
                except _FAILURE_EXCEPTIONS:
                    cluster.note_transport_failure(node)
                yield (1, 16)
            frontier = max((mark for node, mark in marks.items() if node != fresh), default=0)
            if marks.get(fresh, frontier) < frontier:
                try:
                    cluster.note_timestamp(fresh, frontier)
                except _FAILURE_EXCEPTIONS:
                    cluster.note_transport_failure(fresh)
                yield (1, 16)
        # The one inventory; an unreachable node has no entry in ``held``.
        held: Dict[str, Set[str]] = {}
        for node in sorted(arcs_of):
            keys: Set[str] = set()
            try:
                for _first, page in self._pages("keys_in_range", node, arcs_of[node]):
                    self.stats.inventory_pages += 1
                    keys.update(page)
                    yield (1, sum(len(key) for key in page) or 16)
            except _FAILURE_EXCEPTIONS:
                self.stats.inventory_pages += 1  # the page that failed
                self._lose(node)
                continue
            held[node] = keys
        # source -> destination -> keys; holder -> keys it no longer replicates.
        plan: Dict[str, Dict[str, Set[str]]] = {}
        displaced: Dict[str, Set[str]] = {}
        for key in set().union(*held.values()):
            was, now = before.successors(key, factor), after.successors(key, factor)
            holders = [node for node, keys in held.items() if key in keys]
            missing = [node for node in now if node in held and key not in held[node]]
            if missing:
                source = min(
                    holders,
                    key=lambda node: (
                        node in now, was.index(node) if node in was else factor, node
                    ),
                )
                for node in missing:
                    plan.setdefault(source, {}).setdefault(node, set()).add(key)
            for node in holders:
                if node not in now and node in after:
                    displaced.setdefault(node, set()).add(key)
        confirmed: Set[Tuple[str, str]] = set()
        installed = 0
        for source in sorted(plan):
            installed += yield from self._ship_missing(
                source, plan[source], held[source], confirmed
            )
        self.stats.keys_migrated += len({key for _, key in confirmed})
        for node in sorted(displaced):
            placed = sorted(
                key
                for key in displaced[node]
                if all(
                    key in held.get(replica, ()) or (replica, key) in confirmed
                    for replica in after.successors(key, factor)
                )
            )
            if not placed:
                continue
            try:
                self.stats.entries_discarded += cluster.discard_keys(node, placed)
            except _FAILURE_EXCEPTIONS:
                # Stale copies age out; routing never returns there.
                cluster.note_transport_failure(node)
            yield (1, sum(len(key) for key in placed))
        return installed

    def _lose(self, node: str) -> None:
        """A node stopped answering mid-move: count it and mark it suspect
        (never evicted from here, so a staged ring stays valid; the first
        routed failure after the epoch switch completes the eviction)."""
        self.stats.migration_nodes_lost += 1
        self.cluster.note_transport_failure(node)

    def _ship_missing(
        self,
        source: str,
        missing_by_dest: Dict[str, Set[str]],
        held_keys: Set[str],
        confirmed: Set[Tuple[str, str]],
    ) -> Chunks:
        """Stream exactly the planned missing copies out of ``source``.

        A chunk generator: yields ``(ops, approx_bytes)`` after each extract
        page (the page plus its install fan-out), adds each confirmed
        ``(destination, key)`` to ``confirmed``, and returns the number of
        entry versions installed.
        """
        wanted = set().union(*missing_by_dest.values())
        first, last = min(wanted), max(wanted)
        installed = 0
        # Pages arrive in ascending key order, so seed the cursor with the
        # largest held key below the first wanted one: the head pages —
        # which by construction contain nothing to ship — are never paged.
        cursor: Optional[str] = max(
            (key for key in held_keys if key < first), default=None
        )
        while True:
            try:
                records, cursor = self.cluster.extract_entries(
                    source, cursor, self.chunk_size
                )
            except _FAILURE_EXCEPTIONS:
                self._lose(source)
                return installed
            self.stats.migration_chunks += 1
            by_target: Dict[str, List[EntryRecord]] = {}
            for record in records:
                if record.key not in wanted:
                    continue
                for destination, keys in missing_by_dest.items():
                    if record.key in keys:
                        by_target.setdefault(destination, []).append(record)
            for destination, batch in by_target.items():
                try:
                    installed += self.cluster.install_entries(destination, batch)
                except _FAILURE_EXCEPTIONS:
                    self.stats.migration_install_failures += 1
                    self.cluster.note_transport_failure(destination)
                    continue
                confirmed.update((destination, record.key) for record in batch)
            yield (
                1 + len(by_target),
                sum(
                    len(record.key) + sys.getsizeof(record.value) + 48
                    for batch in by_target.values()
                    for record in batch
                )
                or 64,
            )
            # Once the cursor passes the last wanted key the remaining pages
            # ship nothing.
            if cursor is None or cursor >= last:
                break
        return installed
