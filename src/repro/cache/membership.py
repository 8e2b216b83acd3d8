"""Cluster membership: epochs, live key migration, failure-driven eviction.

The paper assumes a mostly static cache-server list; this module is what
turns the reproduction's cache tier into an *elastic* one.  A
:class:`ClusterMembership` coordinator sits next to a
:class:`repro.cache.cluster.CacheCluster` and versions its node set into
**epochs**: every join, leave, rejoin, or failure-driven eviction advances
the epoch and is recorded in the membership history.

**Live key migration.**  Consistent hashing already guarantees a membership
change remaps only ~1/n of the key space, but without migration that slice
cold-starts: every remapped key misses until traffic refills it.  A planned
change instead *streams* the affected entries to their new owner before the
ring is switched:

1. stage the change on a copy of the ring and diff ownership
   (:func:`repro.cache.hashring.diff_ownership`) to find the arcs — and
   therefore the source nodes — that change hands;
2. carry each source's invalidation watermark over to the target
   (``note_timestamp``), so migrated still-valid entries remain usable at
   current timestamps on arrival;
3. page through each source with ``extract_entries`` (bounded chunks, all
   versions of a key in one chunk), keep the records the new ring routes
   elsewhere, and ``install_entries`` them on their new owner — the
   install path reuses the server's put semantics, so the
   insert/invalidate race protection applies to in-flight records too;
4. atomically adopt the new ring, then ``discard_keys`` the moved keys from
   the sources (join) or shut the drained node down (leave).

Because every node subscribes to the same invalidation stream throughout,
invalidations published during a migration reach both the old and the new
owner; a record extracted before an invalidation and installed after it is
truncated on insert by the target's tag history.

**Failure handling.**  The cluster itself degrades operations against an
unreachable node to misses/no-ops and evicts the node from the ring after
``failure_threshold`` consecutive failures (see
:class:`repro.cache.cluster.CacheCluster`); the coordinator observes those
evictions through the cluster's ``on_node_evicted`` hook, records an epoch,
and allows the node (or a replacement with the same name) to *rejoin* later
via :meth:`join` — warmed by migration like any other joiner.

**Replication.**  When the cluster runs with ``replication_factor=R > 1``
the planner works on *replica sets* rather than single owners
(:func:`repro.cache.hashring.diff_replica_ownership`): a join streams to the
newcomer exactly the arcs whose successor list it enters, sources discard
only keys they no longer replicate, and a leave drains the departing node's
entries to every member of each key's new replica set (installs on nodes
that already hold a copy are rejected as duplicates, so this is idempotent).
After a *failure* eviction the crashed node's arcs are under-replicated —
the surviving copies serve reads, but a second crash would lose them — so
the coordinator runs an **anti-entropy repair** (:meth:`repair`): replicas
first compare cheap per-arc key digests, then live holders stream entries
(the same ``extract_entries``/``install_entries`` ops as migration) to the
replicas of each key that lack a copy — and only for the arcs whose digests
actually disagree.  When the coordinator carries a
:class:`repro.cache.maintenance.MaintenancePlane`, the whole sweep runs as a
resumable chunked background job under the plane's op/byte budget instead of
synchronously at the epoch boundary.  Repair never
advances a destination's invalidation watermark: established members are
already current, and force-advancing a node that *missed* messages (a healed
partition) would let its un-truncated still-valid entries claim validity
through timestamps whose invalidations it never processed — a stale read.
The watermark carry-over is therefore reserved for join targets, which are
freshly provisioned (empty, subscribed to the stream from birth) and safe to
advance per the paper's staleness rules.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, Generator, Iterator, List, Optional, Set, Tuple

# _FAILURE_EXCEPTIONS: the cluster's definition of "node unreachable";
# migration treats a vanished source/target the same way routing does.
from repro.cache.cluster import _FAILURE_EXCEPTIONS, CacheCluster
from repro.cache.entry import EntryRecord
from repro.cache.hashring import HASH_SPACE, ConsistentHashRing, diff_replica_ownership
from repro.cache.maintenance import ChunkedJob, MaintenancePlane
from repro.cache.server import CacheServer

__all__ = ["ClusterMembership", "MembershipStats", "EpochRecord"]


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
    #: Planned changes that ran with migration enabled.
    migrations: int = 0
    #: Hash-ring arcs that changed owner across all planned changes.
    ranges_moved: int = 0
    #: Entry versions shipped to a new owner.
    entries_migrated: int = 0
    #: Distinct keys shipped to a new owner.
    keys_migrated: int = 0
    #: extract_entries pages issued.
    migration_chunks: int = 0
    #: Entry versions dropped from sources after a successful handoff.
    entries_discarded: int = 0
    #: Sources that disappeared mid-migration (their slice cold-starts).
    migration_sources_lost: int = 0
    #: Install batches lost because the destination was unreachable.
    migration_install_failures: int = 0
    #: Anti-entropy repair sweeps run (after failure evictions, or manual).
    repairs: int = 0
    #: Entry versions actually (re-)stored on an under-replicated node by
    #: repair sweeps (duplicate installs on up-to-date replicas don't count).
    entries_re_replicated: int = 0
    #: ``key_digest`` round trips issued by repair sweeps (one per page of
    #: each node's store: one per node while its store fits one page).
    repair_digest_rpcs: int = 0
    #: ``keys_in_range`` round trips (pages) issued for arcs whose digests
    #: disagreed.
    repair_key_fetches: int = 0
    #: Ring arcs whose replica digests all matched (no key traffic at all).
    repair_arcs_clean: int = 0
    #: Ring arcs whose replica digests disagreed (key lists were fetched).
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
    #: Run an anti-entropy repair sweep automatically after a failure-driven
    #: eviction leaves key ranges under-replicated (replicated clusters only).
    auto_repair: bool = True
    #: Background maintenance plane.  When set, :meth:`repair` submits a
    #: resumable chunked job to it (drained by the plane's pump under its
    #: op/byte budget) instead of sweeping synchronously.
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
        invalidation stream), the entries its arcs will own are streamed
        onto it from their current owners, and only then does the ring —
        and with it live traffic — switch over.  With ``migrate=False``
        this is a cold join: remapped keys start over.
        """
        if name in self.cluster.ring:
            raise ValueError(f"cache node {name!r} is already a member")
        rejoining = name in self._departed
        server = self.cluster.provision_node(name, capacity_bytes)
        new_ring = self.cluster.ring.copy()
        new_ring.add_node(name, weight=weight)
        if migrate and len(new_ring) > 1:
            self._migrate_for_join(name, new_ring)
        self.cluster.adopt_ring(new_ring)
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
        working set is streamed back as a resumable :class:`ChunkedJob` on
        the maintenance plane, so recovery traffic is paced by the plane's
        op/byte budget instead of spiking foreground p99 the way
        ``join(migrate=True)``'s synchronous pre-warm would.  Without a
        plane the sweep drains synchronously and the installed count is
        returned; with one, 0 is returned and
        ``stats.entries_rewarmed`` advances as the job is pumped.
        """
        self.join(name, capacity_bytes=capacity_bytes, weight=weight, migrate=False)
        job = ChunkedJob("rewarm", self._rewarm_chunks(name))
        if self.plane is not None:
            self.plane.submit(job)
            return 0
        job.drain()
        return int(job.result or 0)

    def _rewarm_chunks(self, target: str) -> Generator[Tuple[int, int], None, int]:
        """Stream ``target``'s arcs back onto it, one budget chunk per RPC.

        The re-warm plan mirrors :meth:`_migrate_for_join` — each key is
        shipped once, by the first ring-ordered holder — but runs *after*
        ring adoption, chunked for the maintenance budget.  The watermark
        carry-over is safe here for the same reason as a join target: the
        respawned node is freshly provisioned (empty, subscribed to the
        invalidation stream from birth), so it has missed no messages and
        advancing it cannot fabricate validity (the PR-3 rule).  Displaced
        copies on the nodes that absorbed the victim's slice are left to
        age out, exactly like repair sources.
        """
        cluster = self.cluster
        ring = cluster.ring
        factor = cluster.replication_factor
        if target not in ring.nodes or len(ring) <= 1:
            return 0
        self.stats.rewarms += 1
        arcs = ring.replica_ranges(target, factor)
        sources = [node for node in sorted(ring.nodes) if node != target]
        # Watermark frontier first, so entries installed below are usable
        # at current timestamps the moment they land.
        frontier = 0
        for node in sources:
            try:
                frontier = max(frontier, cluster.watermark(node))
            except _FAILURE_EXCEPTIONS:
                cluster.note_transport_failure(node)
            yield (1, 16)
        try:
            transport = cluster.transports[target]
            if frontier and transport.watermark() < frontier:
                transport.note_timestamp(frontier)
            yield (2, 16)
        except _FAILURE_EXCEPTIONS:
            cluster.note_transport_failure(target)
            return 0  # the rejoined node died again; the supervisor re-runs
        except KeyError:
            return 0  # already evicted again
        # Which keys belong on the target now, and who holds a copy?
        held_by: Dict[str, set] = {}
        for node in sources:
            keys: set = set()
            try:
                for page in self._pages("keys_in_range", node, arcs):
                    keys.update(page)
                    yield (1, sum(len(key) for key in page) or 16)
            except _FAILURE_EXCEPTIONS:
                cluster.note_transport_failure(node)
                continue
            held_by[node] = keys
        assigned: Dict[str, set] = {}
        claimed: set = set()
        for node in sources:  # sorted: the designated source is deterministic
            for key in sorted(held_by.get(node, ())):
                if key in claimed or target not in ring.successors(key, factor):
                    continue
                claimed.add(key)
                assigned.setdefault(node, set()).add(key)
        installed = 0
        for source in sorted(assigned):
            installed += yield from self._ship_missing(
                source, {target: assigned[source]}, held_by.get(source) or set()
            )
        self.stats.entries_rewarmed += installed
        return installed

    def leave(self, name: str, migrate: bool = True) -> None:
        """Remove a node, optionally draining its entries to the survivors.

        With migration, every entry the departing node holds is streamed to
        the node that owns its key under the new ring before routing
        switches and the node shuts down; the departing slice stays warm.
        """
        if name not in self.cluster.ring:
            raise KeyError(name)
        new_ring = self.cluster.ring.copy()
        new_ring.remove_node(name)
        if migrate and len(new_ring) > 0:
            self._migrate_for_leave(name, new_ring)
        self.cluster.adopt_ring(new_ring)
        self.cluster.remove_node(name)  # ring removal already done; detaches node
        self._departed.add(name)
        self.stats.leaves += 1
        self._advance("leave", name)

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
        if self.auto_repair and self.cluster.replication_factor > 1:
            self.repair()

    def _on_failure_eviction(self, name: str) -> None:
        """Cluster hook: a node crossed the failure threshold and was evicted.

        A crash (unlike a drained leave) leaves every range the victim
        replicated one copy short, so a replicated cluster follows the epoch
        bump with an anti-entropy repair that restores the replication
        factor from the surviving copies.
        """
        self.stats.failure_evictions += 1
        self._record_eviction(name)
        if self.auto_repair and self.cluster.replication_factor > 1:
            self.repair()

    def _record_eviction(self, name: str) -> None:
        self._departed.add(name)
        self._advance("evict", name)

    # ------------------------------------------------------------------
    # Anti-entropy repair (re-replication after a crash)
    # ------------------------------------------------------------------
    def repair(self) -> int:
        """Restore the replication factor from the surviving copies.

        Three passes, all resumable at chunk granularity.  A *digest* pass
        fetches every member's per-arc key digests (one ``key_digest`` round
        trip per page of its store, folded per arc; see
        :meth:`repro.cache.server.CacheServer.key_digest`) and compares the
        replicas of each arc — an arc whose digests all match is in sync
        and generates **no key traffic at all**, so the steady-state sweep
        costs one digest round trip per page, N while every store fits one
        page, and ships nothing.  A *key* pass then fetches key lists (paged
        alike) only for the arcs whose digests disagreed
        (``keys_in_range``) and plans, per key, which replicas lack a copy
        and which live holder should supply it.
        A *shipping* pass streams exactly the missing copies (bounded
        chunks, the same migration ops); installs go through the server's
        put semantics, so anything invalidated meanwhile is truncated on
        insert.  Reconciliation is key-granular: a replica that holds *any*
        version of a key is considered current (finer, per-version
        divergence ages out or is refilled by traffic).

        Without a :attr:`plane` the sweep runs synchronously and returns
        the number of entry versions actually re-stored.  With one, the
        sweep is submitted as a chunked background job — drained by the
        plane's pump under its op/byte budget — and this returns 0
        immediately; ``stats.entries_re_replicated`` advances as the job
        completes.  A no-op for unreplicated clusters and rings too small
        to replicate.
        """
        job = ChunkedJob("repair", self._repair_chunks())
        if self.plane is not None:
            self.plane.submit(job)
            return 0
        job.drain()
        return int(job.result or 0)

    def _pages(self, op: str, node: str, arcs) -> Iterator[list]:
        """Each page of ``op`` (``key_digest`` or ``keys_in_range``) over
        ``node``'s store, one round trip apiece.  A chunk generator yields
        once per page, so the maintenance budget sees every one."""
        cursor: Optional[str] = None
        while True:
            page, cursor = getattr(self.cluster, op)(node, arcs, cursor)
            yield page
            if cursor is None:
                return

    def _repair_chunks(self) -> Generator[Tuple[int, int], None, int]:
        """The repair sweep as a chunk generator (one yield per RPC page)."""
        factor = self.cluster.replication_factor
        ring = self.cluster.ring
        if factor <= 1 or len(ring) <= 1:
            return 0
        self.stats.repairs += 1
        nodes = sorted(ring.nodes)
        # Replicas of one ring segment report the segment under the *same*
        # (start, end) arc tuple (see ``replica_ranges``), so digests are
        # directly comparable per arc across nodes.
        arcs_of: Dict[str, List[Tuple[int, int]]] = {
            node: ring.replica_ranges(node, factor) for node in nodes
        }
        replicas_of: Dict[Tuple[int, int], List[str]] = {}
        for node in nodes:
            for arc in arcs_of[node]:
                replicas_of.setdefault(arc, []).append(node)
        # Digest pass: one cheap round trip per page of each node's store,
        # folded per arc — exact, since the fold is commutative.
        arc_digest: Dict[Tuple[str, Tuple[int, int]], Tuple[int, int, int]] = {}
        reachable: Dict[str, bool] = {}
        for node in nodes:
            arcs = arcs_of[node]
            folded = [(0, 0, 0)] * len(arcs)
            try:
                for page in self._pages("key_digest", node, arcs):
                    self.stats.repair_digest_rpcs += 1
                    folded = [
                        (count + c, xor ^ x, (total + t) % HASH_SPACE)
                        for (count, xor, total), (c, x, t) in zip(folded, page)
                    ]
                    yield (1, 24 * max(1, len(arcs)))
            except _FAILURE_EXCEPTIONS:
                self.stats.repair_digest_rpcs += 1  # the round trip that failed
                self.cluster.note_transport_failure(node)
                reachable[node] = False
                continue
            reachable[node] = True
            for arc, digest in zip(arcs, folded):
                arc_digest[(node, arc)] = digest
        # An arc is dirty when its reachable replicas disagree; unreachable
        # replicas are neither repair sources nor targets (same stance as
        # the old full-inventory sweep).
        dirty_arcs: Set[Tuple[int, int]] = set()
        for arc, replicas in sorted(replicas_of.items()):
            seen = {
                arc_digest[(node, arc)] for node in replicas if (node, arc) in arc_digest
            }
            if len(seen) > 1:
                dirty_arcs.add(arc)
                self.stats.repair_arcs_dirty += 1
            else:
                self.stats.repair_arcs_clean += 1
        if not dirty_arcs:
            return 0
        # Key pass: fetch key lists only for the arcs that disagreed.  Every
        # replica of a dirty-arc key replicates that arc, so nodes with no
        # dirty arcs can never be a source or target and are skipped.
        held: Dict[str, Optional[set]] = {}
        for node in nodes:
            if not reachable[node]:
                held[node] = None
                continue
            node_dirty = [arc for arc in arcs_of[node] if arc in dirty_arcs]
            if not node_dirty:
                held[node] = set()
                continue
            keys: set = set()
            try:
                for page in self._pages("keys_in_range", node, node_dirty):
                    self.stats.repair_key_fetches += 1
                    keys.update(page)
                    yield (1, sum(len(key) for key in page))
            except _FAILURE_EXCEPTIONS:
                self.stats.repair_key_fetches += 1  # the round trip that failed
                self.cluster.note_transport_failure(node)
                held[node] = None
                continue
            held[node] = keys
        # source -> destination -> the keys the destination is missing.
        plan: Dict[str, Dict[str, set]] = {}
        key_sets = [keys for keys in held.values() if keys]
        for key in set().union(*key_sets) if key_sets else ():
            replicas = ring.successors(key, factor)
            holders = [node for node in replicas if held.get(node) and key in held[node]]
            if not holders:
                continue  # no reachable replica holds it; nothing to copy
            source = holders[0]
            for destination in replicas:
                if held.get(destination) is not None and key not in held[destination]:
                    plan.setdefault(source, {}).setdefault(destination, set()).add(key)
        installed = 0
        for source in sorted(plan):
            installed += yield from self._ship_missing(
                source, plan[source], held[source] or set()
            )
        self.stats.entries_re_replicated += installed
        return installed

    def _key_inventory(self, nodes) -> Dict[str, Optional[set]]:
        """Each node's stored key set; None for unreachable nodes."""
        held: Dict[str, Optional[set]] = {}
        for node in sorted(nodes):
            try:
                held[node] = set(self.cluster.node_keys(node))
            except _FAILURE_EXCEPTIONS:
                self.cluster.note_transport_failure(node)
                held[node] = None  # neither a repair source nor a target
        return held

    def _ship_missing(
        self, source: str, missing_by_dest: Dict[str, set], held_keys: set
    ) -> Generator[Tuple[int, int], None, int]:
        """Stream exactly the planned missing copies out of ``source``.

        A chunk generator: yields ``(ops, approx_bytes)`` after each extract
        page (the page plus its install fan-out) and returns the number of
        entry versions installed.
        """
        wanted = set().union(*missing_by_dest.values())
        installed = 0
        # Pages arrive in ascending key order, so seed the cursor with the
        # largest held key below the first wanted one: the head pages —
        # which by construction contain nothing to ship — are never paged.
        first = min(wanted)
        cursor: Optional[str] = max(
            (key for key in held_keys if key < first), default=None
        )
        while True:
            try:
                records, cursor = self.cluster.extract_entries(
                    source, cursor, self.chunk_size
                )
            except _FAILURE_EXCEPTIONS:
                self.stats.migration_sources_lost += 1
                self.cluster.note_transport_failure(source)
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
                # Deliberately no watermark carry-over here (see the module
                # docstring): repair peers are live stream subscribers, and
                # force-advancing one that missed messages would fabricate
                # validity its entries never earned.
                try:
                    installed += self.cluster.install_entries(destination, batch)
                except _FAILURE_EXCEPTIONS:
                    self.stats.migration_install_failures += 1
                    self.cluster.note_transport_failure(destination)
            yield (
                1 + len(by_target),
                sum(
                    len(record.key) + sys.getsizeof(record.value) + 48
                    for batch in by_target.values()
                    for record in batch
                )
                or 64,
            )
            # Pages arrive in ascending key order, so once the cursor passes
            # the last wanted key the remaining pages ship nothing.
            if cursor is None or cursor >= max(wanted):
                break
        return installed

    # ------------------------------------------------------------------
    # Migration internals
    # ------------------------------------------------------------------
    def _migrate_for_join(self, target: str, new_ring: ConsistentHashRing) -> None:
        """Stream the arcs whose replica set ``target`` enters, from their owners.

        With ``replication_factor=1`` the replica diff degenerates to the
        plain ownership diff and this is exactly the unreplicated plan: the
        arcs the newcomer takes over, streamed from their previous owners
        and discarded there afterwards.  With replication every moved key is
        held by up to R old replicas, so each key is streamed once, by its
        *designated* source — the first member of its old replica set that
        actually holds a copy (per a key-list inventory), not R times by
        every holder; ranking by the replica order rather than just "the
        primary" also warms keys the primary happens to lack (e.g. a put
        that landed while it was partitioned).  Afterwards each source
        discards exactly the keys the newcomer displaced it from, but only
        those whose arrival on the target was confirmed: a key whose
        install failed keeps its old copies, the same conservatism as the
        unreplicated path.
        """
        factor = self.cluster.replication_factor
        old_ring = self.cluster.ring
        changes = diff_replica_ownership(old_ring, new_ring, factor)
        relevant = [change for change in changes if target in change.new_owners]
        self.stats.ranges_moved += len(relevant)
        sources = sorted({owner for change in relevant for owner in change.old_owners})
        self.stats.migrations += 1
        held = self._key_inventory(sources)

        def designated(key: str) -> Optional[str]:
            for node in old_ring.successors(key, factor):
                if held.get(node) and key in held[node]:
                    return node
            return None

        confirmed: set = set()
        for source in sources:
            moved_keys = self._stream_entries(
                source,
                keep=lambda key, source=source: (
                    target in new_ring.successors(key, factor)
                    and designated(key) == source
                ),
                target=target,
                carry_watermark=True,
            )
            if moved_keys is not None:
                confirmed.update(moved_keys)
            # A None (source died mid-stream) cold-starts that slice on the
            # target, exactly as before; other replicas keep their copies.
        for source in sources:
            try:
                dropped = [
                    key
                    for key in self.cluster.node_keys(source)
                    if key in confirmed
                    and source not in new_ring.successors(key, factor)
                ]
                if dropped:
                    self.stats.entries_discarded += self.cluster.discard_keys(
                        source, dropped
                    )
            except _FAILURE_EXCEPTIONS:
                # Stale copies age out; routing never returns there.
                self.cluster.note_transport_failure(source)

    def _migrate_for_leave(self, source: str, new_ring: ConsistentHashRing) -> None:
        """Drain everything the departing ``source`` holds to the new owners."""
        factor = self.cluster.replication_factor
        self.stats.migrations += 1
        # The replica diff lists the same arcs; for a leave every entry of
        # the source moves, so the per-key route below is the whole story —
        # but the ranges still feed the counters for observability.
        self.stats.ranges_moved += len(
            diff_replica_ownership(self.cluster.ring, new_ring, factor)
        )
        self._stream_entries(source, keep=lambda key: True, target=None, route=new_ring)
        # No discard: the node is shut down right after routing switches.

    def _stream_entries(
        self, source, keep, target, route=None, carry_watermark=False
    ) -> Optional[set]:
        """Page entries out of ``source`` and install the kept ones.

        ``target`` fixes the destination (join); with ``route`` instead, each
        record goes to every member of its key's replica set under that ring
        (leave; one node when unreplicated).  ``carry_watermark`` advances
        each destination's invalidation watermark to the source's before
        installing, so still-valid records are usable at current timestamps
        on arrival — safe only for freshly provisioned join targets, which
        hold no entries predating their stream subscription (an established
        node whose watermark trails the source's has *missed* invalidations,
        and advancing it would let its own still-valid entries serve stale
        data).  Returns the set of moved keys, or None if the source became
        unreachable mid-stream.
        """
        try:
            source_watermark = self.cluster.watermark(source)
        except _FAILURE_EXCEPTIONS:
            self.stats.migration_sources_lost += 1
            self.cluster.note_transport_failure(source)
            return None
        factor = self.cluster.replication_factor
        watermarked: set = set()
        moved_keys: set = set()
        cursor: Optional[str] = None
        while True:
            try:
                records, cursor = self.cluster.extract_entries(
                    source, cursor, self.chunk_size
                )
            except _FAILURE_EXCEPTIONS:
                self.stats.migration_sources_lost += 1
                self.cluster.note_transport_failure(source)
                return None
            self.stats.migration_chunks += 1
            by_target: Dict[str, List[EntryRecord]] = {}
            for record in records:
                if not keep(record.key):
                    continue
                if target is not None:
                    destinations = [target]
                else:
                    destinations = [
                        node
                        for node in route.successors(record.key, factor)
                        if node != source
                    ]
                for destination in destinations:
                    by_target.setdefault(destination, []).append(record)
            for destination, batch in by_target.items():
                try:
                    if carry_watermark and destination not in watermarked:
                        transport = self.cluster.transports[destination]
                        if transport.watermark() < source_watermark:
                            transport.note_timestamp(source_watermark)
                        watermarked.add(destination)
                    self.cluster.install_entries(destination, batch)
                except _FAILURE_EXCEPTIONS:
                    # Destination died mid-install: its slice cold-starts.
                    # Record the failure (suspect marking) without evicting,
                    # so the staged ring stays valid; the first routed
                    # failure after the epoch switch completes the eviction.
                    self.stats.migration_install_failures += 1
                    self.cluster.note_transport_failure(destination)
                    continue
                self.stats.entries_migrated += len(batch)
                moved_keys.update(record.key for record in batch)
            if cursor is None:
                break
        self.stats.keys_migrated += len(moved_keys)
        return moved_keys
