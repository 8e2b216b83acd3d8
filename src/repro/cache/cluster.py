"""A set of cache nodes addressed through consistent hashing.

The application library never talks to individual cache nodes; it hands keys
to the cluster, which routes each key to the responsible node using the hash
ring, exactly as the paper's TxCache library maps a key to a cache server.
All nodes subscribe to the same invalidation stream.

The cluster reaches each node through a :class:`CacheTransport`
(:mod:`repro.comm.transport`), so the same routing logic serves three
topologies:

* ``transport="inprocess"`` — nodes are plain :class:`CacheServer` objects
  called directly (zero overhead; the original behaviour);
* ``transport="socket"`` — each node runs as a
  :class:`repro.cache.netserver.CacheServerProcess` behind a TCP endpoint
  on a thread of this process and is reached via a
  :class:`repro.cache.netserver.SocketTransport`, modelling the paper's
  real deployment of standalone cache servers;
* ``transport="socket-process"`` — each node is a
  :class:`repro.cache.procnode.CacheNodeHost`, an **out-of-process** worker
  with its own interpreter, reached over the same wire stack.  The
  invalidation stream crosses the process boundary over the wire too, one
  message at a time in commit order, as it reaches every other node.

The networked kinds are this repository's runtime, not the paper's system:
one function, :func:`repro.cache.procnode.start_node`, starts (or only
dials) every networked node, imported only when a node is not in-process.
What "unreachable" means lives in :mod:`repro.comm.transport`.

Batched lookups (:meth:`CacheCluster.multi_lookup`) group requests by
responsible node and issue one round trip per node, which is where a
networked topology recovers most of its RPC cost.

**Failure-aware routing.**  A cache is an optimization, so a dead cache node
must never crash the application: every routed operation catches
connection-level transport failures, marks the node *suspect*, and degrades
to the semantics of an empty cache (lookups miss, puts are dropped) instead
of raising.  All of that is paid for when a call fails, not before: against
a node that answers, a routed operation is the ring lookup and the plain
transport call (``CacheCluster._ask``).  A routed call makes one attempt
per node and a failure is charged to the node once: there are no retries
and nothing sleeps, so a routed read waits at most one dial timeout plus
one RPC timeout per replica it tries.  Any call the node answers clears
it (a routed lookup or put, a probe, a stale-entry sweep, a delivered
invalidation), so after ``failure_threshold`` consecutive failures the node
is evicted from the ring entirely — its key
ranges fall to the surviving successors — and the
:class:`repro.cache.membership.ClusterMembership` coordinator (when attached
via :attr:`on_node_evicted`) records a new membership epoch.  Counters for all of this live in
:class:`ClusterHealthStats`.

**R-way replication.**  With ``replication_factor=R > 1`` every key lives on
the first R distinct nodes of its ring successor list
(:meth:`repro.cache.hashring.ConsistentHashRing.successors`).  Reads go to
the primary and *fail over* along the replica set when a node is suspect or
unreachable, so a crash degrades nothing as long as one replica survives;
``put`` fans the write to the whole replica set.  Invalidation-tag writes
and watermark advances already reach every replica because every node —
replica or not — subscribes to the same invalidation stream, which keeps
all copies truncating identically (the paper's timestamp-ordering argument
applies per node).  A hit served by a non-primary replica is classified in
:class:`ClusterHealthStats` (``replica_served_lookups`` / ``replica_hits``).
With ``replication_factor=1`` every code path is exactly the unreplicated
behaviour.

**Thread safety.**  The routed operations (``multi_lookup``, ``put``,
``evict_stale``, …) are fully thread-safe: any number of application
threads may share one cluster.  A single internal lock guards changes to the
ring, the transport registry, and the failure-accounting state (failure
counts, suspect set, health counters); it is held only for those in-memory
updates, never across a transport call, so it cannot serialize actual RPCs.
Routing a key takes no lock at all: the ring publishes a membership change
as a whole (see :mod:`repro.cache.hashring`), and a node that left between
routing and the call is simply treated as unreachable.  Node
teardown (bus unsubscription, closing transports, stopping a socket server)
always happens *outside* that lock — the invalidation bus holds its own lock
while delivering, and its delivery path re-enters the cluster on failures,
so cluster-lock -> bus-lock would deadlock against bus-lock -> cluster-lock.
Topology changes (``add_node``/``remove_node``/``adopt_ring``/``close``) are
safe to run while traffic flows; per-node thread safety is provided by
:class:`CacheServer`'s own lock, and per-connection concurrency by
:class:`SocketTransport`, which multiplexes every caller over one socket.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.cache.entry import EntryRecord, LookupRequest, LookupResult
from repro.cache.hashring import ConsistentHashRing
from repro.cache.server import CacheServer, CacheServerStats
from repro.comm.multicast import InvalidationBus, InvalidationMessage
from repro.comm.transport import (
    CacheNodeUnreachableError,
    CacheTransport,
    InProcessTransport,
    _FAILURE_EXCEPTIONS,
)
from repro.db.invalidation import InvalidationTag
from repro.interval import Interval

if TYPE_CHECKING:  # the runtime layer loads only for a networked cluster
    from repro.cache.netserver import CacheServerProcess
    from repro.cache.procnode import CacheNodeHost

__all__ = ["CacheCluster", "ClusterHealthStats", "PutOutcome"]

#: Supported values of the ``transport`` constructor argument.
#: ``"socket"`` serves each node from a thread of this process over the
#: wire stack of :mod:`repro.cache.netserver`; ``"socket-process"`` hosts
#: each node in its **own OS process**
#: (:class:`repro.cache.procnode.CacheNodeHost`) behind the same stack, so
#: N nodes on one machine use N cores instead of sharing one GIL.
TRANSPORT_KINDS = ("inprocess", "socket", "socket-process")

#: What a routed call yields when its node could not be reached (an answer
#: may be None or False, so absence needs its own value).
_UNANSWERED = object()


@dataclass
class ClusterHealthStats:
    """Counters for failure-aware routing (client-side, per cluster)."""

    #: Individual transport I/O failures observed while routing.
    transport_failures: int = 0
    #: Transitions of a node from healthy to suspect.
    suspect_marks: int = 0
    #: Suspect nodes that answered again before reaching the threshold.
    recoveries: int = 0
    #: Nodes evicted from the ring after repeated failures.
    nodes_evicted: int = 0
    #: Lookups answered with a synthetic miss because the node was down
    #: (with replication: because *every* replica was down).
    degraded_lookups: int = 0
    #: Puts silently dropped because the node was down (with replication:
    #: because no replica accepted the write).
    degraded_puts: int = 0
    #: Other operations (eviction sweeps, invalidations, stats…) skipped.
    degraded_ops: int = 0
    #: Reads answered by a non-primary replica after the primary failed.
    replica_served_lookups: int = 0
    #: The subset of ``replica_served_lookups`` that were cache hits — the
    #: entries replication saved from becoming degraded misses.
    replica_hits: int = 0


class PutOutcome(NamedTuple):
    """What :meth:`CacheCluster.put` did."""

    #: True if any replica stored the entry.
    stored: bool
    #: Replicas the write was sent to — one RPC each, answered or not.
    replicas: int


class _NodeStreamGuard:
    """Invalidation-bus subscriber shielding the bus from a dead node.

    The bus delivers synchronously from inside database commits; without the
    guard, one unreachable cache node would turn every update transaction
    into an exception.  Failures are routed into the cluster's failure
    accounting instead, so a dead node is detected (and eventually evicted)
    from the invalidation path exactly as from the lookup path: a failed
    delivery is charged, and a delivered message clears a suspect node.

    A message the node did not take stays in :attr:`missed` and goes, in
    order, ahead of the next one: a node below the threshold must not let a
    later message move its watermark past an invalidation it never applied.
    A replay of a message the node did apply (a reply lost after the node
    applied it) changes nothing there.  The list goes with the guard when
    the node is evicted.
    """

    def __init__(self, cluster: "CacheCluster", name: str, transport: CacheTransport) -> None:
        self._cluster = cluster
        self.name = name
        self.transport = transport
        #: Messages not yet delivered, oldest first.
        self.missed: List[InvalidationMessage] = []

    def process_invalidation(self, message: InvalidationMessage) -> None:
        transport = self.transport
        try:
            if self.missed:
                transport.process_invalidations(self.missed + [message])
                self.missed = []
            else:
                transport.process_invalidation(message)
        except _FAILURE_EXCEPTIONS:
            self.missed.append(message)
            self._cluster._bump_health("degraded_ops")
            self._cluster._note_failure(self.name, via=transport)
            return
        if self.name in self._cluster._suspects:
            self._cluster._note_success(self.name)


class CacheCluster:
    """Routes cache operations to the responsible cache node's transport."""

    def __init__(
        self,
        node_count: int = 2,
        capacity_bytes_per_node: int = 64 * 1024 * 1024,
        invalidation_bus: Optional[InvalidationBus] = None,
        node_names: Optional[Sequence[str]] = None,
        transport: str = "inprocess",
        failure_threshold: int = 3,
        replication_factor: int = 1,
        rpc_timeout_seconds: float = 30.0,
        simulated_rpc_latency_seconds: float = 0.0,
        node_addresses: Optional[Dict[str, Tuple[str, int]]] = None,
    ) -> None:
        if transport not in TRANSPORT_KINDS:
            raise ValueError(
                f"unknown transport {transport!r}; expected one of {TRANSPORT_KINDS}"
            )
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be positive")
        if replication_factor < 1:
            raise ValueError("replication_factor must be positive")
        if node_addresses is not None and transport == "inprocess":
            raise ValueError("node_addresses requires a socket transport")
        self.transport_kind = transport
        #: Endpoints of externally running cache nodes.  When set, the
        #: cluster is *client-only*: it dials the given addresses instead of
        #: starting servers (the multi-process benchmark workers attach to
        #: the coordinator's nodes this way).
        self._node_addresses = dict(node_addresses) if node_addresses else None
        self.failure_threshold = failure_threshold
        self.replication_factor = replication_factor
        #: Connect and per-RPC timeout of every socket transport.
        self.rpc_timeout_seconds = rpc_timeout_seconds
        #: Modelled LAN round trip served by each networked node (see
        #: :class:`repro.cache.netserver.CacheServerProcess`).
        self.simulated_rpc_latency_seconds = simulated_rpc_latency_seconds
        self.health = ClusterHealthStats()
        #: Guards ring, transport registry, and failure accounting (held for
        #: in-memory updates only; see "Thread safety" in the module doc).
        self._state_lock = threading.RLock()
        #: Called with the node name after a failure-driven ring eviction
        #: (the membership coordinator hooks this to record an epoch).
        self.on_node_evicted: Optional[Callable[[str], None]] = None
        self._bus: Optional[InvalidationBus] = None
        self._servers: Dict[str, CacheServer] = {}
        self._transports: Dict[str, CacheTransport] = {}
        #: Thread-hosted CacheServerProcess or out-of-process CacheNodeHost;
        #: both expose the same lifecycle surface (address, shutdown()).
        self._processes: Dict[str, "CacheServerProcess | CacheNodeHost"] = {}
        self._stream_guards: Dict[str, _NodeStreamGuard] = {}
        self._failures: Dict[str, int] = {}
        self._suspects: Set[str] = set()
        if node_names is None:
            if self._node_addresses is not None:
                node_names = sorted(self._node_addresses)
            else:
                node_names = [f"cache{i}" for i in range(node_count)]
        try:
            for name in node_names:
                self._start_node(name, capacity_bytes_per_node)
        except BaseException:
            # Don't orphan already-started networked nodes (listener sockets
            # and threads) when a later node fails to come up.
            self._teardown_nodes()
            raise
        self.ring = ConsistentHashRing(nodes=list(self._transports))
        if invalidation_bus is not None:
            self.attach_invalidation_bus(invalidation_bus)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def servers(self) -> Dict[str, CacheServer]:
        """Mapping of node name to the underlying cache server.

        The server objects live in this process under the in-process and
        thread-hosted socket transports (the socket server serves them from
        a node thread), so they remain available for introspection; live
        traffic always goes through the transports, and what a socket
        transport stored is held as :class:`~repro.cache.entry.ValueBlob`
        bytes — read values through the transport.  ``"socket-process"``
        nodes live in their own address space and have no entry here —
        introspect them over the wire (``stats``/``keys``/``watermark``)
        like any remote node.
        """
        return dict(self._servers)

    @property
    def transports(self) -> Dict[str, CacheTransport]:
        """Mapping of node name to the transport reaching that node."""
        return dict(self._transports)

    @property
    def processes(self) -> Dict[str, "CacheServerProcess | CacheNodeHost"]:
        """Mapping of node name to its server host (socket transports only).

        Thread-hosted kinds map to :class:`CacheServerProcess`;
        ``"socket-process"`` maps to the node's
        :class:`~repro.cache.procnode.CacheNodeHost` (pid, exitcode,
        ``kill()`` for crash tests).
        """
        return dict(self._processes)

    @property
    def node_count(self) -> int:
        """Number of cache nodes."""
        return len(self._transports)

    @property
    def suspect_nodes(self) -> List[str]:
        """Nodes with recent transport failures (not yet evicted)."""
        return sorted(self._suspects)

    def server_for(self, key: str) -> CacheServer:
        """The underlying server responsible for ``key`` (introspection)."""
        return self._servers[self.ring.node_for(key)]

    def transport_for(self, key: str) -> CacheTransport:
        """The transport to the node responsible for ``key``."""
        return self._transports[self.ring.node_for(key)]

    def attach_invalidation_bus(self, bus: InvalidationBus) -> None:
        """Subscribe every node to the invalidation stream (via guards).

        The cluster remembers the bus so nodes removed later are also
        unsubscribed (otherwise a removed node would keep consuming the
        stream forever).  Each node is subscribed through a
        :class:`_NodeStreamGuard` so an unreachable node degrades instead of
        failing the publisher.
        """
        self._bus = bus
        for name, transport in self._transports.items():
            self._subscribe_node(name, transport)

    def add_node(self, name: str, capacity_bytes: int) -> CacheServer:
        """Add a cache node to the cluster (keys re-map via the ring).

        This is the *cold* join: remapped keys start over on the new node.
        For a warm join that migrates entries, use
        :meth:`repro.cache.membership.ClusterMembership.join`.
        """
        server = self.provision_node(name, capacity_bytes)
        with self._state_lock:
            self.ring.add_node(name)
        return server

    def provision_node(self, name: str, capacity_bytes: int) -> CacheServer:
        """Start a node (transport + invalidation stream) *outside* the ring.

        The membership coordinator uses this to warm a joining node with
        migrated entries before any traffic routes to it; plain
        :meth:`add_node` is ``provision_node`` plus immediate ring insertion.
        """
        with self._state_lock:
            if name in self._transports:
                raise ValueError(f"cache node {name!r} already exists")
            server = self._start_node(name, capacity_bytes)
        if self._bus is not None:
            self._subscribe_node(name, self._transports[name])
        return server

    def adopt_ring(self, ring: ConsistentHashRing) -> None:
        """Atomically switch routing to a new ring (a membership epoch).

        Every ring member must have a transport; nodes with a transport but
        absent from the ring simply receive no traffic (e.g. a node that is
        being drained before removal).
        """
        with self._state_lock:
            missing = [node for node in ring.nodes if node not in self._transports]
            if missing:
                raise ValueError(f"ring references unknown cache nodes: {missing}")
            self.ring = ring

    def remove_node(self, name: str) -> None:
        """Remove a cache node; its contents are lost (cache semantics).

        Raises :class:`KeyError` if no such node exists.  The node's
        transport is unsubscribed from the invalidation bus and closed, and a
        networked node's server is shut down.  For a planned removal that
        migrates the node's entries to their new owners first, use
        :meth:`repro.cache.membership.ClusterMembership.leave`.
        """
        with self._state_lock:
            if name not in self._transports:
                raise KeyError(name)
            self.ring.remove_node(name)
            detached = self._pop_node_state(name)
        self._teardown_detached(detached)

    def fail_node(self, name: str) -> None:
        """Crash a node without warning (tests and churn schedules).

        The node stops answering and nothing else changes, under every
        transport: a networked node's server is shut down, and an
        in-process node's transport is crashed
        (:meth:`InProcessTransport.crash`).  Routing still points at the
        dead node, so the failure path (suspect marking, degraded results,
        threshold eviction) detects it exactly as it would a real crash.
        Its store is lost: a rejoin starts the node empty.
        """
        transport = self._transports.get(name)
        if transport is None:
            raise KeyError(name)
        process = self._processes.get(name)
        if process is not None:
            process.shutdown()
        else:
            transport.crash()

    def close(self) -> None:
        """Shut down every node (connections, socket servers, subscriptions).

        Idempotent, and safe to call while client threads are mid-operation:
        in-flight RPCs either finish or degrade through the normal
        failure-aware routing path.
        """
        while True:
            with self._state_lock:
                names = list(self._transports)
                if not names:
                    return
                name = names[0]
                self.ring.remove_node(name)
                detached = self._pop_node_state(name)
            self._teardown_detached(detached)

    def _pop_node_state(self, name: str):
        """Drop one node from every registry (caller holds the state lock).

        Returns what :meth:`_teardown_detached` needs to finish the job
        outside the lock: closing transports and unsubscribing from the bus
        can block (and the bus takes its own lock during delivery, whose
        failure path re-enters this cluster), so neither may run under the
        state lock.
        """
        transport = self._transports.pop(name)
        self._servers.pop(name, None)
        self._failures.pop(name, None)
        self._suspects.discard(name)
        guard = self._stream_guards.pop(name, None)
        process = self._processes.pop(name, None)
        return transport, guard, process

    def _teardown_detached(self, detached) -> None:
        """Finish a node's teardown outside the state lock."""
        transport, guard, process = detached
        if self._bus is not None and guard is not None:
            self._bus.unsubscribe(guard)
        transport.close()
        if process is not None:
            process.shutdown()

    def _teardown_nodes(self) -> None:
        """Close every transport and stop every node (no ring/bus updates)."""
        for transport in self._transports.values():
            transport.close()
        for process in self._processes.values():
            process.shutdown()
        self._transports.clear()
        self._processes.clear()
        self._servers.clear()
        self._stream_guards.clear()

    def _start_node(self, name: str, capacity_bytes: int) -> Optional[CacheServer]:
        if self.transport_kind == "inprocess":
            server = self._servers[name] = CacheServer(name=name, capacity_bytes=capacity_bytes)
            self._transports[name] = InProcessTransport(server)
            return server
        from repro.cache.procnode import start_node  # the runtime layer, on demand

        server, host, self._transports[name] = start_node(
            self.transport_kind,
            name,
            capacity_bytes,
            address=self._node_addresses[name] if self._node_addresses else None,
            simulated_latency_seconds=self.simulated_rpc_latency_seconds,
            timeout_seconds=self.rpc_timeout_seconds,
        )
        if host is not None:
            self._processes[name] = host
        if server is not None:
            self._servers[name] = server
        return server

    def _subscribe_node(self, name: str, transport: CacheTransport) -> None:
        # Idempotent per node: re-attaching the bus (or provisioning an
        # evicted-then-rejoined node) must replace the node's guard, not add
        # a second one — two live guards for the same node would deliver
        # every invalidation tag twice.
        with self._state_lock:
            stale = self._stream_guards.pop(name, None)
            guard = _NodeStreamGuard(self, name, transport)
            self._stream_guards[name] = guard
        # Bus calls happen outside the state lock (see "Thread safety").
        if stale is not None:
            self._bus.unsubscribe(stale)
        self._bus.subscribe(guard)

    # ------------------------------------------------------------------
    # Failure accounting
    # ------------------------------------------------------------------
    def _bump_health(self, counter: str, amount: int = 1) -> None:
        """Atomically increment one ClusterHealthStats counter.

        A bare ``+=`` is a read-modify-write that concurrent client threads
        can interleave; every degraded-path counter goes through here so the
        health numbers stay exact under load.
        """
        with self._state_lock:
            setattr(self.health, counter, getattr(self.health, counter) + amount)

    def note_transport_failure(self, node: str) -> None:
        """Record a transport failure observed outside routed operations.

        The migration coordinator uses this when a node dies mid-migration:
        the failure counts toward suspecting the node, but eviction is
        deferred to the next *routed* failure so a membership change that is
        staging a new ring is never invalidated from under itself.
        """
        self._note_failure(node, evict=False)

    def _note_failure(
        self, node: str, evict: bool = True, via: Optional[CacheTransport] = None
    ) -> None:
        """Record one transport failure; evict the node at the threshold.

        ``via`` is the transport the failed call went through, when known.
        A failure on a transport the node no longer has is not charged: the
        node was evicted since, and the one of that name now in the cluster
        (a rejoin) never failed.
        """
        with self._state_lock:
            current = self._transports.get(node)
            if current is None or (via is not None and via is not current):
                return
            self.health.transport_failures += 1
            count = self._failures.get(node, 0) + 1
            self._failures[node] = count
            if node not in self._suspects:
                self._suspects.add(node)
                self.health.suspect_marks += 1
        if evict and count >= self.failure_threshold:
            self._evict_node(node)

    def _note_success(self, node: str) -> None:
        """A suspect node answered: clear its failure count."""
        with self._state_lock:
            if node not in self._suspects:
                return  # another thread already recorded the recovery
            self._suspects.discard(node)
            self._failures.pop(node, None)
            self.health.recoveries += 1

    def _evict_node(self, node: str) -> None:
        """Drop a failed node from the ring; successors take over its keys."""
        with self._state_lock:
            if node not in self._transports:
                return  # lost a race with another thread's eviction/removal
            self.ring.remove_node(node)
            detached = self._pop_node_state(node)
            self.health.nodes_evicted += 1
        self._teardown_detached(detached)
        if self.on_node_evicted is not None:
            self.on_node_evicted(node)

    def replicas_for(self, key: str) -> List[str]:
        """The key's replica set: primary first, then the ring successors.

        Empty when the ring is empty; shorter than ``replication_factor``
        when the ring is.  A copy of the tuple the ring precomputed for the
        virtual point the key lands before.  No lock: a membership change
        publishes a whole new ring (or new ring tables), so a concurrent
        eviction can never expose a half-updated one.
        """
        return list(self._replicas(key))

    def _replicas(self, key: str) -> Tuple[str, ...]:
        """What :meth:`replicas_for` copies: the ring's own tuple."""
        try:
            return self.ring.successors(key, self.replication_factor)
        except LookupError:
            return ()

    # ------------------------------------------------------------------
    # The routed call: plain when the node answers, and what a failure costs
    # ------------------------------------------------------------------
    def _ask(self, node: str, op: str, *args):
        """``transport.<op>(*args)`` on ``node``; :data:`_UNANSWERED` if it
        could not be reached.

        Where ``put`` and :meth:`probe_node` meet a failure
        (``multi_lookup`` makes the same call in place).  A node that
        answers costs the call itself; a connection-level failure is
        charged to the node once (:meth:`_note_failure`) and the call is
        :data:`_UNANSWERED`.  A node whose transport is already gone is
        nobody's failure.
        """
        transport = self._transports.get(node)
        if transport is None:
            return _UNANSWERED
        try:
            answer = getattr(transport, op)(*args)
        except _FAILURE_EXCEPTIONS:
            self._note_failure(node, via=transport)
            return _UNANSWERED
        if node in self._suspects:
            self._note_success(node)
        return answer

    def _degraded_lookup(self, key: str) -> LookupResult:
        """The synthetic miss of a key with no reachable replica."""
        self._bump_health("degraded_lookups")
        return LookupResult(hit=False, key=key, degraded=True)

    def _record_failover_read(self, hit: bool) -> None:
        """Account a read that a non-primary replica answered."""
        with self._state_lock:
            self.health.replica_served_lookups += 1
            if hit:
                self.health.replica_hits += 1

    # ------------------------------------------------------------------
    # Cache operations (routed, degrading on node failure)
    # ------------------------------------------------------------------
    def lookup(self, key: str, lo: int, hi: int) -> LookupResult:
        """Route a versioned lookup to the responsible node: a batch of one."""
        return self.multi_lookup([LookupRequest(key, lo, hi)])[0]

    def multi_lookup(
        self, requests: Sequence[LookupRequest], asked: Optional[List[str]] = None
    ) -> List[LookupResult]:
        """Answer a batch of lookups, one round trip per node touched.

        Requests are grouped by primary node in one pass, each group is one
        plain ``multi_lookup`` call on that node's transport, and the
        answers are reassembled in request order; a batch of one takes the
        same steps as a batch of many.  Results are identical to issuing
        the requests one at a time.  Only when a group's node is
        unreachable do its requests fail over to their next untried
        replica (re-batched per replica node), and only requests with no
        reachable replica left are answered with degraded misses.

        ``asked``, when given, is appended the node of every round trip the
        batch made, so a caller can count them without routing a key again.
        """
        results: List[Optional[LookupResult]] = [None] * len(requests)
        pending: Dict[str, List[int]] = {}
        for index, request in enumerate(requests):
            replicas = self._replicas(request.key)
            if replicas:
                pending.setdefault(replicas[0], []).append(index)
            else:
                results[index] = self._degraded_lookup(request.key)
        #: request index -> the nodes that failed it (failed requests only).
        tried: Dict[int, Set[str]] = {}
        while pending:
            node, indices = pending.popitem()
            if asked is not None:
                asked.append(node)
            # A batch routed wholly to one node goes as it came; after a
            # failover the indices may cover the batch in another order.
            whole = not tried and len(indices) == len(requests)
            batch = requests if whole else [requests[index] for index in indices]
            transport = self._transports.get(node)
            if transport is None:
                answers = _UNANSWERED
            else:
                try:
                    answers = transport.multi_lookup(batch)
                except _FAILURE_EXCEPTIONS:
                    self._note_failure(node, via=transport)
                    answers = _UNANSWERED
                else:
                    if node in self._suspects:
                        self._note_success(node)
            if answers is _UNANSWERED:
                # Each request moves to its next untried live replica, or
                # degrades when none remain.
                for index in indices:
                    key = requests[index].key
                    failed = tried.setdefault(index, set())
                    failed.add(node)
                    for replica in self._replicas(key):
                        if replica not in failed and replica in self._transports:
                            pending.setdefault(replica, []).append(index)
                            break
                    else:
                        results[index] = self._degraded_lookup(key)
                continue
            if whole:
                return answers
            for index, answer in zip(indices, answers):
                results[index] = answer
                if index in tried:
                    self._record_failover_read(answer.hit)
        return results  # type: ignore[return-value]  # every slot is filled

    def put(
        self,
        key: str,
        value: object,
        interval: Interval,
        tags: Tuple[InvalidationTag, ...] = (),
    ) -> PutOutcome:
        """Insert one version of ``key`` on its full replica set.

        The write fans out to every replica (one node with
        ``replication_factor=1``); unreachable replicas are skipped after
        noting the failure.  Only a write that reached *no* replica counts
        as degraded.
        """
        stored = False
        delivered = False
        sent = 0
        for node in self._replicas(key):
            if node not in self._transports:
                continue
            sent += 1
            accepted = self._ask(node, "put", key, value, interval, tags)
            if accepted is not _UNANSWERED:
                delivered = True
                stored = stored or accepted
        if not delivered:
            self._bump_health("degraded_puts")
        return PutOutcome(stored, sent)

    def _on_every_node(self, op: str, *args) -> list:
        """``transport.<op>(*args)`` on every node; the answers of those
        reached.  An unreachable node is skipped: one degraded op, and the
        failure charged to it.  A suspect that answers is cleared."""
        answers = []
        for node in list(self._transports):
            transport = self._transports.get(node)
            if transport is None:
                continue
            try:
                answers.append(getattr(transport, op)(*args))
            except _FAILURE_EXCEPTIONS:
                self._bump_health("degraded_ops")
                self._note_failure(node, via=transport)
                continue
            if node in self._suspects:
                self._note_success(node)
        return answers

    def evict_stale(self, oldest_useful_timestamp: int) -> int:
        """Eagerly drop too-stale entries on every reachable node."""
        return sum(self._on_every_node("evict_stale", oldest_useful_timestamp))

    def probe_node(self, node: str) -> bool:
        """Whether ``node`` answers one ``watermark`` call.

        A routed call like any other: a failure is charged to the node and
        evicts it at the threshold, an answer clears its suspicion.  A node
        no longer in the cluster does not answer and is charged nothing.
        """
        return self._ask(node, "watermark") is not _UNANSWERED

    # ------------------------------------------------------------------
    # Key migration plumbing (used by the membership coordinator)
    # ------------------------------------------------------------------
    def _transport(self, node: str) -> CacheTransport:
        """The transport of a node the caller names; a node that has left
        (or was evicted) is unreachable, like one that stopped answering."""
        transport = self._transports.get(node)
        if transport is None:
            raise CacheNodeUnreachableError(f"cache node {node!r} is not in the cluster")
        return transport

    def extract_entries(
        self, node: str, cursor: Optional[str] = None, limit: int = 64
    ) -> Tuple[List[EntryRecord], Optional[str]]:
        """One page of ``node``'s entries (see the transport operation)."""
        return self._transport(node).extract_entries(cursor, limit)

    def install_entries(self, node: str, records: Sequence[EntryRecord]) -> int:
        """Install migrated records on ``node``; returns the stored count."""
        return self._transport(node).install_entries(records)

    def discard_keys(self, node: str, keys: Sequence[str]) -> int:
        """Drop migrated-away keys from ``node``; returns the removed count."""
        return self._transport(node).discard_keys(keys)

    def node_keys(self, node: str) -> List[str]:
        """The keys currently stored on ``node`` (replica-placement checks)."""
        return self._transport(node).keys()

    def watermark(self, node: str) -> int:
        """``node``'s highest processed invalidation timestamp."""
        return self._transport(node).watermark()

    def note_timestamp(self, node: str, timestamp: int) -> None:
        """Advance ``node``'s invalidation watermark to ``timestamp``."""
        self._transport(node).note_timestamp(timestamp)

    def key_digest(
        self, node: str, arcs, cursor: Optional[str] = None
    ) -> Tuple[List[Tuple[int, int, int]], Optional[str]]:
        """One page of per-arc interval-set digests of ``node``'s stored
        keys, and the cursor of the next (``None`` after the last).

        One call: a failure propagates to the repair planner, which notes
        it and leaves the node out of the sweep.
        """
        return self._transport(node).key_digest(list(arcs), cursor)

    def keys_in_range(
        self, node: str, arcs, cursor: Optional[str] = None
    ) -> Tuple[List[str], Optional[str]]:
        """One page of ``node``'s stored keys inside the given hash-space
        arcs, and the cursor of the next (``None`` after the last).

        One call, failing like :meth:`key_digest`.
        """
        return self._transport(node).keys_in_range(list(arcs), cursor)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def aggregate_stats(self) -> CacheServerStats:
        """Sum the per-node counters into one stats object."""
        total = CacheServerStats()
        for stats in self._on_every_node("stats"):
            total += stats
        return total

    def reset_stats(self) -> None:
        """Reset the counters of every reachable node."""
        self._on_every_node("reset_stats")

    def _local_servers(self) -> List[CacheServer]:
        """Every ring node's server, all of which must live in this process.

        Raises :class:`RuntimeError` naming the nodes whose server runs
        elsewhere (``"socket-process"`` children, or a client-only
        cluster's remote nodes): a sum over the servers at hand would
        silently leave them out.  Count those nodes over the wire
        (``transports[name].stats()`` / ``keys()``) instead.
        """
        with self._state_lock:  # a concurrent eviction mutates _servers
            remote = [name for name in self._transports if name not in self._servers]
            servers = list(self._servers.values())
        if remote:
            raise RuntimeError(
                f"cache nodes {sorted(remote)} do not run in this process; "
                "their contents are only reachable over the wire"
            )
        return servers

    @property
    def used_bytes(self) -> int:
        """Total bytes in use across the cluster (in-process servers only)."""
        return sum(server.used_bytes for server in self._local_servers())

    @property
    def capacity_bytes(self) -> int:
        """Total capacity across the cluster (in-process servers only)."""
        return sum(server.capacity_bytes for server in self._local_servers())

    @property
    def entry_count(self) -> int:
        """Total entries across the cluster (in-process servers only)."""
        return sum(server.entry_count for server in self._local_servers())

    def key_distribution(self, keys: Sequence[str]) -> Dict[str, int]:
        """How a set of keys spreads over nodes (for balance diagnostics)."""
        return self.ring.distribution(list(keys))
