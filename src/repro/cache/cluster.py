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
  with its own interpreter (and optionally its own pinned CPU), reached
  over the same wire stack.  The invalidation stream crosses the
  process boundary over the wire too, one message at a time in commit
  order, as it reaches every other node.

Batched lookups (:meth:`CacheCluster.multi_lookup`) group requests by
responsible node and issue one round trip per node, which is where a
networked topology recovers most of its RPC cost.

**Failure-aware routing.**  A cache is an optimization, so a dead cache node
must never crash the application: every routed operation catches
connection-level transport failures, marks the node *suspect*, and degrades
to the semantics of an empty cache (lookups miss, puts are dropped) instead
of raising.  All of that is paid for when a call fails, not before: against
a node that answers, a routed operation is the ring lookup and the plain
transport call (``CacheCluster._ask``).  After ``failure_threshold``
consecutive failures the node is evicted from the ring entirely — its key
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

**Thread safety.**  The routed operations (``lookup``, ``multi_lookup``,
``put``, ``probe``, …) are fully thread-safe: any number of application
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

import os
import random
import threading
import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.cache.entry import EntryRecord, LookupRequest, LookupResult
from repro.cache.hashring import ConsistentHashRing
from repro.cache.netserver import (
    CacheNodeUnreachableError,
    CacheServerProcess,
    SocketTransport,
)
from repro.cache.procnode import CacheNodeHost
from repro.cache.server import CacheServer, CacheServerStats
from repro.clock import Clock, SystemClock
from repro.comm.multicast import InvalidationBus, InvalidationMessage
from repro.comm.transport import (
    CacheTransport,
    InProcessTransport,
    RetryPolicy,
    current_deadline,
    deadline_scope,
)
from repro.db.invalidation import InvalidationTag
from repro.interval import Interval

__all__ = ["CacheCluster", "ClusterHealthStats", "PutOutcome"]

#: Supported values of the ``transport`` constructor argument.
#: ``"socket"`` serves each node from a thread of this process over the
#: wire stack of :mod:`repro.cache.netserver`; ``"socket-process"`` hosts
#: each node in its **own OS process**
#: (:class:`repro.cache.procnode.CacheNodeHost`) behind the same stack, so
#: N nodes on one machine use N cores instead of sharing one GIL.
TRANSPORT_KINDS = ("inprocess", "socket", "socket-process")

#: Exceptions that mean "the node is unreachable" (never server-side errors).
_FAILURE_EXCEPTIONS = (CacheNodeUnreachableError, ConnectionError, OSError)

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
    #: Other operations (probes, eviction sweeps, invalidations…) skipped.
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
    from the invalidation path exactly as from the lookup path.
    """

    def __init__(self, cluster: "CacheCluster", name: str, transport: CacheTransport) -> None:
        self._cluster = cluster
        self.name = name
        self.transport = transport

    def _deliver(self, send: Callable[[], None]) -> None:
        try:
            send()
        except _FAILURE_EXCEPTIONS:
            self._cluster._bump_health("degraded_ops")
            self._cluster._note_failure(self.name)

    def process_invalidation(self, message: InvalidationMessage) -> None:
        self._deliver(lambda: self.transport.process_invalidation(message))

    def note_timestamp(self, timestamp: int) -> None:
        self._deliver(lambda: self.transport.note_timestamp(timestamp))


class CacheCluster:
    """Routes cache operations to the responsible cache node's transport."""

    def __init__(
        self,
        node_count: int = 2,
        capacity_bytes_per_node: int = 64 * 1024 * 1024,
        clock: Optional[Clock] = None,
        invalidation_bus: Optional[InvalidationBus] = None,
        node_names: Optional[Sequence[str]] = None,
        transport: str = "inprocess",
        failure_threshold: int = 3,
        replication_factor: int = 1,
        rpc_timeout_seconds: float = 30.0,
        simulated_rpc_latency_seconds: float = 0.0,
        node_addresses: Optional[Dict[str, Tuple[str, int]]] = None,
        cpu_pinning: bool = False,
        retry_policy: Optional[RetryPolicy] = None,
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
        #: Pin each process-hosted node to its own CPU (opt-in;
        #: round-robin over the machine's cores).  Ignored by the other
        #: transport kinds — threads in one interpreter gain nothing from
        #: pinning.
        self.cpu_pinning = cpu_pinning
        self._cpu_cursor = 0
        #: Bounded-retry policy for idempotent reads (lookup, multi_lookup,
        #: probe, key_digest, keys_in_range, versions_of): transient
        #: connection failures retry with exponential backoff + jitter
        #: before the read fails over to the next replica, all under one
        #: per-op deadline budget (``retry_policy.deadline_seconds``,
        #: defaulting to ``rpc_timeout_seconds``) spanning dial + retries +
        #: failover.  Non-idempotent ops (put, invalidations) never retry
        #: blind.  Pass ``RetryPolicy(max_attempts=1)`` to disable retries.
        self.retry_policy = retry_policy or RetryPolicy()
        #: Jitter source for retry backoff (seeded: reproducible schedules).
        self._retry_rng = random.Random(0x7C5)
        self.health = ClusterHealthStats()
        #: Guards ring, transport registry, and failure accounting (held for
        #: in-memory updates only; see "Thread safety" in the module doc).
        self._state_lock = threading.RLock()
        #: Called with the node name after a failure-driven ring eviction
        #: (the membership coordinator hooks this to record an epoch).
        self.on_node_evicted: Optional[Callable[[str], None]] = None
        self._clock = clock or SystemClock()
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
                self._start_node(name, capacity_bytes_per_node, self._clock)
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

    def add_node(self, name: str, capacity_bytes: int, clock: Optional[Clock] = None) -> CacheServer:
        """Add a cache node to the cluster (keys re-map via the ring).

        This is the *cold* join: remapped keys start over on the new node.
        For a warm join that migrates entries, use
        :meth:`repro.cache.membership.ClusterMembership.join`.
        """
        server = self.provision_node(name, capacity_bytes, clock)
        with self._state_lock:
            self.ring.add_node(name)
        return server

    def provision_node(
        self, name: str, capacity_bytes: int, clock: Optional[Clock] = None
    ) -> CacheServer:
        """Start a node (transport + invalidation stream) *outside* the ring.

        The membership coordinator uses this to warm a joining node with
        migrated entries before any traffic routes to it; plain
        :meth:`add_node` is ``provision_node`` plus immediate ring insertion.
        """
        with self._state_lock:
            if name in self._transports:
                raise ValueError(f"cache node {name!r} already exists")
            server = self._start_node(name, capacity_bytes, clock or self._clock)
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
        """Simulate a node crash (tests and the churn benchmark).

        Under the socket transport the node's server process is shut down
        and nothing else: routing still points at the dead endpoint, so the
        failure path (suspect marking, degraded results, threshold eviction)
        is exercised exactly as a real crash would.  Under the in-process
        transport there is no wire to fail, so the node is evicted
        immediately — the post-detection state of a crash.
        """
        if name not in self._transports:
            raise KeyError(name)
        process = self._processes.get(name)
        if process is not None:
            process.shutdown()
        else:
            self._evict_node(name)

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

    def _start_node(
        self, name: str, capacity_bytes: int, clock: Clock
    ) -> Optional[CacheServer]:
        if self._node_addresses is not None:
            # Client-only cluster: the node runs elsewhere; just dial it.
            self._transports[name] = SocketTransport(
                self._node_addresses[name], name=name, timeout_seconds=self.rpc_timeout_seconds
            )
            return None
        if self.transport_kind == "socket-process":
            # The node lives in its own OS process: no local CacheServer to
            # register (and the injected clock cannot cross the process
            # boundary — the child keeps system time, which is what the
            # timestamp-interval protocol assumes of a remote node anyway).
            cpu_affinity: Optional[int] = None
            if self.cpu_pinning:
                cpu_affinity = self._cpu_cursor % (os.cpu_count() or 1)
                self._cpu_cursor += 1
            host = CacheNodeHost(
                name,
                capacity_bytes=capacity_bytes,
                simulated_latency_seconds=self.simulated_rpc_latency_seconds,
                cpu_affinity=cpu_affinity,
            )
            self._processes[name] = host
            try:
                self._transports[name] = SocketTransport(
                    host.address, name=name, timeout_seconds=self.rpc_timeout_seconds
                )
            except BaseException:
                # Connecting failed: reap the just-spawned node instead of
                # leaving an orphaned process squatting on its port.
                self._processes.pop(name).shutdown()
                raise
            return None
        server = CacheServer(name=name, capacity_bytes=capacity_bytes, clock=clock)
        self._servers[name] = server
        if self.transport_kind != "inprocess":
            process = CacheServerProcess(
                server, simulated_latency_seconds=self.simulated_rpc_latency_seconds
            )
            self._processes[name] = process
            try:
                self._transports[name] = SocketTransport(
                    process.address, name=name, timeout_seconds=self.rpc_timeout_seconds
                )
            except BaseException:
                # Connecting failed: stop the just-started node instead of
                # leaving its listener thread orphaned.
                self._processes.pop(name).shutdown()
                self._servers.pop(name)
                raise
        else:
            self._transports[name] = InProcessTransport(server)
        return server

    def _subscribe_node(self, name: str, transport: CacheTransport) -> None:
        # Idempotent per node: re-attaching the bus (or re-warming an
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

    def _note_failure(self, node: str, evict: bool = True) -> None:
        """Record one transport failure; evict the node at the threshold."""
        with self._state_lock:
            if node not in self._transports:
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
    def _op_scope(self) -> deadline_scope:
        """One deadline budget for a whole routed operation.

        Opened at the top of every routed read: dial time, per-node
        retries, and the replica-failover walk all draw on the same
        budget, so a hung node cannot multiply the worst case by the
        number of replicas.  A scope already active (a nested routed call)
        keeps governing — budgets never stack.
        """
        deadline = current_deadline()
        if deadline is None:
            budget = self.retry_policy.deadline_seconds
            if budget is None:
                budget = self.rpc_timeout_seconds
            if budget is not None:
                deadline = time.monotonic() + budget
        return deadline_scope(deadline)

    def _ask(self, node: str, op: str, *args):
        """``transport.<op>(*args)`` on ``node``; :data:`_UNANSWERED` if it
        could not be reached.

        Where ``lookup``/``multi_lookup``/``put``/``probe`` meet a failure.
        A node that answers costs the call itself; only a connection-level
        failure enters the cluster :class:`RetryPolicy` (the failed call is
        its attempt 1, and only idempotent ops get another), and only a
        node still failing after that is charged (suspect marking,
        threshold eviction).  A node whose transport is already gone is
        nobody's failure.
        """
        transport = self._transports.get(node)
        if transport is None:
            return _UNANSWERED
        try:
            answer = getattr(transport, op)(*args)
        except _FAILURE_EXCEPTIONS as failure:
            try:
                answer = self.retry_policy.run(
                    op,
                    lambda: getattr(transport, op)(*args),
                    retry_on=_FAILURE_EXCEPTIONS,
                    rng=self._retry_rng,
                    failure=failure,
                )
            except _FAILURE_EXCEPTIONS:
                self._note_failure(node)
                return _UNANSWERED
        if node in self._suspects:
            self._note_success(node)
        return answer

    def _read_from_replicas(self, key: str, op: str, *args):
        """``transport.<op>(*args)`` on the first reachable replica of ``key``.

        The failover walk behind ``lookup``/``probe``/``was_ever_stored``,
        under one deadline budget.  Returns ``(answer, failed_over)``;
        ``answer`` is :data:`_UNANSWERED` when every replica was
        unreachable or the budget ran out (the caller degrades).
        """
        failed_over = False
        with self._op_scope() as deadline:
            for node in self._replicas(key):
                if deadline is not None and time.monotonic() >= deadline:
                    # Out of deadline budget: degrade rather than charge a
                    # transport failure to replicas we never actually asked.
                    break
                answer = self._ask(node, op, *args)
                if answer is not _UNANSWERED:
                    return answer, failed_over
                failed_over = True
        return _UNANSWERED, failed_over

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
        """Route a versioned lookup to the responsible node.

        With replication the lookup fails over along the key's replica set:
        an unreachable primary is noted (suspect marking, threshold
        eviction) and the next replica is asked.  Only when *every* replica
        is unreachable does the cluster yield a synthetic (degraded) miss —
        to the application a fully dead replica set looks like an empty
        cache, never an exception.
        """
        result, failed_over = self._read_from_replicas(key, "lookup", key, lo, hi)
        if result is _UNANSWERED:
            return self._degraded_lookup(key)
        if failed_over:
            self._record_failover_read(result.hit)
        return result

    def multi_lookup(self, requests: Sequence[LookupRequest]) -> List[LookupResult]:
        """Answer a batch of lookups, one round trip per node touched.

        Requests are grouped by primary node in one pass, each group is one
        plain ``multi_lookup`` call on that node's transport, and the
        answers are reassembled in request order; a batch of one takes the
        same steps as a batch of many.  Results are identical to issuing
        the requests one at a time.  Only when a group's node is
        unreachable do its requests fail over to their next untried
        replica (re-batched per replica node), and only requests with no
        reachable replica left are answered with degraded misses.  When
        the deadline budget runs out, what is still queued degrades at
        once instead of charging failures to nodes that were never asked.
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
        with self._op_scope() as deadline:
            while pending:
                node, indices = pending.popitem()
                if deadline is not None and time.monotonic() >= deadline:
                    for index in indices:
                        results[index] = self._degraded_lookup(requests[index].key)
                    continue
                answers = self._ask(
                    node, "multi_lookup", [requests[index] for index in indices]
                )
                if answers is _UNANSWERED:
                    # Each request moves to its next untried live replica,
                    # or degrades when none remain.
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
        tags: FrozenSet[InvalidationTag] = frozenset(),
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

    def probe(self, key: str, lo: int, hi: int) -> bool:
        """Statistics-free hit check (first reachable replica answers)."""
        answer, _failed_over = self._read_from_replicas(key, "probe", key, lo, hi)
        if answer is _UNANSWERED:
            self._bump_health("degraded_ops")
            return False
        return answer

    def was_ever_stored(self, key: str) -> bool:
        """True if a reachable replica of ``key`` has ever stored it."""
        answer, _failed_over = self._read_from_replicas(key, "was_ever_stored", key)
        if answer is _UNANSWERED:
            self._bump_health("degraded_ops")
            return False
        return answer

    def _on_every_node(self, op: str, *args) -> list:
        """``transport.<op>(*args)`` on every node; the answers of those
        reached.  An unreachable node is skipped: one degraded op, and the
        failure charged to it."""
        answers = []
        for node in list(self._transports):
            transport = self._transports.get(node)
            if transport is None:
                continue
            try:
                answers.append(getattr(transport, op)(*args))
            except _FAILURE_EXCEPTIONS:
                self._bump_health("degraded_ops")
                self._note_failure(node)
        return answers

    def evict_stale(self, oldest_useful_timestamp: int) -> int:
        """Eagerly drop too-stale entries on every reachable node."""
        return sum(self._on_every_node("evict_stale", oldest_useful_timestamp))

    def clear(self) -> None:
        """Empty every reachable node."""
        self._on_every_node("clear")

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

        Idempotent read: retried per the cluster policy under one deadline
        budget, so a repair sweep rides out a transient blip instead of
        writing the node off as a lost source.
        """
        return self._retried_read(node, "key_digest", arcs, cursor)

    def keys_in_range(
        self, node: str, arcs, cursor: Optional[str] = None
    ) -> Tuple[List[str], Optional[str]]:
        """One page of ``node``'s stored keys inside the given hash-space
        arcs, and the cursor of the next (``None`` after the last).

        Idempotent read: retried like :meth:`key_digest`.
        """
        return self._retried_read(node, "keys_in_range", arcs, cursor)

    def _retried_read(self, node: str, op: str, arcs, cursor: Optional[str]):
        """A repair-planning read of one named node; failures are the
        planner's to handle, so they propagate once retries run out."""
        transport = self._transport(node)
        with self._op_scope():
            return self.retry_policy.run(
                op,
                lambda: getattr(transport, op)(list(arcs), cursor),
                retry_on=_FAILURE_EXCEPTIONS,
                rng=self._retry_rng,
            )

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

    @property
    def used_bytes(self) -> int:
        """Total bytes in use across the cluster."""
        with self._state_lock:  # a concurrent eviction mutates _servers
            servers = list(self._servers.values())
        return sum(server.used_bytes for server in servers)

    @property
    def capacity_bytes(self) -> int:
        """Total capacity across the cluster."""
        with self._state_lock:
            servers = list(self._servers.values())
        return sum(server.capacity_bytes for server in servers)

    @property
    def entry_count(self) -> int:
        """Total entries across the cluster."""
        with self._state_lock:
            servers = list(self._servers.values())
        return sum(server.entry_count for server in servers)

    def key_distribution(self, keys: Sequence[str]) -> Dict[str, int]:
        """How a set of keys spreads over nodes (for balance diagnostics)."""
        return self.ring.distribution(list(keys))
