"""Convenience wiring of a complete TxCache deployment.

A TxCache deployment (paper Figure 1) consists of a database, a set of cache
nodes, the pincushion, and one TxCache library instance per application
server, all sharing one invalidation stream.  :class:`TxCacheDeployment`
builds and wires these pieces so examples, tests, and the benchmark harness
do not repeat the plumbing.

The ``transport`` option selects how the cache nodes are deployed:
``TxCacheDeployment(transport="inprocess")`` (the default) calls cache
servers directly, while ``transport="socket"`` runs every node as a real
TCP server (:class:`repro.cache.netserver.CacheServerProcess`) on a thread
of this process, reached over the one wire protocol — the paper's actual
topology — and ``transport="socket-process"`` runs each such server in its
own OS process.  Socket deployments hold OS resources; call :meth:`TxCacheDeployment.shutdown` (or use the
deployment as a context manager) when done.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cache.cluster import CacheCluster
from repro.cache.gossip import GossipRunner
from repro.cache.maintenance import MaintenanceBudget, MaintenancePlane
from repro.cache.membership import ClusterMembership
from repro.cache.server import CacheServer
from repro.cache.supervisor import NodeSupervisor
from repro.clock import Clock, ManualClock
from repro.comm.multicast import InvalidationBus
from repro.comm.transport import RetryPolicy
from repro.core.api import ConsistencyMode, TxCacheClient
from repro.db.database import Database
from repro.pincushion.pincushion import Pincushion

__all__ = ["TxCacheDeployment", "HousekeepingError"]


class HousekeepingError(Exception):
    """One or more housekeeping stages failed (the rest still ran).

    ``failures`` maps stage name to the exception it raised.  Raised at the
    end of :meth:`TxCacheDeployment.housekeeping` so one broken chore (say a
    gossip round against a dying node) cannot starve the others — the
    supervisor pump and the maintenance plane must keep running precisely
    when things are failing.
    """

    def __init__(self, failures: dict) -> None:
        self.failures = dict(failures)
        detail = "; ".join(
            f"{stage}: {exc!r}" for stage, exc in self.failures.items()
        )
        super().__init__(f"housekeeping stage(s) failed: {detail}")


@dataclass
class TxCacheDeployment:
    """One database, one cache cluster, one pincushion, many clients."""

    clock: Clock = field(default_factory=ManualClock)
    cache_nodes: int = 2
    cache_capacity_bytes_per_node: int = 64 * 1024 * 1024
    #: "inprocess" (direct calls), "socket" (networked cache servers on
    #: threads of this process — see repro.cache.netserver), or
    #: "socket-process" (each node in its own OS process behind the same
    #: wire stack, so nodes scale with cores — see repro.cache.procnode).
    transport: str = "inprocess"
    mode: ConsistencyMode = ConsistencyMode.CONSISTENT
    default_staleness: float = 30.0
    new_pin_threshold: float = 5.0
    pincushion_expiry_seconds: float = 60.0
    track_validity: bool = True
    #: Consecutive transport failures before a cache node is evicted from
    #: the ring (failure-aware routing degrades to misses until then).
    failure_threshold: int = 3
    #: Connect and per-RPC timeout of the socket transports; a node that stops
    #: answering surfaces as unreachable (and degrades) within this bound
    #: instead of hanging a worker thread forever.
    rpc_timeout_seconds: float = 30.0
    #: Modelled LAN round-trip time served by each networked cache node
    #: (0 = loopback only).  See repro.cache.netserver.CacheServerProcess.
    simulated_rpc_latency_seconds: float = 0.0
    #: Keys per chunk when live-migrating entries on a membership change.
    migration_chunk_size: int = 128
    #: Copies of each key across the cache tier (ring successor lists).
    #: With R > 1 reads fail over to replicas and a node crash loses no
    #: cached state; 1 reproduces the paper's unreplicated deployment.
    replication_factor: int = 1
    #: Pin each "socket-process" cache node to its own CPU core (opt-in;
    #: ignored by the in-interpreter transports).
    cpu_pinning: bool = False
    #: Run the gossip membership plane: a per-node SWIM-style agent plus an
    #: app-server observer relay digests each :meth:`housekeeping` round, so
    #: the node set converges without a coordinator and confirmed deaths
    #: drive ring eviction.  See repro.cache.gossip.
    gossip: bool = False
    #: Seconds without heartbeat progress before a peer is suspected.
    gossip_suspect_seconds: float = 2.0
    #: Seconds a suspect stays unrefuted before it is confirmed dead.
    gossip_confirm_seconds: float = 4.0
    #: Run migration/repair sweeps as resumable background jobs pumped from
    #: :meth:`housekeeping` under an op/byte budget, instead of synchronous
    #: epoch-boundary sweeps.  See repro.cache.maintenance.
    background_maintenance: bool = False
    #: Budget: maintenance RPCs allowed per interval.
    maintenance_ops_per_interval: int = 64
    #: Budget: maintenance payload bytes allowed per interval.
    maintenance_bytes_per_interval: int = 1 << 20
    #: Budget refill interval, on the deployment clock.
    maintenance_interval_seconds: float = 1.0
    #: Retry/backoff/deadline policy of the cache wire client (idempotent
    #: reads only; None = the RetryPolicy defaults).  Disable retries with
    #: ``RetryPolicy(max_attempts=1)``.  See repro.comm.transport.
    retry_policy: Optional[RetryPolicy] = None
    #: Supervise cache nodes: detect crashed children, respawn them with
    #: backoff, and re-warm via the maintenance plane.  None = on for the
    #: "socket-process" transport (real child processes that can die), off
    #: otherwise; the supervisor still works on any transport when forced
    #: on (an evicted in-process node is "dead" and gets respawned).
    supervision: Optional[bool] = None
    #: First respawn delay after a death; doubles each crash-loop rung.
    supervisor_backoff_base_seconds: float = 0.1
    #: Respawns allowed inside the window before the circuit breaker trips
    #: and the node is given up on (permanent eviction).
    supervisor_max_restarts: int = 5
    #: Width of the circuit-breaker restart-counting window.
    supervisor_restart_window_seconds: float = 60.0

    def __post_init__(self) -> None:
        self.invalidation_bus = InvalidationBus()
        self.database = Database(
            clock=self.clock,
            invalidation_bus=self.invalidation_bus,
            track_validity=self.track_validity,
        )
        self.cache = CacheCluster(
            node_count=self.cache_nodes,
            capacity_bytes_per_node=self.cache_capacity_bytes_per_node,
            clock=self.clock,
            invalidation_bus=self.invalidation_bus,
            transport=self.transport,
            failure_threshold=self.failure_threshold,
            replication_factor=self.replication_factor,
            rpc_timeout_seconds=self.rpc_timeout_seconds,
            simulated_rpc_latency_seconds=self.simulated_rpc_latency_seconds,
            cpu_pinning=self.cpu_pinning,
            retry_policy=self.retry_policy,
        )
        self.membership = ClusterMembership(self.cache, chunk_size=self.migration_chunk_size)
        if self.background_maintenance:
            budget = MaintenanceBudget(
                clock=self.clock,
                ops_per_interval=self.maintenance_ops_per_interval,
                bytes_per_interval=self.maintenance_bytes_per_interval,
                interval_seconds=self.maintenance_interval_seconds,
            )
            self.membership.plane = MaintenancePlane(budget=budget)
        self.gossip_runner: Optional[GossipRunner] = None
        if self.gossip:
            self.gossip_runner = GossipRunner(
                self.cache,
                self.membership,
                clock=self.clock,
                suspect_timeout=self.gossip_suspect_seconds,
                confirm_timeout=self.gossip_confirm_seconds,
            )
        self.supervisor: Optional[NodeSupervisor] = None
        supervise = (
            self.transport == "socket-process"
            if self.supervision is None
            else self.supervision
        )
        if supervise:
            self.supervisor = NodeSupervisor(
                self.cache,
                self.membership,
                gossip_runner=self.gossip_runner,
                clock=self.clock,
                backoff_base_seconds=self.supervisor_backoff_base_seconds,
                max_restarts=self.supervisor_max_restarts,
                restart_window_seconds=self.supervisor_restart_window_seconds,
            )
            for name in self.cache.transports:
                self.supervisor.register(
                    name, capacity_bytes=self.cache_capacity_bytes_per_node
                )
        self.pincushion = Pincushion(
            clock=self.clock,
            unpin_callback=self.database.unpin,
            expiry_seconds=self.pincushion_expiry_seconds,
        )
        self.clients: List[TxCacheClient] = []

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------
    def client(
        self,
        mode: Optional[ConsistencyMode] = None,
        default_staleness: Optional[float] = None,
    ) -> TxCacheClient:
        """Create a new TxCache library instance attached to this deployment."""
        client = TxCacheClient(
            database=self.database,
            cache=self.cache,
            pincushion=self.pincushion,
            clock=self.clock,
            mode=mode or self.mode,
            default_staleness=(
                self.default_staleness if default_staleness is None else default_staleness
            ),
            new_pin_threshold=self.new_pin_threshold,
        )
        self.clients.append(client)
        return client

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def housekeeping(self, max_staleness: Optional[float] = None) -> None:
        """Run the periodic background chores of a deployment.

        * expire old, unused pinned snapshots (pincushion sweep, which in
          turn unpins them on the database);
        * vacuum tuple versions nothing can see any more;
        * eagerly evict cache entries too stale to satisfy any transaction
          within ``max_staleness`` seconds;
        * with ``gossip``, run one gossip round (tick every agent, exchange
          digests, confirm deaths);
        * with ``supervision``, run one supervisor pass (detect dead nodes,
          respawn any whose backoff has elapsed);
        * with ``background_maintenance``, pump queued maintenance chunks
          under the plane's budget.

        Stages are isolated: a failing stage is recorded and the remaining
        stages still run — the cluster must keep healing exactly when parts
        of it are failing.  If anything failed, a :class:`HousekeepingError`
        summarising every failure is raised at the end.
        """
        staleness = self.default_staleness if max_staleness is None else max_staleness

        def evict_stale() -> None:
            horizon_wallclock = self.clock.now() - staleness
            horizon_ts = self.database.newest_timestamp_at_or_before(horizon_wallclock)
            if horizon_ts > 0:
                self.cache.evict_stale(horizon_ts)

        stages = [
            ("expire_old_snapshots", self.pincushion.expire_old_snapshots),
            ("vacuum", self.database.vacuum),
            ("evict_stale", evict_stale),
        ]
        if self.gossip_runner is not None:
            stages.append(("gossip_round", self.gossip_runner.round))
        if self.supervisor is not None:
            # Supervisor before the plane: a rejoin queued this pass gets
            # its re-warm chunks pumped in the same housekeeping round.
            stages.append(("supervisor_pump", self.supervisor.pump))
        if self.membership.plane is not None:
            stages.append(("maintenance_pump", self.membership.plane.pump))

        failures: dict = {}
        for label, stage in stages:
            try:
                stage()
            except Exception as exc:  # noqa: BLE001 - summarised below
                failures[label] = exc
        if failures:
            raise HousekeepingError(failures)

    def advance(self, seconds: float) -> None:
        """Advance a manual clock (no-op guard for system clocks)."""
        if isinstance(self.clock, ManualClock):
            self.clock.advance(seconds)

    # ------------------------------------------------------------------
    # Elasticity
    # ------------------------------------------------------------------
    def add_cache_node(
        self,
        name: Optional[str] = None,
        capacity_bytes: Optional[int] = None,
        weight: float = 1.0,
        migrate: bool = True,
    ) -> CacheServer:
        """Grow the cache tier by one node (warm join via live migration).

        ``name`` defaults to the next free ``cacheN``; ``capacity_bytes``
        defaults to the deployment's per-node capacity.  With
        ``migrate=False`` the join is cold: remapped keys start over.
        """
        if name is None:
            index = self.cache.node_count
            while f"cache{index}" in self.cache.transports:
                index += 1
            name = f"cache{index}"
        server = self.membership.join(
            name,
            capacity_bytes=capacity_bytes or self.cache_capacity_bytes_per_node,
            weight=weight,
            migrate=migrate,
        )
        if self.gossip_runner is not None:
            self.gossip_runner.register(name)
        if self.supervisor is not None:
            self.supervisor.register(
                name,
                capacity_bytes=capacity_bytes or self.cache_capacity_bytes_per_node,
                weight=weight,
            )
        return server

    def remove_cache_node(self, name: str, migrate: bool = True) -> None:
        """Shrink the cache tier by one node (drained via live migration)."""
        if self.supervisor is not None:
            # Planned removal: supervision must not resurrect the node.
            self.supervisor.forget(name)
        if self.gossip_runner is not None:
            self.gossip_runner.leave(name)
        self.membership.leave(name, migrate=migrate)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Tear the deployment down (closes networked cache nodes).

        Idempotent: every client connection is closed and every
        socket server stopped on the first call, and later calls are no-ops.
        Safe to call while client threads are still issuing transactions —
        their in-flight cache RPCs either complete or degrade through the
        failure-aware routing path (a closed cache is indistinguishable from
        a dead one, and a dead cache must never crash the application).
        """
        self.cache.close()

    def __enter__(self) -> "TxCacheDeployment":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()
