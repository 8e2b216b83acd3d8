"""The benchmark drivers: simulated saturation and wall-clock concurrency.

Two drivers live here.  :func:`run_benchmark` reproduces the paper's
figures: it runs the RUBiS workload single-threaded and derives *simulated*
peak throughput from the cost model, so its results are exact, deterministic
and transport-invariant.  :func:`run_concurrent_benchmark` measures the
system as a system: K worker threads, each owning its own
:class:`TxCacheClient` (one per emulated application server, exactly the
paper's topology), drive transactions against one shared deployment and the
driver reports *wall-clock* operations per second — the number that shows
whether the request path (multiplexed socket transport, thread-safe cache tier,
locked pincushion/bus) actually admits concurrent traffic.

The benchmark driver below: run a RUBiS workload and derive peak throughput.

One :func:`run_benchmark` call corresponds to one point of one of the paper's
figures: a database configuration (in-memory or disk-bound), a total cache
size, a staleness limit, and a consistency mode.  The driver

1. builds a deployment, loads the scaled RUBiS dataset, and creates emulated
   client sessions running the bidding mix;
2. warms the cache (the paper restores a cache snapshot taken after an hour
   of traffic; the warmup phase plays the same role);
3. runs the measurement window, attributing machine time to the database,
   web-server, and cache tiers with the cost model and advancing the
   simulated clock at the rate the bottleneck tier can sustain (i.e., the
   system is measured at saturation, which is what "peak throughput" means
   in the paper);
4. reports throughput, hit rate, and the miss-type breakdown.
"""

from __future__ import annotations

import multiprocessing
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.rubis.app import RubisApp
from repro.apps.rubis.datagen import RubisConfig, populate_database
from repro.apps.rubis.schema import create_rubis_schema
from repro.apps.rubis.workload import BIDDING_MIX, RubisClientSession, WorkloadMix
from repro.bench.costmodel import ClusterSpec, CostModel, CostParameters, InteractionCost
from repro.clock import ManualClock, SystemClock
from repro.comm.wire import WIRE_COUNTERS
from repro.core.api import ConsistencyMode
from repro.core.stats import ClientStats, MissType
from repro.db.errors import SerializationError
from repro.db.query import Eq, Select
from repro.db.schema import TableSchema
from repro.deployment import TxCacheDeployment

__all__ = [
    "BenchmarkConfig",
    "BenchmarkResult",
    "ChurnEvent",
    "ConcurrencyConfig",
    "ConcurrencyResult",
    "MultiprocessConfig",
    "MultiprocessResult",
    "TimedChurnEvent",
    "build_worker_stack",
    "fork_context",
    "rolling_restart_events",
    "run_benchmark",
    "run_concurrent_benchmark",
    "run_multiprocess_benchmark",
    "start_pages_deployment",
]

#: Smallest clock advance per interaction; keeps time moving even for
#: interactions fully absorbed by idle capacity.
_MIN_TIME_STEP = 1e-5


@dataclass(frozen=True)
class ChurnEvent:
    """One cache-tier membership change during the measurement phase.

    ``action`` is ``"join"`` (a node is added; ``migrate`` selects a warm
    join via live key migration or a cold one), ``"leave"`` (a planned
    removal, drained when ``migrate``), or ``"crash"`` (the node dies
    without warning; failure-aware routing detects and evicts it).  A
    *rolling restart* is expressed as interleaved crash/join pairs per node
    (see :func:`rolling_restart_events`): joining a node whose crash has not
    crossed the failure-detection threshold yet completes the eviction
    first, exactly as an operator restarting a wedged process would.
    """

    at_interaction: int
    action: str  # "join" | "leave" | "crash"
    node: Optional[str] = None
    migrate: bool = True
    weight: float = 1.0


def rolling_restart_events(
    nodes: Sequence[str], start: int, downtime: int, gap: int, migrate: bool = True
) -> List[ChurnEvent]:
    """A rolling-restart schedule: crash then rejoin each node in turn.

    Node ``i`` crashes at ``start + i * gap`` and rejoins (a warm join when
    ``migrate``) ``downtime`` interactions later; ``gap`` must exceed
    ``downtime`` for at most one node to be down at a time.
    """
    if downtime < 1 or gap <= downtime:
        raise ValueError("need gap > downtime >= 1 for a one-at-a-time rolling restart")
    events: List[ChurnEvent] = []
    for index, node in enumerate(nodes):
        offset = start + index * gap
        events.append(ChurnEvent(offset, "crash", node=node))
        events.append(ChurnEvent(offset + downtime, "join", node=node, migrate=migrate))
    return events


@dataclass
class BenchmarkConfig:
    """Parameters of one benchmark run (one point on a figure)."""

    database_config: RubisConfig
    cache_size_bytes: int
    staleness: float = 30.0
    mode: ConsistencyMode = ConsistencyMode.CONSISTENT
    scale: int = 100
    cluster: Optional[ClusterSpec] = None
    cost_parameters: CostParameters = field(default_factory=CostParameters)
    mix: WorkloadMix = field(default_factory=lambda: BIDDING_MIX)
    #: How application servers reach the cache nodes: "inprocess" (direct
    #: calls, the original wiring) or "socket" (real TCP cache servers).
    transport: str = "inprocess"
    #: Copies of each key across the cache tier (1 = the paper's
    #: unreplicated deployment; 2+ makes node crashes lose no cached state).
    replication_factor: int = 1
    sessions: int = 24
    warmup_interactions: int = 2000
    measure_interactions: int = 4000
    housekeeping_every: int = 400
    seed: int = 1
    label: str = ""
    #: Membership changes applied during the measurement phase (node-churn
    #: scenarios); each event fires before its ``at_interaction``-th step.
    churn: Sequence[ChurnEvent] = ()
    #: Interactions per hit-rate sample in ``BenchmarkResult.hit_rate_timeline``
    #: (0 disables the timeline).
    hit_rate_window: int = 0

    def resolved_cluster(self) -> ClusterSpec:
        if self.cluster is not None:
            return self.cluster
        if self.database_config.disk_bound:
            return ClusterSpec.disk_bound_default()
        return ClusterSpec.in_memory_default()


@dataclass
class BenchmarkResult:
    """Outcome of one benchmark run."""

    label: str
    config: BenchmarkConfig
    peak_throughput: float
    hit_rate: float
    miss_fractions: Dict[MissType, float]
    miss_counts: Dict[MissType, int]
    bottleneck: str
    utilization: Dict[str, float]
    interactions: int
    read_write_fraction: float
    demand: InteractionCost
    cache_used_bytes: int
    cache_entry_count: int
    invalidations_published: int
    simulated_seconds: float
    #: Hit rate per ``hit_rate_window`` interactions over the measurement
    #: phase (empty unless the config enables the timeline); this is what a
    #: churn scenario's recovery curve is read from.
    hit_rate_timeline: List[float] = field(default_factory=list)
    #: Elasticity counters (membership epochs, migration, degraded routing).
    membership_epochs: int = 0
    entries_migrated: int = 0
    degraded_lookups: int = 0
    nodes_evicted: int = 0
    #: Replication counters: reads a non-primary replica answered after the
    #: primary failed (and how many of those were hits), plus the entries
    #: anti-entropy repair re-stored after crash evictions.
    replica_served_lookups: int = 0
    replica_hits: int = 0
    entries_re_replicated: int = 0

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.label or 'run'}: {self.peak_throughput:8.1f} req/s  "
            f"hit rate {self.hit_rate:5.1%}  bottleneck {self.bottleneck}"
        )


def run_benchmark(config: BenchmarkConfig) -> BenchmarkResult:
    """Execute one benchmark configuration and return its measurements."""
    for event in config.churn:
        if not 0 <= event.at_interaction < config.measure_interactions:
            raise ValueError(
                f"churn event at interaction {event.at_interaction} falls outside "
                f"the measurement phase [0, {config.measure_interactions}) and "
                "would silently never fire"
            )
    cluster = config.resolved_cluster()
    scaled_db_config = config.database_config.scaled(config.scale)

    clock = ManualClock()
    deployment = TxCacheDeployment(
        clock=clock,
        cache_nodes=cluster.cache_nodes,
        cache_capacity_bytes_per_node=max(1, config.cache_size_bytes // cluster.cache_nodes),
        mode=config.mode,
        default_staleness=config.staleness,
        transport=config.transport,
        replication_factor=config.replication_factor,
    )
    try:
        return _run_on_deployment(config, cluster, scaled_db_config, clock, deployment)
    finally:
        # Networked cache nodes hold sockets and threads; release them even
        # when setup or the workload fails.
        deployment.shutdown()


def _run_on_deployment(
    config: BenchmarkConfig,
    cluster: ClusterSpec,
    scaled_db_config: RubisConfig,
    clock: ManualClock,
    deployment: TxCacheDeployment,
) -> BenchmarkResult:
    create_rubis_schema(deployment.database)
    dataset = populate_database(deployment.database, scaled_db_config, seed=config.seed)

    total_rows = sum(
        table.current_row_count() for table in deployment.database.tables.values()
    )
    cost_model = CostModel(
        parameters=config.cost_parameters,
        disk_bound=scaled_db_config.disk_bound,
        total_rows=total_rows,
    )
    deployment.database.executor.add_observer(cost_model.observe_query)

    client = deployment.client(mode=config.mode, default_staleness=config.staleness)
    app = RubisApp(client, dataset)
    sessions = [
        RubisClientSession(
            app,
            config.mix,
            seed=config.seed * 1000 + i,
            staleness=config.staleness,
            now_fn=clock.now,
        )
        for i in range(config.sessions)
    ]

    def apply_churn(event: ChurnEvent) -> None:
        """Apply one membership change to the running deployment."""
        if event.action == "join":
            name = event.node
            if name is not None and name in deployment.cache.ring:
                # A restart of a crashed node whose failure has not crossed
                # the detection threshold yet (socket transport keeps dead
                # endpoints in the ring until enough traffic fails):
                # complete the eviction first, then rejoin warm.
                process = deployment.cache.processes.get(name)
                dead = name in deployment.cache.suspect_nodes or (
                    process is not None and not process.running
                )
                if not dead:
                    raise ValueError(f"churn join of live member {name!r}")
                deployment.membership.evict(name)
            deployment.add_cache_node(
                name=event.node, weight=event.weight, migrate=event.migrate
            )
        elif event.action == "leave":
            name = event.node or deployment.cache.ring.nodes[-1]
            deployment.remove_cache_node(name, migrate=event.migrate)
        elif event.action == "crash":
            name = event.node or deployment.cache.ring.nodes[-1]
            deployment.cache.fail_node(name)
        else:
            raise ValueError(f"unknown churn action {event.action!r}")

    def run_phase(
        interactions: int,
        churn: Sequence[ChurnEvent] = (),
        timeline: Optional[List[float]] = None,
    ) -> float:
        """Run ``interactions`` steps; returns elapsed simulated seconds."""
        elapsed = 0.0
        pending = sorted(churn, key=lambda event: event.at_interaction)
        window_start: Tuple[int, int] = (client.stats.hits, client.stats.misses)
        for step in range(interactions):
            while pending and pending[0].at_interaction <= step:
                apply_churn(pending.pop(0))
            session = sessions[step % len(sessions)]
            before_hits = client.stats.hits
            before_misses = client.stats.misses
            before_bypassed = client.stats.cache_bypassed_calls
            before_rw = client.stats.rw_transactions
            before_rpcs = client.stats.cache_rpcs

            cost_model.begin_interaction()
            session.step()

            for _ in range(client.stats.hits - before_hits):
                cost_model.charge_cacheable_call(hit=True)
            for _ in range(client.stats.misses - before_misses):
                cost_model.charge_cacheable_call(hit=False)
            for _ in range(client.stats.cache_bypassed_calls - before_bypassed):
                cost_model.charge_bypassed_call()
            cost_model.charge_cache_rpcs(client.stats.cache_rpcs - before_rpcs)
            if client.stats.rw_transactions > before_rw:
                cost_model.charge_update_transaction()
            cost = cost_model.end_interaction()

            # At saturation the system completes one interaction per
            # bottleneck-demand interval, so that is how fast simulated
            # wall-clock time advances.
            step_time = max(
                cost.db / cluster.db_nodes,
                cost.web / cluster.web_nodes,
                cost.cache / cluster.cache_nodes,
                _MIN_TIME_STEP,
            )
            clock.advance(step_time)
            elapsed += step_time

            if (step + 1) % config.housekeeping_every == 0:
                deployment.housekeeping(config.staleness)
            if (
                timeline is not None
                and config.hit_rate_window
                and (step + 1) % config.hit_rate_window == 0
            ):
                hits = client.stats.hits - window_start[0]
                misses = client.stats.misses - window_start[1]
                looked_up = hits + misses
                timeline.append(hits / looked_up if looked_up else 0.0)
                window_start = (client.stats.hits, client.stats.misses)
        return elapsed

    # Warmup: populate the cache, then discard all counters.
    run_phase(config.warmup_interactions)
    cost_model.reset()
    client.stats.reset()
    deployment.cache.reset_stats()
    deployment.database.stats.reset()

    hit_rate_timeline: List[float] = []
    simulated_seconds = run_phase(
        config.measure_interactions,
        churn=config.churn,
        timeline=hit_rate_timeline if config.hit_rate_window else None,
    )

    total_rw = sum(session.read_write_count for session in sessions)
    total_all = sum(
        session.read_write_count + session.read_only_count for session in sessions
    )
    miss_counts = dict(client.stats.misses_by_type)
    return BenchmarkResult(
        label=config.label,
        config=config,
        peak_throughput=cost_model.peak_throughput(cluster),
        hit_rate=client.stats.hit_rate,
        miss_fractions=client.stats.miss_fractions(),
        miss_counts=miss_counts,
        bottleneck=cost_model.bottleneck(cluster),
        utilization=cost_model.utilization_shares(cluster),
        interactions=config.measure_interactions,
        read_write_fraction=total_rw / total_all if total_all else 0.0,
        demand=cost_model.demand_per_interaction(),
        cache_used_bytes=deployment.cache.used_bytes,
        cache_entry_count=deployment.cache.entry_count,
        invalidations_published=deployment.database.stats.invalidations_published,
        simulated_seconds=simulated_seconds,
        hit_rate_timeline=hit_rate_timeline,
        membership_epochs=deployment.membership.epoch,
        entries_migrated=deployment.membership.stats.entries_migrated,
        degraded_lookups=deployment.cache.health.degraded_lookups,
        nodes_evicted=deployment.cache.health.nodes_evicted,
        replica_served_lookups=deployment.cache.health.replica_served_lookups,
        replica_hits=deployment.cache.health.replica_hits,
        entries_re_replicated=deployment.membership.stats.entries_re_replicated,
    )


# ----------------------------------------------------------------------
# Wall-clock concurrency driver
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TimedChurnEvent:
    """One membership change applied while worker threads drive traffic.

    Fires once the fleet has completed ``at_done_fraction`` of the run's
    total interactions: ``"crash"`` kills the node without warning,
    ``"join"`` (re)joins it — a crash/join pair is the concurrent analogue
    of :func:`rolling_restart_events`, exercising failure detection,
    threshold eviction, and warm rejoin *under* live multi-threaded load.
    """

    at_done_fraction: float
    action: str  # "crash" | "join"
    node: Optional[str] = None
    migrate: bool = True


@dataclass
class ConcurrencyConfig:
    """Parameters of one wall-clock concurrency measurement."""

    #: Worker threads; each owns one TxCacheClient (one emulated app server).
    threads: int = 4
    transport: str = "socket"
    cache_nodes: int = 2
    cache_capacity_bytes_per_node: int = 8 * 1024 * 1024
    #: Rows in the hot table the workload reads and updates.
    rows: int = 256
    #: Measured interactions each worker performs.
    interactions_per_thread: int = 400
    #: Fraction of interactions that are update transactions (they bypass
    #: the cache, take the database commit lock, and publish invalidations —
    #: i.e. they exercise every lock the read path can contend on).
    write_fraction: float = 0.05
    staleness: float = 30.0
    replication_factor: int = 1
    #: Modelled LAN round trip per cache RPC (see CacheServerProcess).  On a
    #: loopback interface an RPC is pure CPU and the GIL serializes it, so
    #: the default models the ~0.4 ms round trip of the paper's gigabit
    #: testbed; set to 0 to measure raw loopback.
    simulated_rpc_latency_seconds: float = 4e-4
    #: Membership changes applied mid-run by the coordinator thread.
    churn: Sequence[TimedChurnEvent] = ()
    seed: int = 1
    label: str = ""


@dataclass
class ConcurrencyResult:
    """Outcome of one wall-clock concurrency measurement."""

    label: str
    threads: int
    transport: str
    #: Total measured interactions completed across all workers.
    interactions: int
    wall_seconds: float
    ops_per_second: float
    hit_rate: float
    #: Per-thread client counters merged into one (ClientStats.merge).
    client_stats: ClientStats
    per_thread_interactions: List[int]
    #: Update transactions aborted by a first-committer-wins race with
    #: another worker.  The write is *dropped* (the interaction still counts
    #: toward throughput); a real application server would retry it.
    write_conflicts: int
    degraded_lookups: int
    nodes_evicted: int
    replica_served_lookups: int
    #: Exceptions escaped from workers (always 0 on a healthy run).
    errors: int
    #: The most cache RPCs any one connection had in flight at once, read
    #: off the thread-hosted nodes once they are shut down
    #: (``CacheServerProcess.max_in_flight_per_connection``); 0 without
    #: such nodes.  A count, so "the round trips overlapped" needs no
    #: stopwatch.
    peak_overlapped_rpcs: int = 0

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.label or 'run'}: {self.threads} thread(s) x {self.transport}: "
            f"{self.ops_per_second:8.1f} ops/s  hit rate {self.hit_rate:5.1%}"
        )


class _ConcurrentWorker:
    """One emulated application server: a thread, a client, its own RNG."""

    def __init__(self, config: ConcurrencyConfig, deployment, index: int, barrier):
        self.config = config
        self.deployment = deployment
        self.index = index
        self.barrier = barrier
        #: Per-thread RNG: the op sequence each worker issues is a pure
        #: function of (seed, thread index), so runs are reproducible even
        #: though the cross-thread interleaving is not.
        self.rng = random.Random(config.seed * 1000 + index)
        self.client = deployment.client(default_staleness=config.staleness)
        self.completed = 0
        self.write_conflicts = 0
        self.errors = 0
        client = self.client

        @client.cacheable(name="bench_get_row")
        def get_row(row_id):
            return client.query(Select("pages", Eq("id", row_id))).rows[0]

        self._get_row = get_row
        self.thread = threading.Thread(
            target=self._run, name=f"bench-client-{index}", daemon=True
        )

    def _interaction(self) -> None:
        if self.rng.random() < self.config.write_fraction:
            row_id = self.rng.randrange(self.config.rows)
            try:
                with self.client.read_write():
                    self.client.update(
                        "pages", Eq("id", row_id), {"hits": self.rng.randrange(1 << 30)}
                    )
            except SerializationError:
                # First-committer-wins: another worker updated the same row
                # concurrently.  Real app servers retry; we count and go on.
                self.write_conflicts += 1
            return
        with self.client.read_only(staleness=self.config.staleness):
            for _ in range(self.rng.randint(1, 3)):
                self._get_row(self.rng.randrange(self.config.rows))

    def _run(self) -> None:
        self.barrier.wait()
        for _ in range(self.config.interactions_per_thread):
            try:
                self._interaction()
            except Exception:
                # A worker must never die silently: the run reports errors
                # and the stress tests assert the count is zero.
                self.errors += 1
            self.completed += 1


def run_concurrent_benchmark(config: ConcurrencyConfig) -> ConcurrencyResult:
    """Measure wall-clock throughput of K client threads on one deployment.

    Builds a deployment, loads a hot table, warms the cache with one
    sequential pass, then releases all workers at a barrier and times the
    measured phase end to end.  ``config.churn`` events fire from the
    coordinator thread while the workers run.
    """
    if config.threads < 1:
        raise ValueError("threads must be positive")
    deployment = TxCacheDeployment(
        clock=SystemClock(),
        cache_nodes=config.cache_nodes,
        cache_capacity_bytes_per_node=config.cache_capacity_bytes_per_node,
        transport=config.transport,
        default_staleness=config.staleness,
        replication_factor=config.replication_factor,
        simulated_rpc_latency_seconds=config.simulated_rpc_latency_seconds,
    )
    try:
        deployment.database.create_table(
            TableSchema.build("pages", ["id", "payload", "hits"], primary_key="id")
        )
        deployment.database.bulk_load(
            "pages",
            [
                {"id": i, "payload": "x" * 128, "hits": 0}
                for i in range(config.rows)
            ],
        )

        # Warm sequentially so the measured phase starts from a hot cache
        # (the paper restores a cache snapshot; this plays the same role).
        warm_worker = _ConcurrentWorker(config, deployment, index=9999, barrier=_NoBarrier())
        for row_id in range(config.rows):
            with warm_worker.client.read_only(staleness=config.staleness):
                warm_worker._get_row(row_id)

        barrier = threading.Barrier(config.threads + 1)
        workers = [
            _ConcurrentWorker(config, deployment, index, barrier)
            for index in range(config.threads)
        ]
        for worker in workers:
            worker.thread.start()

        total_target = config.threads * config.interactions_per_thread
        pending_churn = sorted(config.churn, key=lambda event: event.at_done_fraction)

        barrier.wait()
        started = time.perf_counter()
        while any(worker.thread.is_alive() for worker in workers):
            done = sum(worker.completed for worker in workers)
            while pending_churn and done >= pending_churn[0].at_done_fraction * total_target:
                _apply_timed_churn(deployment, pending_churn.pop(0))
            time.sleep(0.001)
        wall = time.perf_counter() - started
        for worker in workers:
            worker.thread.join()
        # Drain events whose threshold was crossed inside the final polling
        # window (fast runs can finish between two 1 ms checks, and an event
        # at fraction 1.0 only fires here).  Firing them late keeps the
        # result's counters honest — a run configured with churn must never
        # silently report a churn-free baseline.
        while pending_churn:
            _apply_timed_churn(deployment, pending_churn.pop(0))

        merged = ClientStats()
        for worker in workers:
            merged += worker.client.stats
        interactions = sum(worker.completed for worker in workers)
        health = deployment.cache.health
        nodes = list(deployment.cache.processes.values())
        result = ConcurrencyResult(
            label=config.label,
            threads=config.threads,
            transport=config.transport,
            interactions=interactions,
            wall_seconds=wall,
            ops_per_second=interactions / wall if wall > 0 else 0.0,
            hit_rate=merged.hit_rate,
            client_stats=merged,
            per_thread_interactions=[worker.completed for worker in workers],
            write_conflicts=sum(worker.write_conflicts for worker in workers),
            degraded_lookups=health.degraded_lookups,
            nodes_evicted=health.nodes_evicted,
            replica_served_lookups=health.replica_served_lookups,
            errors=sum(worker.errors for worker in workers),
        )
    finally:
        deployment.shutdown()
    # Read after shutdown: the node's loop thread is joined, so the count
    # is exact.
    result.peak_overlapped_rpcs = max(
        (getattr(node, "max_in_flight_per_connection", 0) for node in nodes), default=0
    )
    return result


class _NoBarrier:
    """Stand-in barrier for the sequential warmup worker."""

    def wait(self) -> None:
        return None


def _apply_timed_churn(deployment: TxCacheDeployment, event: TimedChurnEvent) -> None:
    """Apply one membership change to a deployment under live traffic.

    Unlike the simulated driver's churn, this runs concurrently with worker
    threads whose failed RPCs drive threshold eviction, so every check-then-
    act here can lose a race: the node observed in the ring may be evicted
    by a worker before the coordinator acts on it.  Losing that race means
    the failure detector already did the job — swallow the KeyError and
    proceed.
    """
    if event.action == "crash":
        name = event.node or deployment.cache.ring.nodes[-1]
        try:
            deployment.cache.fail_node(name)
        except KeyError:
            pass  # a worker's failed RPCs already evicted it
    elif event.action == "join":
        name = event.node
        if name is not None and name in deployment.cache.ring:
            # Rejoin of a crashed node that has not crossed the failure
            # threshold yet: complete the eviction, then rejoin warm (same
            # policy as the simulated driver's churn).
            try:
                deployment.membership.evict(name)
            except KeyError:
                pass  # threshold eviction won the race mid-check
        deployment.add_cache_node(name=name, migrate=event.migrate)
    else:
        raise ValueError(f"unknown timed churn action {event.action!r}")


# ----------------------------------------------------------------------
# Shared bootstrap for the multi-process drivers (closed- and open-loop)
# ----------------------------------------------------------------------
def _pages_rows(rows: int) -> List[dict]:
    """The hot table every multi-process worker replicates identically."""
    return [{"id": i, "payload": "x" * 128, "hits": 0} for i in range(rows)]


def start_pages_deployment(
    *,
    transport: str,
    cache_nodes: int,
    cache_capacity_bytes_per_node: int,
    staleness: float,
    simulated_rpc_latency_seconds: float,
    rows: int,
    cpu_pinning: bool = False,
) -> TxCacheDeployment:
    """Build, load, and warm the networked deployment the forked workers dial.

    Shared by :func:`run_multiprocess_benchmark` and the open-loop runner
    (:mod:`repro.bench.loadgen.runner`): one ``pages`` table, one warmup
    pass so every worker starts from hits (the paper restores a cache
    snapshot; the warmup plays the same role).  The deployment is shut down
    on a bootstrap failure so a broken config never leaks server threads.
    """
    deployment = TxCacheDeployment(
        clock=SystemClock(),
        cache_nodes=cache_nodes,
        cache_capacity_bytes_per_node=cache_capacity_bytes_per_node,
        transport=transport,
        default_staleness=staleness,
        simulated_rpc_latency_seconds=simulated_rpc_latency_seconds,
        cpu_pinning=cpu_pinning,
    )
    try:
        deployment.database.create_table(
            TableSchema.build("pages", ["id", "payload", "hits"], primary_key="id")
        )
        deployment.database.bulk_load("pages", _pages_rows(rows))
        warm_client = deployment.client(default_staleness=staleness)

        @warm_client.cacheable(name="bench_get_row")
        def warm_get_row(row_id):
            return warm_client.query(Select("pages", Eq("id", row_id))).rows[0]

        for row_id in range(rows):
            with warm_client.read_only(staleness=staleness):
                warm_get_row(row_id)
    except BaseException:
        deployment.shutdown()
        raise
    return deployment


def build_worker_stack(
    addresses,
    *,
    transport: str,
    rows: int,
    staleness: float,
    clients: int,
):
    """One forked worker's client-side stack: ``(cluster, client list)``.

    Each worker process owns its own database replica, pincushion, and a
    client-only :class:`~repro.cache.cluster.CacheCluster` dialled at the
    coordinator's cache-node endpoints.  No invalidation bus — the
    multi-process workload is read-only by construction (the reproduction's
    database is an in-process object), so the stream stays silent and every
    replica's identical ``pages`` load keeps the shared cache coherent.
    The caller owns the cluster and must ``close()`` it.
    """
    from repro.cache.cluster import CacheCluster
    from repro.core.api import TxCacheClient
    from repro.db.database import Database
    from repro.pincushion.pincushion import Pincushion

    clock = SystemClock()
    database = Database(clock=clock)
    database.create_table(
        TableSchema.build("pages", ["id", "payload", "hits"], primary_key="id")
    )
    database.bulk_load("pages", _pages_rows(rows))
    cluster = CacheCluster(node_addresses=addresses, transport=transport, clock=clock)
    pincushion = Pincushion(clock=clock, unpin_callback=database.unpin)
    client_list = [
        TxCacheClient(
            database=database,
            cache=cluster,
            pincushion=pincushion,
            clock=clock,
            default_staleness=staleness,
        )
        for _ in range(clients)
    ]
    return cluster, client_list


def fork_context():
    """The multiprocessing context the drivers fork workers with.

    Fork keeps the already-imported interpreter (fast, Linux); spawn is the
    portable fallback — worker entry points and their arguments are
    picklable either way.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else methods[0])


# ----------------------------------------------------------------------
# Multi-process driver (no client GIL in the measurement)
# ----------------------------------------------------------------------
@dataclass
class MultiprocessConfig:
    """Parameters of one multi-process wall-clock measurement.

    The threaded driver above shares one interpreter between all workers,
    so past a point the curve measures the *client* GIL, not the cache
    tier.  This driver forks ``processes`` OS processes: each builds its
    own client-side stack (database replica, pincushion, and a client-only
    :class:`repro.cache.cluster.CacheCluster` dialled at the coordinator's
    cache-node endpoints) and drives ``threads_per_process`` worker threads
    against the *shared* networked cache nodes.  What saturates first is
    therefore the server side: many RPCs in flight on one connection per
    node.

    The workload is read-only by construction: the reproduction's database
    is an in-process object, so a forked worker's writes could not reach
    the other workers' replicas and the shared cache would mix states from
    diverged databases.  Every worker loads the identical ``pages`` table
    (same rows, same commit timestamps), which makes the shared cache
    coherent across processes without a networked database.
    """

    processes: int = 4
    #: Worker threads inside each process; with the modelled LAN round trip
    #: they give each process several RPCs in flight on one connection.
    threads_per_process: int = 4
    #: "socket" (thread-hosted nodes) or "socket-process".
    transport: str = "socket"
    cache_nodes: int = 2
    cache_capacity_bytes_per_node: int = 8 * 1024 * 1024
    rows: int = 256
    #: Measured interactions per worker thread (total = processes x
    #: threads_per_process x this).
    interactions_per_thread: int = 300
    staleness: float = 30.0
    #: Modelled LAN round trip per cache RPC (see CacheServerProcess).
    simulated_rpc_latency_seconds: float = 4e-4
    seed: int = 1
    label: str = ""


@dataclass
class MultiprocessResult:
    """Outcome of one multi-process wall-clock measurement."""

    label: str
    processes: int
    threads_per_process: int
    transport: str
    interactions: int
    wall_seconds: float
    ops_per_second: float
    hit_rate: float
    per_process_interactions: List[int]
    #: Exceptions escaped from worker threads (0 on a healthy run), plus
    #: workers that failed to bootstrap at all.
    errors: int
    #: Counts the thread-hosted nodes kept over the measured phase — what
    #: the wire did, whatever the clock says.  Response frames the nodes
    #: encoded; and (0 for process-hosted nodes) ``sendmsg`` syscalls issued
    #: and the most requests one connection had in flight.
    responses: int = 0
    sendmsg_calls: int = 0
    max_in_flight_per_connection: int = 0

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.label or 'run'}: {self.processes} proc x "
            f"{self.threads_per_process} thr ({self.transport}): "
            f"{self.ops_per_second:8.1f} ops/s  hit rate {self.hit_rate:5.1%}  "
            f"{self.responses} responses in {self.sendmsg_calls} sendmsg, "
            f"<= {self.max_in_flight_per_connection} in flight per connection"
        )


def _multiprocess_worker(index: int, addresses, config: MultiprocessConfig, barrier, queue) -> None:
    """One forked worker: build a client stack, drive threads, report.

    Runs in a child process.  The worker must *always* reach the barrier
    (the coordinator waits on it before starting the clock), so bootstrap
    failures are carried past it and reported through the queue instead of
    deadlocking the run.
    """
    cluster = None
    bootstrap_error: Optional[str] = None
    clients: List = []
    try:
        cluster, clients = build_worker_stack(
            addresses,
            transport=config.transport,
            rows=config.rows,
            staleness=config.staleness,
            clients=config.threads_per_process,
        )
    except Exception as exc:  # noqa: BLE001 - reported via the queue
        bootstrap_error = f"{type(exc).__name__}: {exc}"

    completed = [0] * config.threads_per_process
    errors = [0] * config.threads_per_process

    def run_thread(thread_index: int) -> None:
        client = clients[thread_index]
        rng = random.Random(config.seed * 100_000 + index * 100 + thread_index)

        @client.cacheable(name="bench_get_row")
        def get_row(row_id):
            return client.query(Select("pages", Eq("id", row_id))).rows[0]

        for _ in range(config.interactions_per_thread):
            try:
                with client.read_only(staleness=config.staleness):
                    for _ in range(rng.randint(1, 3)):
                        get_row(rng.randrange(config.rows))
            except Exception:  # noqa: BLE001 - counted, run continues
                errors[thread_index] += 1
            completed[thread_index] += 1

    try:
        barrier.wait(timeout=60)
    except Exception:
        bootstrap_error = bootstrap_error or "coordination barrier broke"
    if bootstrap_error is None:
        threads = [
            threading.Thread(target=run_thread, args=(i,), daemon=True)
            for i in range(config.threads_per_process)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    merged = ClientStats()
    for client in clients:
        merged += client.stats
    queue.put(
        {
            "index": index,
            "completed": sum(completed),
            "hits": merged.hits,
            "misses": merged.misses,
            "errors": sum(errors) + (1 if bootstrap_error else 0),
            "bootstrap_error": bootstrap_error,
        }
    )
    if cluster is not None:
        cluster.close()


def run_multiprocess_benchmark(config: MultiprocessConfig) -> MultiprocessResult:
    """Measure wall-clock throughput of K worker *processes* on one cache tier.

    The coordinator builds the networked deployment, loads and warms it,
    then forks the workers and times the measured phase from the moment the
    start barrier releases to the last worker's report.  Worker results
    travel back over a queue (one message per process); a worker that fails
    to bootstrap reports the failure instead of hanging the barrier.
    """
    if config.processes < 1:
        raise ValueError("processes must be positive")
    if config.threads_per_process < 1:
        raise ValueError("threads_per_process must be positive")
    if config.transport not in ("socket", "socket-process"):
        raise ValueError("multi-process driver requires a socket transport")
    deployment = start_pages_deployment(
        transport=config.transport,
        cache_nodes=config.cache_nodes,
        cache_capacity_bytes_per_node=config.cache_capacity_bytes_per_node,
        staleness=config.staleness,
        simulated_rpc_latency_seconds=config.simulated_rpc_latency_seconds,
        rows=config.rows,
    )
    try:
        addresses = {
            name: process.address
            for name, process in deployment.cache.processes.items()
        }
        context = fork_context()
        barrier = context.Barrier(config.processes + 1)
        queue = context.Queue()
        workers = [
            context.Process(
                target=_multiprocess_worker,
                args=(index, addresses, config, barrier, queue),
                daemon=True,
            )
            for index in range(config.processes)
        ]
        for worker in workers:
            worker.start()
        nodes = list(deployment.cache.processes.values())

        def sendmsg_calls() -> int:
            return sum(getattr(node, "sendmsg_calls", 0) for node in nodes)

        barrier.wait(timeout=120)
        started = time.perf_counter()
        # Warm-up is over and the workers are other processes: from here on
        # every frame this process encodes is a node's response.
        frames_before, sendmsg_before = WIRE_COUNTERS.frames_encoded, sendmsg_calls()
        reports = [queue.get(timeout=600) for _ in workers]
        wall = time.perf_counter() - started
        for worker in workers:
            worker.join(timeout=30)

        interactions = sum(report["completed"] for report in reports)
        hits = sum(report["hits"] for report in reports)
        misses = sum(report["misses"] for report in reports)
        looked_up = hits + misses
        return MultiprocessResult(
            label=config.label,
            processes=config.processes,
            threads_per_process=config.threads_per_process,
            transport=config.transport,
            interactions=interactions,
            wall_seconds=wall,
            ops_per_second=interactions / wall if wall > 0 else 0.0,
            hit_rate=hits / looked_up if looked_up else 0.0,
            per_process_interactions=[
                report["completed"]
                for report in sorted(reports, key=lambda r: r["index"])
            ],
            errors=sum(report["errors"] for report in reports),
            responses=WIRE_COUNTERS.frames_encoded - frames_before,
            sendmsg_calls=sendmsg_calls() - sendmsg_before,
            max_in_flight_per_connection=max(
                getattr(node, "max_in_flight_per_connection", 0) for node in nodes
            ),
        )
    finally:
        deployment.shutdown()

