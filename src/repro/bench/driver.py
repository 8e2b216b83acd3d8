"""The cost-model benchmark driver and the one churn event.

:func:`run_benchmark` reproduces the paper's figures: it runs the RUBiS
workload single-threaded and derives *simulated* peak throughput from the
cost model, so its results are exact, deterministic and
transport-invariant.  Wall-clock experiments run on the open-loop engine
(:func:`repro.bench.loadgen.runner.run_open_loop`), closed-loop when they
measure how fast K workers go.  Both kinds change the cache tier's
membership mid-run with the same :class:`ChurnEvent`, applied by
:func:`apply_churn`.

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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.rubis.app import RubisApp
from repro.apps.rubis.datagen import RubisConfig, populate_database
from repro.apps.rubis.schema import create_rubis_schema
from repro.apps.rubis.workload import BIDDING_MIX, RubisClientSession, WorkloadMix
from repro.bench.costmodel import ClusterSpec, CostModel, CostParameters, InteractionCost
from repro.clock import ManualClock
from repro.core.api import ConsistencyMode
from repro.core.stats import MissType
from repro.deployment import TxCacheDeployment

__all__ = [
    "BenchmarkConfig",
    "BenchmarkResult",
    "ChurnEvent",
    "apply_churn",
    "check_churn_window",
    "rolling_restart_events",
    "run_benchmark",
]

#: Interactions between two ``deployment.housekeeping`` rounds of a run.
HOUSEKEEPING_EVERY = 400

#: Smallest clock advance per interaction; keeps time moving even for
#: interactions fully absorbed by idle capacity.
_MIN_TIME_STEP = 1e-5


@dataclass(frozen=True)
class ChurnEvent:
    """One cache-tier membership change, fired before interaction ``at_interaction``.

    ``action`` is ``"join"`` (a node is added; ``migrate`` selects a warm
    join via live key migration or a cold one) or ``"crash"`` (the node
    dies without warning; the routing threshold evicts it once enough calls
    to it fail).  A *rolling restart* is expressed as interleaved
    crash/join pairs per node (see :func:`rolling_restart_events`): joining
    a node whose crash the threshold has not evicted yet probes it until
    it does, as an operator restarting a wedged process would first
    confirm it is down.

    :func:`run_benchmark` counts interactions of its measurement phase; a
    threaded wall-clock run counts the operation indices its workers claim
    (the event fires inside the worker that claims ``at_interaction``).
    """

    at_interaction: int
    action: str  # "join" | "crash"
    node: Optional[str] = None
    migrate: bool = True


def check_churn_window(churn: Sequence[ChurnEvent], total: int) -> None:
    """Refuse an event that would never fire in a run of ``total`` interactions."""
    for event in churn:
        if not 0 <= event.at_interaction < total:
            raise ValueError(
                f"churn event at interaction {event.at_interaction} falls outside "
                f"the measurement phase [0, {total}) and would silently never fire"
            )


def apply_churn(deployment: TxCacheDeployment, event: ChurnEvent) -> None:
    """Apply one membership change to a running deployment.

    A join of a crashed node that is still in the ring (no traffic may have
    reached it yet) first probes it with :meth:`CacheCluster.probe_node`
    until the routing threshold evicts it: at most ``failure_threshold``
    probes, fewer when worker threads' failed calls got there first.  A
    member that answers a probe is live, and joining it is a
    ``ValueError``.
    """
    if event.action == "join":
        name = event.node
        cluster = deployment.cache
        if name is not None:
            for _ in range(cluster.failure_threshold):
                if name not in cluster.transports:
                    break
                if cluster.probe_node(name):
                    raise ValueError(f"churn join of live member {name!r}")
        deployment.add_cache_node(name=name, migrate=event.migrate)
    elif event.action == "crash":
        name = event.node or deployment.cache.ring.nodes[-1]
        deployment.cache.fail_node(name)
    else:
        raise ValueError(f"unknown churn action {event.action!r}")


def rolling_restart_events(
    nodes: Sequence[str], start: int, downtime: int, gap: int
) -> List[ChurnEvent]:
    """A rolling-restart schedule: crash then rejoin each node in turn.

    Node ``i`` crashes at ``start + i * gap`` and warm-rejoins ``downtime``
    interactions later; ``gap`` must exceed ``downtime`` for at most one
    node to be down at a time.
    """
    if downtime < 1 or gap <= downtime:
        raise ValueError("need gap > downtime >= 1 for a one-at-a-time rolling restart")
    events: List[ChurnEvent] = []
    for index, node in enumerate(nodes):
        offset = start + index * gap
        events.append(ChurnEvent(offset, "crash", node=node))
        events.append(ChurnEvent(offset + downtime, "join", node=node))
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
    check_churn_window(config.churn, config.measure_interactions)
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
                apply_churn(deployment, pending.pop(0))
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

            if (step + 1) % HOUSEKEEPING_EVERY == 0:
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
