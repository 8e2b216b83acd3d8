"""Reproductions of every figure and table in the paper's evaluation (§8).

Each function runs the corresponding experiment and returns a structured
result with a ``format_table()`` method printing the same rows or series the
paper reports:

* :func:`figure5` — peak throughput vs cache size (Figure 5a: in-memory
  database with "No consistency", TxCache, and "No caching" lines;
  Figure 5b: disk-bound database with TxCache and "No caching").
* :func:`figure6` — cache hit rate vs cache size (Figures 6a and 6b; the
  data comes from the same runs as Figure 5).
* :func:`figure7` — peak throughput vs staleness limit, relative to the
  no-caching baseline (Figure 7).
* :func:`figure8` — breakdown of cache misses by type for four
  configurations (the table in Figure 8).
* :func:`validity_tracking_overhead` — the §8.1 observation that the
  database modifications (validity tracking + invalidation tags) have
  negligible overhead compared to a stock database.
* :func:`churn` — beyond the paper's static cache tier: hit-rate timelines
  through a node join, a crash or a rolling restart (:data:`CHURN_SCHEDULES`).

Scaling: the paper's cache sizes are given in MB/GB against an 850 MB /
6 GB database.  The reproduction scales the dataset down by
``BenchmarkConfig.scale`` (default 100×) and maps the paper's cache-size
labels onto proportionally small byte budgets (`CACHE_BYTES_PER_PAPER_MB`),
preserving the ratio of cache size to working set, which is what shapes the
curves.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.rubis.datagen import DISK_BOUND_CONFIG, IN_MEMORY_CONFIG, RubisConfig
from repro.apps.rubis.schema import create_rubis_schema
from repro.apps.rubis.datagen import populate_database
from repro.bench.costmodel import ClusterSpec
from repro.bench.driver import (
    BenchmarkConfig,
    BenchmarkResult,
    ChurnEvent,
    apply_churn,
    check_churn_window,
    rolling_restart_events,
    run_benchmark,
)
from repro.bench.loadgen import ArrivalSchedule, OpenLoopStats, run_open_loop
from repro.bench.loadgen.runner import start_pages_deployment
from repro.bench.report import format_table
from repro.clock import ManualClock
from repro.core.stats import MissType
from repro.db.database import Database
from repro.db.errors import SerializationError
from repro.db.query import Eq, Select
from repro.db.schema import TableSchema

__all__ = [
    "ExperimentSettings",
    "Figure5Result",
    "Figure7Result",
    "Figure8Result",
    "OverheadResult",
    "ChurnResult",
    "ConcurrentClientsResult",
    "ThreadedPoint",
    "ChaosOpenLoopResult",
    "ChaosOpenLoopRun",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "churn",
    "concurrent_clients",
    "run_threaded_point",
    "chaos_openloop",
    "validity_tracking_overhead",
    "PAPER_IN_MEMORY_CACHE_MB",
    "PAPER_DISK_BOUND_CACHE_GB",
    "CHURN_SCHEDULES",
]

#: Bytes of simulated cache per "paper megabyte" of cache (in-memory
#: configuration).  The dataset is scaled down ~100x and Python object
#: overhead differs from memcached's, so this constant maps the paper's
#: x-axis labels onto budgets spanning the same range relative to the scaled
#: working set: the knee of the curve falls around the 512-768MB labels, as
#: in Figure 5(a)/6(a).
CACHE_BYTES_PER_PAPER_MB = 768

#: Mapping of the disk-bound configuration's 1-9 GB x-axis onto simulated
#: bytes: ``base + GB * slope``, calibrated so the smallest point already
#: covers the hot set (speedup > 1, as in the paper) while the sweep keeps
#: rising towards the workload's touched footprint, as in Figure 5(b).
CACHE_BYTES_DISK_BASE = 288 * 1024
CACHE_BYTES_PER_PAPER_GB_DISK = 96 * 1024

#: Cache sizes (in paper MB) used for Figure 5(a)/6(a).
PAPER_IN_MEMORY_CACHE_MB = [64, 256, 512, 768, 1024]

#: Cache sizes (in paper GB) used for Figure 5(b)/6(b).
PAPER_DISK_BOUND_CACHE_GB = [1, 2, 3, 4, 5, 6, 7, 8, 9]

#: Staleness limits (seconds) swept in Figure 7.
FIGURE7_STALENESS_LIMITS = [1, 5, 10, 20, 30, 60, 90, 120]


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs controlling how long the experiments take.

    ``quick`` settings finish in tens of seconds and are used by the pytest
    benchmarks; ``full()`` settings run more interactions and more points for
    smoother curves.
    """

    scale: int = 100
    sessions: int = 16
    warmup_interactions: int = 1200
    measure_interactions: int = 2500
    seed: int = 1

    @staticmethod
    def quick() -> "ExperimentSettings":
        return ExperimentSettings(
            scale=150, sessions=12, warmup_interactions=700, measure_interactions=1200
        )

    @staticmethod
    def full() -> "ExperimentSettings":
        return ExperimentSettings(
            scale=60, sessions=24, warmup_interactions=3000, measure_interactions=6000
        )

    def config(
        self,
        database_config: RubisConfig,
        cache_size_bytes: int,
        staleness: float = 30.0,
        mode=None,
        label: str = "",
    ) -> BenchmarkConfig:
        from repro.core.api import ConsistencyMode

        return BenchmarkConfig(
            database_config=database_config,
            cache_size_bytes=cache_size_bytes,
            staleness=staleness,
            mode=mode if mode is not None else ConsistencyMode.CONSISTENT,
            scale=self.scale,
            sessions=self.sessions,
            warmup_interactions=self.warmup_interactions,
            measure_interactions=self.measure_interactions,
            seed=self.seed,
            label=label,
        )


def _cache_bytes(paper_mb: float) -> int:
    """Simulated cache bytes for an in-memory-configuration label in MB."""
    return max(16 * 1024, int(paper_mb * CACHE_BYTES_PER_PAPER_MB))


def _disk_cache_bytes(paper_gb: float) -> int:
    """Simulated cache bytes for a disk-bound-configuration label in GB."""
    return int(CACHE_BYTES_DISK_BASE + paper_gb * CACHE_BYTES_PER_PAPER_GB_DISK)


# ----------------------------------------------------------------------
# Figures 5 and 6: cache size sweeps
# ----------------------------------------------------------------------
@dataclass
class Figure5Result:
    """Throughput and hit rate versus cache size for one database config."""

    configuration: str
    cache_labels: List[str]
    baseline_throughput: float
    txcache: List[BenchmarkResult]
    no_consistency: List[Optional[BenchmarkResult]]
    elapsed_seconds: float = 0.0

    @property
    def speedups(self) -> List[float]:
        """TxCache speedup over the no-caching baseline, per cache size."""
        return [r.peak_throughput / self.baseline_throughput for r in self.txcache]

    @property
    def hit_rates(self) -> List[float]:
        return [r.hit_rate for r in self.txcache]

    def format_table(self) -> str:
        rows = []
        for index, label in enumerate(self.cache_labels):
            no_cons = self.no_consistency[index]
            rows.append(
                [
                    label,
                    f"{self.txcache[index].peak_throughput:,.1f}",
                    f"{no_cons.peak_throughput:,.1f}" if no_cons else "-",
                    f"{self.baseline_throughput:,.1f}",
                    f"{self.speedups[index]:.2f}x",
                    f"{self.txcache[index].hit_rate:.1%}",
                ]
            )
        return format_table(
            ["cache size", "TxCache req/s", "No consistency", "No caching", "speedup", "hit rate"],
            rows,
            title=f"Figure 5/6 ({self.configuration} database, 30 s staleness)",
        )

    def format_hit_rate_table(self) -> str:
        rows = [
            [label, f"{result.hit_rate:.1%}"]
            for label, result in zip(self.cache_labels, self.txcache)
        ]
        return format_table(
            ["cache size", "hit rate"],
            rows,
            title=f"Figure 6 ({self.configuration} database)",
        )


def figure5(
    configuration: str = "in-memory",
    settings: Optional[ExperimentSettings] = None,
    cache_points: Optional[Sequence[float]] = None,
    include_no_consistency: Optional[bool] = None,
    staleness: float = 30.0,
) -> Figure5Result:
    """Reproduce Figure 5 (and the data behind Figure 6) for one database.

    ``configuration`` is ``"in-memory"`` or ``"disk-bound"``.  The paper
    plots the "No consistency" variant only for the in-memory database, which
    is the default behaviour here as well.
    """
    from repro.core.api import ConsistencyMode

    settings = settings or ExperimentSettings.quick()
    started = time.time()
    if configuration == "in-memory":
        db_config = IN_MEMORY_CONFIG
        points = list(cache_points) if cache_points is not None else list(PAPER_IN_MEMORY_CACHE_MB)
        labels = [f"{int(p)}MB" for p in points]
        sizes = [_cache_bytes(p) for p in points]
        if include_no_consistency is None:
            include_no_consistency = True
    elif configuration == "disk-bound":
        db_config = DISK_BOUND_CONFIG
        points = list(cache_points) if cache_points is not None else list(PAPER_DISK_BOUND_CACHE_GB)
        labels = [f"{int(p)}GB" for p in points]
        sizes = [_disk_cache_bytes(p) for p in points]
        if include_no_consistency is None:
            include_no_consistency = False
    else:
        raise ValueError(f"unknown configuration {configuration!r}")

    baseline = run_benchmark(
        settings.config(
            db_config,
            cache_size_bytes=sizes[-1],
            staleness=staleness,
            mode=ConsistencyMode.NO_CACHE,
            label=f"{configuration}-no-caching",
        )
    )

    txcache_results: List[BenchmarkResult] = []
    no_consistency_results: List[Optional[BenchmarkResult]] = []
    for label, size in zip(labels, sizes):
        txcache_results.append(
            run_benchmark(
                settings.config(
                    db_config,
                    cache_size_bytes=size,
                    staleness=staleness,
                    mode=ConsistencyMode.CONSISTENT,
                    label=f"{configuration}-txcache-{label}",
                )
            )
        )
        if include_no_consistency:
            no_consistency_results.append(
                run_benchmark(
                    settings.config(
                        db_config,
                        cache_size_bytes=size,
                        staleness=staleness,
                        mode=ConsistencyMode.NO_CONSISTENCY,
                        label=f"{configuration}-noconsistency-{label}",
                    )
                )
            )
        else:
            no_consistency_results.append(None)

    return Figure5Result(
        configuration=configuration,
        cache_labels=labels,
        baseline_throughput=baseline.peak_throughput,
        txcache=txcache_results,
        no_consistency=no_consistency_results,
        elapsed_seconds=time.time() - started,
    )


def figure6(
    configuration: str = "in-memory",
    settings: Optional[ExperimentSettings] = None,
    cache_points: Optional[Sequence[float]] = None,
) -> Figure5Result:
    """Reproduce Figure 6 (hit rate vs cache size).

    The hit-rate data comes from the same runs as Figure 5; this function
    simply runs the sweep without the "No consistency" variant and presents
    the hit-rate view.
    """
    return figure5(
        configuration=configuration,
        settings=settings,
        cache_points=cache_points,
        include_no_consistency=False,
    )


# ----------------------------------------------------------------------
# Figure 7: staleness sweep
# ----------------------------------------------------------------------
@dataclass
class Figure7Result:
    """Relative throughput versus staleness limit."""

    staleness_limits: List[float]
    in_memory_relative: List[float]
    disk_bound_relative: List[float]
    in_memory_baseline: float
    disk_bound_baseline: float
    elapsed_seconds: float = 0.0

    def format_table(self) -> str:
        rows = []
        for index, limit in enumerate(self.staleness_limits):
            rows.append(
                [
                    f"{limit:g}s",
                    f"{self.in_memory_relative[index]:.2f}x",
                    f"{self.disk_bound_relative[index]:.2f}x",
                ]
            )
        return format_table(
            ["staleness limit", "in-memory (512MB cache)", "disk-bound (9GB cache)"],
            rows,
            title="Figure 7: relative throughput vs staleness limit (baseline = no caching = 1.0x)",
        )


def figure7(
    settings: Optional[ExperimentSettings] = None,
    staleness_limits: Optional[Sequence[float]] = None,
    include_disk_bound: bool = True,
) -> Figure7Result:
    """Reproduce Figure 7: peak throughput as the staleness limit varies."""
    from repro.core.api import ConsistencyMode

    settings = settings or ExperimentSettings.quick()
    started = time.time()
    limits = list(staleness_limits) if staleness_limits is not None else list(FIGURE7_STALENESS_LIMITS)

    in_memory_baseline = run_benchmark(
        settings.config(
            IN_MEMORY_CONFIG,
            cache_size_bytes=_cache_bytes(512),
            mode=ConsistencyMode.NO_CACHE,
            label="fig7-in-memory-baseline",
        )
    ).peak_throughput
    disk_baseline = 0.0
    if include_disk_bound:
        disk_baseline = run_benchmark(
            settings.config(
                DISK_BOUND_CONFIG,
                cache_size_bytes=_disk_cache_bytes(9),
                mode=ConsistencyMode.NO_CACHE,
                label="fig7-disk-baseline",
            )
        ).peak_throughput

    in_memory_relative: List[float] = []
    disk_relative: List[float] = []
    for limit in limits:
        result = run_benchmark(
            settings.config(
                IN_MEMORY_CONFIG,
                cache_size_bytes=_cache_bytes(512),
                staleness=limit,
                label=f"fig7-in-memory-{limit}s",
            )
        )
        in_memory_relative.append(result.peak_throughput / in_memory_baseline)
        if include_disk_bound:
            disk_result = run_benchmark(
                settings.config(
                    DISK_BOUND_CONFIG,
                    cache_size_bytes=_disk_cache_bytes(9),
                    staleness=limit,
                    label=f"fig7-disk-{limit}s",
                )
            )
            disk_relative.append(disk_result.peak_throughput / disk_baseline)
        else:
            disk_relative.append(float("nan"))

    return Figure7Result(
        staleness_limits=[float(limit) for limit in limits],
        in_memory_relative=in_memory_relative,
        disk_bound_relative=disk_relative,
        in_memory_baseline=in_memory_baseline,
        disk_bound_baseline=disk_baseline,
        elapsed_seconds=time.time() - started,
    )


# ----------------------------------------------------------------------
# Figure 8: miss breakdown
# ----------------------------------------------------------------------
@dataclass
class Figure8Result:
    """Breakdown of cache misses by type for several configurations."""

    columns: List[str]
    breakdowns: List[Dict[MissType, float]]
    hit_rates: List[float]
    elapsed_seconds: float = 0.0

    def format_table(self) -> str:
        rows = []
        for miss_type, label in (
            (MissType.COMPULSORY, "Compulsory"),
            (MissType.STALE_OR_CAPACITY, "Stale / Cap."),
            (MissType.CONSISTENCY, "Consistency"),
        ):
            rows.append(
                [label] + [f"{breakdown[miss_type]:.1%}" for breakdown in self.breakdowns]
            )
        return format_table(
            ["miss type"] + self.columns,
            rows,
            title="Figure 8: breakdown of cache misses by type (percent of total misses)",
        )


def figure8(settings: Optional[ExperimentSettings] = None) -> Figure8Result:
    """Reproduce Figure 8: miss-type breakdown for four configurations."""
    settings = settings or ExperimentSettings.quick()
    started = time.time()
    configurations: List[Tuple[str, RubisConfig, int, float]] = [
        ("in-mem 512MB / 30s", IN_MEMORY_CONFIG, _cache_bytes(512), 30.0),
        ("in-mem 512MB / 15s", IN_MEMORY_CONFIG, _cache_bytes(512), 15.0),
        ("in-mem 64MB / 30s", IN_MEMORY_CONFIG, _cache_bytes(64), 30.0),
        ("disk 9GB / 30s", DISK_BOUND_CONFIG, _disk_cache_bytes(9), 30.0),
    ]
    columns: List[str] = []
    breakdowns: List[Dict[MissType, float]] = []
    hit_rates: List[float] = []
    for label, db_config, cache_bytes, staleness in configurations:
        result = run_benchmark(
            settings.config(
                db_config,
                cache_size_bytes=cache_bytes,
                staleness=staleness,
                label=f"fig8-{label}",
            )
        )
        columns.append(label)
        breakdowns.append(result.miss_fractions)
        hit_rates.append(result.hit_rate)
    return Figure8Result(
        columns=columns,
        breakdowns=breakdowns,
        hit_rates=hit_rates,
        elapsed_seconds=time.time() - started,
    )


# ----------------------------------------------------------------------
# Churn: cache-tier elasticity (beyond the paper's static deployment)
# ----------------------------------------------------------------------
def _churn_at(measure: int) -> int:
    """The measured interaction a single join or crash fires at."""
    return max(1, int(measure * 0.35))


def _restart_each_node(measure: int, nodes: List[str]) -> List[ChurnEvent]:
    gap = max(2, measure // 4)
    return rolling_restart_events(
        nodes, start=max(1, measure // 4), downtime=max(1, gap // 3), gap=gap
    )


#: One row per :func:`churn` schedule: cache MB per copy (a run at
#: replication R provisions R× memory, so replicated-vs-not comparisons
#: isolate availability, not capacity), interactions per hit-rate window,
#: the schedule's events given the measured interactions and the initial
#: node names, and the runs as ``(label, replication factor, a join
#: migrates)``.  The first run is the undisturbed baseline: it fires no
#: event.
CHURN_SCHEDULES = {
    "join": (
        512,
        150,
        lambda measure, nodes: [ChurnEvent(_churn_at(measure), "join")],
        (("baseline", 1, True), ("join + migration", 1, True), ("join, cold", 1, False)),
    ),
    "crash": (
        768,
        150,
        lambda measure, nodes: [ChurnEvent(_churn_at(measure), "crash")],
        (("baseline", 2, True), ("crash, R=2", 2, True), ("crash, unreplicated", 1, True)),
    ),
    "rolling-restart": (
        768,
        100,
        _restart_each_node,
        (("baseline", 2, True), ("replicated", 2, True), ("unreplicated", 1, True)),
    ),
}


@dataclass
class ChurnResult:
    """Hit-rate timelines of one churn schedule: a baseline and two variants.

    ``runs`` maps each run's label to its result, baseline first; every
    run samples its hit rate once per ``window`` measured interactions.
    """

    schedule: str
    window: int
    events: List[ChurnEvent]
    runs: Dict[str, BenchmarkResult]

    def _windows_from_first_event(self, label: str) -> List[float]:
        start = min(event.at_interaction for event in self.events) // self.window
        return self.runs[label].hit_rate_timeline[start:]

    def trough(self, label: str) -> float:
        """Worst window hit rate from the one holding the first event on."""
        windows = self._windows_from_first_event(label)
        return min(windows) if windows else 0.0

    def recovered(self, label: str) -> float:
        """Mean hit rate over the second half of those windows."""
        windows = self._windows_from_first_event(label)
        tail = windows[len(windows) // 2 :]
        return sum(tail) / len(tail) if tail else 0.0

    def format_table(self) -> str:
        rows = [
            [
                label,
                f"{result.hit_rate:.1%}",
                f"{self.trough(label):.1%}",
                f"{self.recovered(label):.1%}",
                f"{result.membership_epochs}",
                f"{result.entries_migrated}",
                f"{result.replica_hits}",
                f"{result.degraded_lookups}",
                f"{result.nodes_evicted}",
            ]
            for label, result in self.runs.items()
        ]
        events = ", ".join(
            f"{event.action}{' ' + event.node if event.node else ''} at {event.at_interaction}"
            for event in self.events
        )
        return format_table(
            [
                "run",
                "hit rate",
                "trough",
                "recovered",
                "epochs",
                "migrated",
                "replica hits",
                "degraded",
                "evicted",
            ],
            rows,
            title=(
                f"Churn '{self.schedule}': {events} "
                f"(hit rate per {self.window}-interaction window)"
            ),
        )


def churn(schedule: str, settings: Optional[ExperimentSettings] = None) -> ChurnResult:
    """Run one churn schedule of :data:`CHURN_SCHEDULES` on the cost-model driver.

    * ``"join"``: a node joins 35 % of the way through the measurement.
      With live migration the remapped slice arrives warm and the hit rate
      stays near the baseline; a cold join shows a miss trough that only
      traffic refills.
    * ``"crash"``: a node dies without warning at the same point.  With
      R = 2 every key has a live copy on a ring successor, reads fail
      over, and the timeline stays near the baseline; unreplicated, the
      dead node's slice is gone and the timeline dips.
    * ``"rolling-restart"``: every node crashes and warm-rejoins in turn,
      one at a time.  Replication covers each downtime window, and each
      warm rejoin migrates the node's slice back.
    """
    if schedule not in CHURN_SCHEDULES:
        raise ValueError(
            f"unknown churn schedule {schedule!r}; "
            f"expected one of {', '.join(map(repr, CHURN_SCHEDULES))}"
        )
    cache_mb, window, make_events, run_specs = CHURN_SCHEDULES[schedule]
    settings = settings or ExperimentSettings.quick()
    # The initial ring is always cache0..cacheN-1 of the driver's cluster.
    node_count = ClusterSpec.in_memory_default().cache_nodes
    events = make_events(settings.measure_interactions, [f"cache{i}" for i in range(node_count)])
    runs: Dict[str, BenchmarkResult] = {}
    for index, (label, replication, migrate) in enumerate(run_specs):
        cfg = settings.config(
            IN_MEMORY_CONFIG,
            cache_size_bytes=_cache_bytes(cache_mb) * replication,
            label=f"churn-{schedule}: {label}",
        )
        cfg.replication_factor = replication
        cfg.churn = tuple(
            event if migrate else replace(event, migrate=False)
            for event in (events if index else ())
        )
        cfg.hit_rate_window = window
        runs[label] = run_benchmark(cfg)
    return ChurnResult(schedule=schedule, window=window, events=events, runs=runs)


# ----------------------------------------------------------------------
# Concurrent clients: throughput-vs-threads scaling (wall clock)
# ----------------------------------------------------------------------
#: Rows in the threaded points' hot ``pages`` table.
_THREADED_ROWS = 256


@dataclass
class ThreadedPoint:
    """One closed-loop run of K client threads on one deployment."""

    label: str
    threads: int
    transport: str
    #: Interactions that completed without an error.
    interactions: int
    wall_seconds: float
    ops_per_second: float
    hit_rate: float
    #: Update transactions aborted by a first-committer-wins race with
    #: another worker.  The write is *dropped* (the interaction still counts
    #: toward throughput); a real application server would retry it.
    write_conflicts: int
    degraded_lookups: int
    nodes_evicted: int
    #: Interactions that raised (always 0 on a healthy run).
    errors: int
    #: The most cache RPCs any one connection had in flight at once, read
    #: off the thread-hosted nodes once they are shut down
    #: (``CacheServerProcess.max_in_flight_per_connection``); 0 without
    #: such nodes.  A count, so "the round trips overlapped" needs no
    #: stopwatch.
    max_in_flight_per_connection: int = 0


def run_threaded_point(
    threads: int,
    transport: str,
    total: int,
    *,
    churn: Sequence[ChurnEvent] = (),
    replication_factor: int = 1,
    simulated_rpc_latency_seconds: float = 4e-4,
    write_fraction: float = 0.05,
    seed: int = 1,
    label: str = "",
) -> ThreadedPoint:
    """Drive ``total`` interactions from ``threads`` client threads, closed-loop.

    A fresh ``pages`` deployment (:func:`start_pages_deployment`, warmed)
    and :func:`run_open_loop` in ``"closed"`` mode.  Each thread owns one
    :class:`~repro.core.api.TxCacheClient` (one emulated application server,
    the paper's topology) and an RNG seeded ``seed * 1000 + index``: a
    ``write_fraction`` of its interactions update one row (a
    :class:`SerializationError` counts as a write conflict), the rest read
    1-3 rows through ``bench_get_row`` in one read-only transaction.  A
    ``churn`` event fires, in order and under a lock, inside the thread that
    claims operation index ``at_interaction``.
    """
    check_churn_window(churn, total)
    deployment = start_pages_deployment(
        transport=transport,
        cache_nodes=2,
        cache_capacity_bytes_per_node=8 * 1024 * 1024,
        staleness=30.0,  # every client's read-only transactions use it
        simulated_rpc_latency_seconds=simulated_rpc_latency_seconds,
        rows=_THREADED_ROWS,
        replication_factor=replication_factor,
    )
    events = tuple(sorted(churn, key=lambda event: event.at_interaction))
    fired = [0]  # events[:fired[0]] have been applied
    churn_lock = threading.Lock()
    clients = []
    write_conflicts = [0] * threads

    def due(op_index: int) -> bool:
        return fired[0] < len(events) and events[fired[0]].at_interaction <= op_index

    def fire_churn(op_index: int) -> None:
        with churn_lock:
            while due(op_index):
                event = events[fired[0]]
                fired[0] += 1
                apply_churn(deployment, event)

    def make_executor(thread_index: int):
        rng = random.Random(seed * 1000 + thread_index)
        client = deployment.client()
        clients.append(client)

        @client.cacheable(name="bench_get_row")
        def get_row(row_id):
            return client.query(Select("pages", Eq("id", row_id))).rows[0]

        def execute(op_index: int) -> None:
            if due(op_index):
                fire_churn(op_index)
            if rng.random() < write_fraction:
                row_id = rng.randrange(_THREADED_ROWS)
                try:
                    with client.read_write():
                        client.update(
                            "pages", Eq("id", row_id), {"hits": rng.randrange(1 << 30)}
                        )
                except SerializationError:
                    # First-committer-wins: another worker updated the same
                    # row concurrently.  Real app servers retry; we count.
                    write_conflicts[thread_index] += 1
                return
            with client.read_only():
                for _ in range(rng.randint(1, 3)):
                    get_row(rng.randrange(_THREADED_ROWS))

        return execute

    try:
        stats = run_open_loop([0.0] * total, make_executor, threads=threads, mode="closed")
        nodes = list(deployment.cache.processes.values())
        health = deployment.cache.health
        hits = sum(client.stats.hits for client in clients)
        lookups = sum(client.stats.lookups for client in clients)
    finally:
        deployment.shutdown()
    return ThreadedPoint(
        label=label,
        threads=threads,
        transport=transport,
        interactions=stats.completed,
        wall_seconds=stats.wall_seconds,
        ops_per_second=stats.achieved_rate,
        hit_rate=hits / lookups if lookups else 0.0,
        write_conflicts=sum(write_conflicts),
        degraded_lookups=health.degraded_lookups,
        nodes_evicted=health.nodes_evicted,
        errors=stats.errors,
        # Read after shutdown: the node's loop thread is joined, so the
        # count is exact.
        max_in_flight_per_connection=max(
            (getattr(node, "max_in_flight_per_connection", 0) for node in nodes),
            default=0,
        ),
    )


@dataclass
class ConcurrentClientsResult:
    """Wall-clock throughput as worker threads are added, per transport.

    ``results[transport]`` holds one :class:`ThreadedPoint` per entry of
    ``thread_counts``.  The socket transport should scale: each worker keeps
    an RPC in flight on the one connection per node, so modelled network
    time overlaps.  The in-process transport stays flat on CPython — every cache
    call is pure Python under the GIL, which is itself a finding this
    experiment documents (the scaling lives in the transport, not the GIL).
    """

    thread_counts: List[int]
    results: Dict[str, List[ThreadedPoint]]
    elapsed_seconds: float = 0.0

    def scaling(self, transport: str) -> List[float]:
        """Throughput relative to the 1-thread run of the same transport."""
        series = self.results[transport]
        base = series[0].ops_per_second or 1.0
        return [result.ops_per_second / base for result in series]

    def format_table(self) -> str:
        rows = []
        for transport, series in self.results.items():
            scaling = self.scaling(transport)
            for index, result in enumerate(series):
                rows.append(
                    [
                        transport,
                        f"{result.threads}",
                        f"{result.ops_per_second:,.0f}",
                        f"{scaling[index]:.2f}x",
                        f"{result.hit_rate:.1%}",
                        f"{result.write_conflicts}",
                    ]
                )
        return format_table(
            ["transport", "threads", "ops/sec", "scaling", "hit rate", "write conflicts"],
            rows,
            title="Concurrent clients: wall-clock throughput vs worker threads",
        )


def concurrent_clients(
    thread_counts: Sequence[int] = (1, 2, 4, 8),
    transports: Sequence[str] = ("inprocess", "socket"),
    interactions_per_thread: int = 400,
    simulated_rpc_latency_seconds: float = 4e-4,
    write_fraction: float = 0.05,
    seed: int = 1,
) -> ConcurrentClientsResult:
    """Measure the throughput-vs-threads scaling curve under both transports.

    Each point (:func:`run_threaded_point`) builds a fresh deployment and
    drives ``threads * interactions_per_thread`` interactions from K
    worker threads.  The socket points model the paper's LAN round trip
    (``simulated_rpc_latency_seconds``) so there is network time for
    concurrent requests to overlap — on a bare loopback a single Python
    thread already saturates one core and no transport could scale.
    """
    started = time.time()
    results: Dict[str, List[ThreadedPoint]] = {}
    for transport in transports:
        results[transport] = [
            run_threaded_point(
                threads,
                transport,
                threads * interactions_per_thread,
                write_fraction=write_fraction,
                simulated_rpc_latency_seconds=simulated_rpc_latency_seconds,
                seed=seed,
                label=f"concurrent-{transport}-{threads}t",
            )
            for threads in thread_counts
        ]
    return ConcurrentClientsResult(
        thread_counts=list(thread_counts),
        results=results,
        elapsed_seconds=time.time() - started,
    )


# ----------------------------------------------------------------------
# Chaos recovery: SIGKILL a node mid-run, supervisor on vs off
# ----------------------------------------------------------------------
@dataclass
class ChaosOpenLoopRun:
    """One measured scenario of :func:`chaos_openloop`."""

    label: str
    stats: OpenLoopStats
    #: Hit rate over the samples completed before the kill fired.
    baseline_hit_rate: float
    #: Kill → first bin whose hit rate is back to >= 90% of baseline
    #: (negative: never restored within the run).
    recovery_seconds: float
    #: Total width of post-kill bins whose service p99 exceeded 3x the
    #: pre-kill service p99 — how long the tail stayed visibly disturbed.
    p99_spike_seconds: float
    #: Hit rate over the last second of the run.
    final_hit_rate: float
    degraded_lookups: int
    consistency_violations: int
    respawns: int
    circuit_breaker_trips: int
    #: Entry versions the respawn's warm join moved onto the new node.
    entries_migrated: int
    housekeeping_errors: int

    @property
    def p50(self) -> float:
        return self.stats.histogram.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.stats.histogram.percentile(99.0)

    @property
    def restored(self) -> bool:
        return self.recovery_seconds >= 0.0


@dataclass
class ChaosOpenLoopResult:
    """Open-loop recovery measurement around a mid-run SIGKILL.

    Two runs over identical process-hosted replicated deployments under
    the same Poisson schedule: at 30% of the run one node's OS process is
    SIGKILLed (no shutdown, no eviction — routing still points at the
    corpse).  ``supervisor off`` shows the pre-supervision behaviour: the
    ring heals around the corpse but stays a node short, so the steady
    hit rate recovers only as far as the surviving replicas reach.
    ``supervisor on`` must detect the death (the routing threshold, fed
    by failed lookups and the supervisor's probes), respawn the child, and
    rejoin it warm — restoring the hit rate to >= 90% of the pre-kill
    baseline with no operator action, zero consistency violations, and
    zero degraded reads at replication factor 2.
    """

    runs: List[ChaosOpenLoopRun]
    offered_rate: float
    keys: int
    transport: str
    kill_at_seconds: float
    bin_seconds: float
    elapsed_seconds: float = 0.0

    def run_named(self, label: str) -> ChaosOpenLoopRun:
        for run in self.runs:
            if run.label == label:
                return run
        raise KeyError(label)

    def format_table(self) -> str:
        rows = []
        for run in self.runs:
            rows.append(
                [
                    run.label,
                    f"{run.stats.achieved_rate:,.0f}",
                    f"{run.p99 * 1e3:.2f} ms",
                    f"{run.baseline_hit_rate:.1%}",
                    (
                        f"{run.recovery_seconds:.2f}s"
                        if run.restored
                        else "never"
                    ),
                    f"{run.p99_spike_seconds:.2f}s",
                    f"{run.final_hit_rate:.1%}",
                    f"{run.respawns}",
                    f"{run.degraded_lookups}",
                    f"{run.consistency_violations}",
                ]
            )
        return format_table(
            [
                "scenario", "goodput/s", "p99", "hit rate pre-kill",
                "hit rate restored in", "p99 spike width", "hit rate end",
                "respawns", "degraded", "violations",
            ],
            rows,
            title=(
                f"Chaos recovery: SIGKILL one of 3 process-hosted nodes at "
                f"{self.kill_at_seconds:.1f}s under {self.offered_rate:,.0f} "
                "ops/s Poisson (R=2, warm rejoin)"
            ),
        )


def chaos_openloop(
    rate: float = 1000.0,
    seconds: float = 6.0,
    threads: int = 8,
    keys: int = 2000,
    value_bytes: int = 512,
    seed: int = 13,
    bin_seconds: float = 0.25,
    smoke: bool = False,
) -> ChaosOpenLoopResult:
    """Measure crash recovery under open-loop load, supervisor on vs off.

    Each scenario warms a 3-node ``socket-process`` deployment (R=2) with
    ``keys`` entries whose values encode their key (an inline one-snapshot
    check: a hit whose value names a different key is a consistency
    violation), then drives seeded
    Poisson lookups from ``threads`` workers.  At 30% of the run a chaos
    thread SIGKILLs ``cache1``'s OS process — no shutdown handshake, no
    eviction, exactly an OOM kill — and from then on pumps
    ``housekeeping()`` the way a deployment timer would.  Per-sample
    (completion time, hit, service time) records are binned to measure
    how long the hit rate takes to return to 90% of its pre-kill baseline
    and how wide the service-p99 spike is.

    ``smoke=True`` shrinks the run to a few seconds (the counts, not the
    timings).
    """
    from repro.clock import SystemClock
    from repro.deployment import TxCacheDeployment
    from repro.interval import Interval

    started = time.time()
    if smoke:
        rate, seconds, threads = 300.0, 3.0, 4
        keys, value_bytes = 300, 256
    arrival_times = ArrivalSchedule(rate, kind="poisson", seed=seed).times(
        int(rate * seconds)
    )
    kill_at = seconds * 0.3
    payload = "x" * value_bytes
    victim = "cache1"

    def measure(label: str, supervised: bool) -> ChaosOpenLoopRun:
        with TxCacheDeployment(
            clock=SystemClock(),
            cache_nodes=3,
            transport="socket-process",
            replication_factor=2,
            failure_threshold=2,
            rpc_timeout_seconds=1.0,
            supervision=supervised,
        ) as deployment:
            cluster = deployment.cache
            for i in range(keys):
                cluster.put(f"key{i}", f"{i}:{payload}", Interval(1, None))

            samples: List[List[tuple]] = [[] for _ in range(threads)]
            violations = [0] * threads
            housekeeping_errors = [0]
            kill_box = [0.0]
            stop = threading.Event()

            def chaos() -> None:
                if stop.wait(kill_at):
                    return
                host = cluster.processes.get(victim)
                if host is not None:
                    host.kill()
                kill_box[0] = time.perf_counter()
                # From here on, play the deployment's periodic timer: the
                # recovery must come out of ordinary housekeeping rounds,
                # not out of anything this harness does specially.
                while not stop.is_set():
                    try:
                        deployment.housekeeping()
                    except Exception:  # noqa: BLE001 - counted, loop continues
                        housekeeping_errors[0] += 1
                    stop.wait(0.01)

            def make_executor(thread_index: int):
                rng = random.Random(seed * 1000 + thread_index)
                bucket = samples[thread_index]

                def execute(op_index: int) -> object:
                    i = rng.randrange(keys)
                    issued = time.perf_counter()
                    result = cluster.lookup(f"key{i}", 1, 1)
                    done = time.perf_counter()
                    hit = bool(result.hit)
                    if hit and not str(result.value).startswith(f"{i}:"):
                        violations[thread_index] += 1
                    bucket.append((done, hit, done - issued))
                    return result

                return execute

            chaos_thread = threading.Thread(target=chaos)
            chaos_thread.start()
            run_started = time.perf_counter()
            stats = run_open_loop(arrival_times, make_executor, threads=threads)
            stop.set()
            chaos_thread.join(timeout=10)

            merged = sorted(
                (t - run_started, hit, service)
                for bucket in samples
                for (t, hit, service) in bucket
            )
            kill_rel = (
                kill_box[0] - run_started if kill_box[0] > 0.0 else kill_at
            )
            pre = [(hit, service) for (t, hit, service) in merged if t < kill_rel]
            baseline_hits = sum(1 for hit, _ in pre if hit)
            baseline_hit_rate = baseline_hits / len(pre) if pre else 0.0
            baseline_service = sorted(service for _, service in pre)
            baseline_p99 = (
                baseline_service[int(0.99 * (len(baseline_service) - 1))]
                if baseline_service
                else 0.0
            )

            # Bin the post-kill tail of the run.
            bins: Dict[int, List[tuple]] = {}
            for t, hit, service in merged:
                if t >= kill_rel:
                    bins.setdefault(int((t - kill_rel) / bin_seconds), []).append(
                        (hit, service)
                    )
            recovery_seconds = -1.0
            spike_bins = 0
            for index in sorted(bins):
                entries = bins[index]
                if len(entries) < 5:
                    continue
                hit_rate = sum(1 for hit, _ in entries if hit) / len(entries)
                services = sorted(service for _, service in entries)
                bin_p99 = services[int(0.99 * (len(services) - 1))]
                if baseline_p99 > 0.0 and bin_p99 > 3.0 * baseline_p99:
                    spike_bins += 1
                if (
                    recovery_seconds < 0.0
                    and baseline_hit_rate > 0.0
                    and hit_rate >= 0.9 * baseline_hit_rate
                ):
                    recovery_seconds = (index + 1) * bin_seconds
            tail_start = merged[-1][0] - 1.0 if merged else 0.0
            tail = [(hit, service) for (t, hit, service) in merged if t >= tail_start]
            final_hit_rate = (
                sum(1 for hit, _ in tail if hit) / len(tail) if tail else 0.0
            )

            supervisor = deployment.supervisor
            return ChaosOpenLoopRun(
                label=label,
                stats=stats,
                baseline_hit_rate=baseline_hit_rate,
                recovery_seconds=recovery_seconds,
                p99_spike_seconds=spike_bins * bin_seconds,
                final_hit_rate=final_hit_rate,
                degraded_lookups=cluster.health.degraded_lookups,
                consistency_violations=sum(violations),
                respawns=(supervisor.stats.respawns if supervisor else 0),
                circuit_breaker_trips=(
                    supervisor.stats.circuit_breaker_trips if supervisor else 0
                ),
                entries_migrated=deployment.membership.stats.entries_migrated,
                housekeeping_errors=housekeeping_errors[0],
            )

    runs = [
        measure("supervisor off", False),
        measure("supervisor on", True),
    ]
    return ChaosOpenLoopResult(
        runs=runs,
        offered_rate=rate,
        keys=keys,
        transport="socket-process",
        kill_at_seconds=kill_at,
        bin_seconds=bin_seconds,
        elapsed_seconds=time.time() - started,
    )


# ----------------------------------------------------------------------
# Section 8.1: validity-tracking overhead
# ----------------------------------------------------------------------
@dataclass
class OverheadResult:
    """Per-query latency with and without validity tracking."""

    stock_seconds_per_query: float
    modified_seconds_per_query: float
    queries: int
    #: One primary-key select over a row with that many dead versions kept
    #: for a pinned snapshot: ``(dead versions, stock s, modified s)``.
    version_chains: List[Tuple[int, float, float]]

    @property
    def overhead_fraction(self) -> float:
        if self.stock_seconds_per_query == 0:
            return 0.0
        return (
            self.modified_seconds_per_query - self.stock_seconds_per_query
        ) / self.stock_seconds_per_query

    def format_table(self) -> str:
        rows = [
            ["stock (no validity tracking)", f"{self.stock_seconds_per_query * 1e6:.1f} us"],
            ["modified (validity + tags)", f"{self.modified_seconds_per_query * 1e6:.1f} us"],
            ["overhead", f"{self.overhead_fraction:+.1%}"],
        ]
        mix = format_table(
            ["database", "time per query"],
            rows,
            title="Section 8.1: validity-tracking overhead (microbenchmark)",
        )
        chains = format_table(
            ["dead versions per row", "stock", "modified", "modified / stock"],
            [
                [dead, f"{stock * 1e6:.1f} us", f"{modified * 1e6:.1f} us", f"{modified / stock:.2f}x"]
                for dead, stock, modified in self.version_chains
            ],
            title="One primary-key select, by the dead versions it walks",
        )
        return mix + "\n\n" + chains


def validity_tracking_overhead(
    queries: int = 3000, rows: int = 2000, seed: int = 3
) -> OverheadResult:
    """Measure the executor with and without validity tracking.

    The paper found no observable throughput difference between stock
    PostgreSQL and the modified version; this microbenchmark compares the
    reproduction's executor in the same two modes over an identical query
    stream, and then on one primary-key select over a row that has been
    updated 0, 10 and 40 times — tracking pays per version examined, so the
    chain a no-overwrite table keeps is where an overhead would show.
    """
    import random

    def build(track_validity: bool) -> Database:
        database = Database(clock=ManualClock(), track_validity=track_validity)
        create_rubis_schema(database)
        populate_database(database, IN_MEMORY_CONFIG.scaled(400), seed=seed)
        return database

    def run(database: Database) -> float:
        rng = random.Random(seed)
        items, users = database.table("items"), database.table("users")
        item_ids = [items.row_of(version)["id"] for version in items.scan_versions()]
        user_ids = [users.row_of(version)["id"] for version in users.scan_versions()]
        transaction = database.begin_ro()
        start = time.perf_counter()
        for index in range(queries):
            if index % 3 == 0:
                transaction.query(Select("items", Eq("id", rng.choice(item_ids))))
            elif index % 3 == 1:
                transaction.query(Select("users", Eq("id", rng.choice(user_ids))))
            else:
                transaction.query(Select("bids", Eq("item_id", rng.choice(item_ids))))
        elapsed = time.perf_counter() - start
        transaction.commit()
        return elapsed / queries

    def build_chain(track_validity: bool, dead_versions: int) -> Database:
        database = Database(clock=ManualClock(), track_validity=track_validity)
        database.create_table(TableSchema.build("chain", ["id", "value"], primary_key="id"))
        database.bulk_load("chain", [{"id": i, "value": 0} for i in range(50)])
        for value in range(dead_versions):  # nothing vacuums: the chain stays
            writer = database.begin_rw()
            writer.update("chain", Eq("id", 7), {"value": value + 1})
            writer.commit()
        return database

    def run_chain(database: Database) -> float:
        transaction = database.begin_ro()
        query = Select("chain", Eq("id", 7))
        start = time.perf_counter()
        for _ in range(queries):
            transaction.query(query)
        return (time.perf_counter() - start) / queries

    def fastest(timed, stock_database: Database, modified_database: Database):
        """Each mode's fastest of three alternated runs: a slow spell hits both."""
        stock = modified = float("inf")
        for _ in range(3):
            stock = min(stock, timed(stock_database))
            modified = min(modified, timed(modified_database))
        return stock, modified

    stock, modified = fastest(run, build(track_validity=False), build(track_validity=True))
    return OverheadResult(
        stock_seconds_per_query=stock,
        modified_seconds_per_query=modified,
        queries=queries,
        version_chains=[
            (dead, *fastest(run_chain, build_chain(False, dead), build_chain(True, dead)))
            for dead in (0, 10, 40)
        ],
    )
