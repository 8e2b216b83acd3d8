"""The wall-clock engine and the multi-process benchmark built on it.

:func:`run_open_loop` is the one engine every wall-clock experiment in
:mod:`repro.bench` runs on.  Worker threads claim operation indices in
order.  In ``"open"`` mode each operation has a *pre-computed scheduled
arrival* and its latency is charged from that arrival, not from the moment
a worker got around to issuing it: a stalled system accumulates queueing
delay in the recorded tail instead of silently thinning the arrivals (the
coordinated-omission fix, wrk2/HdrHistogram style).  In ``"closed"`` mode
the threads issue back-to-back and time only service: that is how the
threaded experiments (:func:`repro.bench.experiments.concurrent_clients`)
measure how fast K workers go, and it is the contrast that shows the two
distributions diverge under a stall.

:func:`run_openloop_benchmark` drives the engine from forked worker
processes: the coordinator starts the networked deployment
(:func:`start_pages_deployment`), forks the workers, and each worker builds
its own client stack (:func:`build_worker_stack`), generates its own share
of the arrival schedule (Poisson splitting keeps the superposed offered
rate exact) and drives it with its own thread pool against the shared
cache nodes.  Latency histograms merge across threads and processes; the
result reports offered rate vs achieved goodput, the merged percentiles,
and what the nodes counted on the wire.
"""

from __future__ import annotations

import multiprocessing
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.bench.loadgen.histogram import DEFAULT_PERCENTILES, LatencyHistogram
from repro.bench.loadgen.schedule import ArrivalSchedule
from repro.clock import SystemClock
from repro.comm.wire import WIRE_COUNTERS
from repro.db.query import Eq, Select
from repro.db.schema import TableSchema
from repro.deployment import TxCacheDeployment

__all__ = [
    "OpenLoopConfig",
    "OpenLoopResult",
    "OpenLoopStats",
    "build_worker_stack",
    "fork_context",
    "run_open_loop",
    "run_openloop_benchmark",
    "start_pages_deployment",
]

#: Engine modes: ``"open"`` charges latency from the scheduled arrival,
#: ``"closed"`` issues back-to-back and times only service (how fast K
#: workers go; the coordinated-omission-prone contrast to ``"open"``).
LOOP_MODES = ("open", "closed")


@dataclass
class OpenLoopStats:
    """What one :func:`run_open_loop` call measured.

    ``histogram`` is the end-to-end latency (completion − scheduled
    arrival, the coordinated-omission-safe number).  It decomposes into
    two attributable parts recorded alongside it:

    * ``queue_wait_histogram`` — scheduled arrival → the moment a worker
      actually issued the operation: load the *generator* had to queue
      because the system fell behind;
    * ``service_histogram`` — issue → completion: the time the system
      itself took once asked.

    A saturated system shows queue wait exploding while service stays
    flat; a slow system shows the reverse.  The split is what tells the
    two apart on a sweep curve.
    """

    completed: int
    errors: int
    wall_seconds: float
    histogram: LatencyHistogram
    queue_wait_histogram: LatencyHistogram = field(default_factory=LatencyHistogram)
    service_histogram: LatencyHistogram = field(default_factory=LatencyHistogram)

    @property
    def achieved_rate(self) -> float:
        """Operations completed per wall-clock second (goodput)."""
        return self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0


def run_open_loop(
    times: Sequence[float],
    make_executor: Callable[[int], Callable[[int], object]],
    threads: int = 1,
    mode: str = "open",
) -> OpenLoopStats:
    """Drive a pre-computed arrival schedule with a pool of worker threads.

    ``times`` are scheduled arrival offsets (seconds from run start,
    ascending); ``make_executor(thread_index)`` returns the callable one
    thread uses to execute operations (each thread gets its own, so
    executors can own non-thread-safe state like a client or an RNG).

    In ``"open"`` mode a thread claims the next arrival, sleeps until its
    scheduled time if early, executes, and records
    ``completion - scheduled`` — so when all threads are busy, operations
    queue and the wait is *charged to the tail* rather than deferring the
    schedule.  In ``"closed"`` mode threads issue back-to-back and record
    only ``completion - issue``: the loop that coordinated omission makes
    look deceptively fast.

    Failed operations count as errors and record no latency sample (they
    produced no result; goodput already reflects the loss).  A
    ``make_executor`` that raises stops the run before any operation: the
    start barrier is broken and the exception is re-raised here.
    """
    if mode not in LOOP_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {list(LOOP_MODES)}")
    if threads < 1:
        raise ValueError(f"threads must be positive, got {threads}")
    total = len(times)
    histograms = [LatencyHistogram() for _ in range(threads)]
    queue_wait_histograms = [LatencyHistogram() for _ in range(threads)]
    service_histograms = [LatencyHistogram() for _ in range(threads)]
    errors = [0] * threads
    completed = [0] * threads
    if total == 0:
        return OpenLoopStats(0, 0, 0.0, LatencyHistogram())

    next_index = [0]
    index_lock = threading.Lock()
    start_box = [0.0]
    open_mode = mode == "open"

    def set_start() -> None:
        start_box[0] = time.perf_counter()

    barrier = threading.Barrier(threads, action=set_start)
    factory_errors: List[BaseException] = []

    def run_thread(thread_index: int) -> None:
        try:
            execute = make_executor(thread_index)
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
            # Release the threads already waiting at the start barrier.
            factory_errors.append(exc)
            barrier.abort()
            return
        histogram = histograms[thread_index]
        queue_wait_histogram = queue_wait_histograms[thread_index]
        service_histogram = service_histograms[thread_index]
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            return  # another thread's factory failed
        start = start_box[0]
        while True:
            with index_lock:
                op_index = next_index[0]
                if op_index >= total:
                    return
                next_index[0] = op_index + 1
            if open_mode:
                scheduled = start + times[op_index]
                delay = scheduled - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            else:
                scheduled = time.perf_counter()
            issued = time.perf_counter()
            try:
                execute(op_index)
            except Exception:  # noqa: BLE001 - counted, the run continues
                errors[thread_index] += 1
                continue
            end = time.perf_counter()
            histogram.record(end - scheduled)
            # Attribution split: how long the op sat in the generator's
            # queue past its scheduled arrival vs how long the system took
            # once asked.  The clamp covers a worker picking the op up a
            # few ns early (sleep granularity), never real waiting.
            queue_wait_histogram.record(max(0.0, issued - scheduled))
            service_histogram.record(end - issued)
            completed[thread_index] += 1

    if threads == 1:
        run_thread(0)
    else:
        pool = [
            threading.Thread(target=run_thread, args=(i,), daemon=True)
            for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
    if factory_errors:
        raise factory_errors[0]
    wall = time.perf_counter() - start_box[0]
    return OpenLoopStats(
        completed=sum(completed),
        errors=sum(errors),
        wall_seconds=wall,
        histogram=LatencyHistogram.merged(histograms),
        queue_wait_histogram=LatencyHistogram.merged(queue_wait_histograms),
        service_histogram=LatencyHistogram.merged(service_histograms),
    )


# ----------------------------------------------------------------------
# The ``pages`` deployment and the forked workers' client stacks
# ----------------------------------------------------------------------
def _pages_rows(rows: int) -> List[dict]:
    """The hot table every worker replicates identically."""
    return [{"id": i, "payload": "x" * 128, "hits": 0} for i in range(rows)]


def start_pages_deployment(
    *,
    transport: str,
    cache_nodes: int,
    cache_capacity_bytes_per_node: int,
    staleness: float,
    simulated_rpc_latency_seconds: float,
    rows: int,
    replication_factor: int = 1,
) -> TxCacheDeployment:
    """Build, load, and warm the deployment a wall-clock experiment drives.

    Shared by :func:`run_openloop_benchmark` (whose forked workers dial its
    nodes) and the threaded experiments (whose workers are clients of it):
    one ``pages`` table, one warmup pass so every worker starts from hits
    (the paper restores a cache snapshot; the warmup plays the same role).
    The deployment is shut down on a bootstrap failure so a broken config
    never leaks server threads.
    """
    deployment = TxCacheDeployment(
        clock=SystemClock(),
        cache_nodes=cache_nodes,
        cache_capacity_bytes_per_node=cache_capacity_bytes_per_node,
        transport=transport,
        default_staleness=staleness,
        replication_factor=replication_factor,
        simulated_rpc_latency_seconds=simulated_rpc_latency_seconds,
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
    cluster = CacheCluster(node_addresses=addresses, transport=transport)
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
    """The multiprocessing context the benchmark forks workers with.

    Fork keeps the already-imported interpreter (fast, Linux); spawn is the
    portable fallback — worker entry points and their arguments are
    picklable either way.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else methods[0])


# ----------------------------------------------------------------------
# Multi-process benchmark on the engine
# ----------------------------------------------------------------------
@dataclass
class OpenLoopConfig:
    """One wall-clock measurement from forked worker processes.

    ``processes`` forked workers, each with ``threads_per_process`` worker
    threads and its own client stack (:func:`build_worker_stack`), drive
    the read-only ``pages`` workload against one shared deployment
    (:func:`start_pages_deployment`).  In ``"open"`` mode the load is an
    arrival schedule at ``offered_rate`` ops/s; in ``"closed"`` mode the
    workers issue ``total_ops`` back-to-back and the schedule's times go
    unused.  The default transport is the thread-hosted wire stack the
    paper figures are re-measured on.
    """

    offered_rate: float = 2000.0
    #: Operations in the schedule; duration ≈ total_ops / offered_rate.
    total_ops: int = 4000
    arrival: str = "poisson"  # "poisson" | "uniform"
    mode: str = "open"  # "open" | "closed"
    processes: int = 2
    threads_per_process: int = 4
    transport: str = "socket"
    cache_nodes: int = 2
    cache_capacity_bytes_per_node: int = 8 * 1024 * 1024
    rows: int = 256
    staleness: float = 30.0
    #: Modelled LAN round trip per cache RPC (see CacheServerProcess).
    simulated_rpc_latency_seconds: float = 4e-4
    seed: int = 1
    label: str = ""


@dataclass
class OpenLoopResult:
    """Outcome of one multi-process measurement."""

    label: str
    offered_rate: float
    mode: str
    arrival: str
    processes: int
    threads_per_process: int
    transport: str
    completed: int
    errors: int
    wall_seconds: float
    achieved_goodput: float
    hit_rate: float
    histogram: LatencyHistogram
    #: Latency-breakdown companions of ``histogram`` (see OpenLoopStats):
    #: scheduled arrival -> issue, and issue -> completion.
    queue_wait_histogram: LatencyHistogram = field(default_factory=LatencyHistogram)
    service_histogram: LatencyHistogram = field(default_factory=LatencyHistogram)
    #: Counts the thread-hosted nodes kept over the measured phase — what
    #: the wire did, whatever the clock says.  Response frames the nodes
    #: encoded; and (0 for process-hosted nodes) ``sendmsg`` syscalls issued
    #: and the most requests one connection had in flight.
    responses: int = 0
    sendmsg_calls: int = 0
    max_in_flight_per_connection: int = 0

    def percentiles(self, points: Sequence[float] = DEFAULT_PERCENTILES) -> Dict[float, float]:
        return self.histogram.percentiles(points)

    def summary(self) -> str:
        p = self.percentiles()
        q99 = self.queue_wait_histogram.percentile(99.0)
        s99 = self.service_histogram.percentile(99.0)
        return (
            f"{self.label or 'run'}: offered {self.offered_rate:8.0f} ops/s -> "
            f"achieved {self.achieved_goodput:8.1f} ops/s  "
            f"p50 {p[50.0] * 1e3:6.2f}ms  p99 {p[99.0] * 1e3:7.2f}ms "
            f"(queue-wait {q99 * 1e3:.2f}ms + service {s99 * 1e3:.2f}ms)  "
            f"hit rate {self.hit_rate:5.1%}"
        )


def _openloop_worker(
    index: int,
    addresses,
    schedule: ArrivalSchedule,
    ops: int,
    config: OpenLoopConfig,
    barrier,
    queue,
) -> None:
    """One forked worker: generate this process's arrivals and drive them.

    Runs in a child process.  It must always reach the barrier, so
    bootstrap failures are carried past it and reported through the queue
    instead of deadlocking the coordinator.
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

    def make_executor(thread_index: int) -> Callable[[int], object]:
        client = clients[thread_index]
        rng = random.Random(config.seed * 100_000 + index * 100 + thread_index)

        @client.cacheable(name="bench_get_row")
        def get_row(row_id):
            return client.query(Select("pages", Eq("id", row_id))).rows[0]

        def execute(op_index: int) -> object:
            with client.read_only(staleness=config.staleness):
                return get_row(rng.randrange(config.rows))

        return execute

    try:
        barrier.wait(timeout=60)
    except Exception:
        bootstrap_error = bootstrap_error or "coordination barrier broke"
    if bootstrap_error is None:
        stats = run_open_loop(
            schedule.times(ops),
            make_executor,
            threads=config.threads_per_process,
            mode=config.mode,
        )
    else:
        stats = OpenLoopStats(0, 0, 0.0, LatencyHistogram())
    hits = misses = 0
    for client in clients:
        hits += client.stats.hits
        misses += client.stats.misses
    queue.put(
        {
            "index": index,
            "completed": stats.completed,
            "errors": stats.errors + (1 if bootstrap_error else 0),
            "hits": hits,
            "misses": misses,
            "histogram": stats.histogram.to_dict(),
            "queue_wait_histogram": stats.queue_wait_histogram.to_dict(),
            "service_histogram": stats.service_histogram.to_dict(),
            "bootstrap_error": bootstrap_error,
        }
    )
    if cluster is not None:
        cluster.close()


def run_openloop_benchmark(config: OpenLoopConfig) -> OpenLoopResult:
    """Offer a fixed rate to one deployment from forked worker processes.

    The coordinator starts the deployment (loaded and warmed), splits the
    arrival schedule across ``processes`` workers (rate divides; Poisson
    superposition restores the offered rate exactly), forks them, and times
    the run from the start-barrier release to the last worker's report —
    the wall clock the achieved goodput is computed against.
    """
    if config.processes < 1:
        raise ValueError("processes must be positive")
    if config.threads_per_process < 1:
        raise ValueError("threads_per_process must be positive")
    if config.total_ops < 1:
        raise ValueError("total_ops must be positive")
    if config.transport not in ("socket", "socket-process"):
        raise ValueError("open-loop benchmark requires a socket transport")
    schedule = ArrivalSchedule(
        rate=config.offered_rate, kind=config.arrival, seed=config.seed
    )
    shares = schedule.split(config.processes)
    base, extra = divmod(config.total_ops, config.processes)
    ops_shares = [base + (1 if i < extra else 0) for i in range(config.processes)]

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
                target=_openloop_worker,
                args=(i, addresses, shares[i], ops_shares[i], config, barrier, queue),
                daemon=True,
            )
            for i in range(config.processes)
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

        completed = sum(report["completed"] for report in reports)
        hits = sum(report["hits"] for report in reports)
        misses = sum(report["misses"] for report in reports)
        looked_up = hits + misses
        histogram = LatencyHistogram.merged(
            LatencyHistogram.from_dict(report["histogram"]) for report in reports
        )
        queue_wait = LatencyHistogram.merged(
            LatencyHistogram.from_dict(report["queue_wait_histogram"])
            for report in reports
        )
        service = LatencyHistogram.merged(
            LatencyHistogram.from_dict(report["service_histogram"])
            for report in reports
        )
        return OpenLoopResult(
            label=config.label,
            offered_rate=config.offered_rate,
            mode=config.mode,
            arrival=config.arrival,
            processes=config.processes,
            threads_per_process=config.threads_per_process,
            transport=config.transport,
            completed=completed,
            errors=sum(report["errors"] for report in reports),
            wall_seconds=wall,
            achieved_goodput=completed / wall if wall > 0 else 0.0,
            hit_rate=hits / looked_up if looked_up else 0.0,
            histogram=histogram,
            queue_wait_histogram=queue_wait,
            service_histogram=service,
            responses=WIRE_COUNTERS.frames_encoded - frames_before,
            sendmsg_calls=sendmsg_calls() - sendmsg_before,
            max_in_flight_per_connection=max(
                getattr(node, "max_in_flight_per_connection", 0) for node in nodes
            ),
        )
    finally:
        deployment.shutdown()
