"""The four benchmark workloads and the closed loop that drives them.

Everything the *system* sees is deterministic: inputs come from ``--seed``,
time is a :class:`ManualClock` advanced by a fixed ``dt`` per interaction,
and one client thread issues one interaction at a time.  Only the meter's
own clock (``perf_counter``) is real, and it is calibrated (calibration.py).
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from calibration import calibrate, slowdown

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.apps.rubis import (  # noqa: E402
    IN_MEMORY_CONFIG,
    RubisApp,
    RubisClientSession,
    create_rubis_schema,
    populate_database,
)
from repro.apps.rubis.workload import BIDDING_MIX, BROWSING_MIX, INTERACTIONS  # noqa: E402
from repro.clock import ManualClock  # noqa: E402
from repro.db.query import Eq, Select  # noqa: E402
from repro.db.schema import TableSchema  # noqa: E402
from repro.deployment import TxCacheDeployment  # noqa: E402

#: Load model shared by every workload (the repo driver's defaults).
CACHE_NODES = 2
STALENESS_SECONDS = 30.0
SESSIONS = 24
HOUSEKEEPING_EVERY = 400
#: Interactions between two calibration samples; divides HOUSEKEEPING_EVERY.
BLOCK = 100
#: ``--seconds`` the stated ``measure`` sizes correspond to.
NOMINAL_SECONDS = 10
#: Deployments set up per untraced run: the measured one, then the rest
#: after it is gone; ``setup_s`` takes their median.
SETUP_REPEATS = 3
#: The RUBiS data is part of a workload's definition, not of its seed.
DATA_SEED = 42
#: Failed interactions are counted, not hidden (README "known failures");
#: above this share the timings describe too little completed work to mean
#: anything, and the run is incorrect.
MAX_FAILED_SHARE = 0.01


# ----------------------------------------------------------------------
# Workload definitions
# ----------------------------------------------------------------------
class RubisDriver:
    """24 emulated RUBiS users stepped round-robin."""

    def __init__(self, deployment, client, seed: int, mix, scale: int) -> None:
        create_rubis_schema(deployment.database)
        dataset = populate_database(
            deployment.database, IN_MEMORY_CONFIG.scaled(scale), seed=DATA_SEED
        )
        app = RubisApp(client, dataset)
        self.sessions = [
            RubisClientSession(
                app,
                mix,
                seed=seed * 1000 + i,
                staleness=STALENESS_SECONDS,
                now_fn=deployment.clock.now,
            )
            for i in range(SESSIONS)
        ]
        self._session = self.sessions[0]
        self.violations = 0

    def step(self, i: int) -> None:
        self._session = self.sessions[i % SESSIONS]
        self._session.step()

    @property
    def last_read_only(self) -> bool:
        # ``step`` moves the Markov chain, then executes the state it reached.
        return INTERACTIONS[self._session.state].read_only


LEDGER_BRANCHES = 16
LEDGER_ACCOUNTS_PER_BRANCH = 8
LEDGER_OPENING_BALANCE = 100
#: Audits tolerate 5 s, not the 30 s of every other workload: at 30 s a run
#: settles, by seed, into one of two regimes (one shared stale snapshot, or a
#: dozen pins) and hit rate, DB queries and throughput then spread 13 %, 47 %
#: and 15 % over ten seeds (README, "Ledger as first specified").  At 5 s
#: (= the client's new-pin threshold) there is one regime.
LEDGER_STALENESS_SECONDS = 5.0


class LedgerDriver:
    """Transfers inside a branch beside audits of the branch's total."""

    def __init__(self, deployment, client, seed: int) -> None:
        deployment.database.create_table(
            TableSchema.build(
                "accounts", ["id", "branch", "balance"], primary_key="id", indexes=["branch"]
            )
        )
        deployment.database.bulk_load(
            "accounts",
            [
                {
                    "id": account,
                    "branch": account // LEDGER_ACCOUNTS_PER_BRANCH,
                    "balance": LEDGER_OPENING_BALANCE,
                }
                for account in range(LEDGER_BRANCHES * LEDGER_ACCOUNTS_PER_BRANCH)
            ],
        )
        self.client = client
        self.rng = random.Random(seed)
        self.violations = 0
        self.last_read_only = True
        self._branch = 0

        def get_balance(account: int) -> int:
            return client.query(Select("accounts", Eq("id", account))).rows[0]["balance"]

        def branch_total(branch: int) -> int:
            return sum(self.get_balance(account) for account in self._accounts(branch))

        self.get_balance = client.cacheable(get_balance, name="ledger.get_balance")
        self.branch_total = client.cacheable(branch_total, name="ledger.branch_total")

    @staticmethod
    def _accounts(branch: int) -> range:
        first = branch * LEDGER_ACCOUNTS_PER_BRANCH
        return range(first, first + LEDGER_ACCOUNTS_PER_BRANCH)

    def step(self, i: int) -> None:
        self._branch = self.rng.randrange(LEDGER_BRANCHES)
        self.last_read_only = self.rng.random() < 0.5
        if self.last_read_only:
            self._audit()
        else:
            source, target = self.rng.sample(self._accounts(self._branch), 2)
            self._transfer(source, target, self.rng.randint(1, 10))

    def _audit(self) -> None:
        with self.client.read_only(LEDGER_STALENESS_SECONDS):
            total = self.branch_total(self._branch)
        if total != LEDGER_ACCOUNTS_PER_BRANCH * LEDGER_OPENING_BALANCE:
            self.violations += 1

    def _transfer(self, source: int, target: int, amount: int) -> None:
        client = self.client
        with client.read_write():
            balance = {
                account: client.query(Select("accounts", Eq("id", account))).rows[0]["balance"]
                for account in (source, target)
            }
            client.update("accounts", Eq("id", source), {"balance": balance[source] - amount})
            client.update("accounts", Eq("id", target), {"balance": balance[target] + amount})


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    transport: str
    capacity_bytes_per_node: int
    dt: float
    warm: int
    #: Measured interactions at ``--seconds 10``.
    measure: int
    #: ``driver(deployment, client, seed)`` loads the data and returns the
    #: object whose ``step(i)`` runs interaction ``i``.
    driver: Callable
    #: True: the working set fits, so no LRU eviction may happen.  False:
    #: it does not, so the cache must end full and must have evicted.
    cache_fits: bool = True


class Run:
    """One deployment, loaded and ready for its first interaction."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.clock = ManualClock()
        self.deployment = TxCacheDeployment(
            clock=self.clock,
            cache_nodes=CACHE_NODES,
            cache_capacity_bytes_per_node=workload.capacity_bytes_per_node,
            transport=workload.transport,
            default_staleness=STALENESS_SECONDS,
        )
        try:
            self.client = self.deployment.client()
            self.driver = workload.driver(self.deployment, self.client, seed)
        except BaseException:
            self.deployment.shutdown()
            raise

    def node_pids(self) -> List[int]:
        return [p.pid for p in self.deployment.cache.processes.values() if p.pid]


def _rubis(mix, scale: int) -> Callable:
    return lambda deployment, client, seed: RubisDriver(deployment, client, seed, mix, scale)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="rubis-bidding-inproc",
            why="RUBiS bidding mix (13% writes), cache fits, no wire: core, cluster, "
            "server lookups and the invalidation stream, and db do all the work",
            transport="inprocess",
            capacity_bytes_per_node=32 << 20,
            dt=0.010,
            warm=6000,
            measure=8000,
            driver=_rubis(BIDDING_MIX, 100),
        ),
        Workload(
            name="rubis-bidding-wire",
            why="the identical interactions with each cache node a child process, so "
            "the difference from rubis-bidding-inproc is the wire stack alone",
            transport="socket-process",
            capacity_bytes_per_node=32 << 20,
            dt=0.010,
            warm=6000,
            measure=8000,
            driver=_rubis(BIDDING_MIX, 100),
        ),
        Workload(
            name="rubis-browsing-smallcache",
            why="read-only RUBiS on 62k rows with a 1 MiB/node cache that is always "
            "full: LRU eviction, put and db reads dominate; write path and wire idle",
            transport="inprocess",
            capacity_bytes_per_node=1 << 20,
            dt=0.010,
            warm=6000,
            measure=40000,
            driver=_rubis(BROWSING_MIX, 10),
            cache_fits=False,
        ),
        Workload(
            name="ledger-transfer-wire",
            why="transfers beside audits of nested cacheables over the wire: every "
            "commit invalidates on both nodes, so invalidate, put and commit lead",
            transport="socket-process",
            capacity_bytes_per_node=8 << 20,
            dt=0.020,
            warm=4000,
            measure=8000,
            driver=LedgerDriver,
        ),
    )
}


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
@dataclass
class Window:
    """What the loop itself observed over the measured interactions."""

    attempted: int
    failed: int = 0
    #: Exception class name -> interactions it ended.
    failures: Counter = field(default_factory=Counter)
    #: Calibrated seconds of each completed interaction, by class.
    ro_latencies: List[float] = field(default_factory=list)
    rw_latencies: List[float] = field(default_factory=list)
    housekeeping_pauses: List[float] = field(default_factory=list)
    #: Raw and calibrated wall seconds of all interactions, failed ones too,
    #: plus housekeeping.
    wall_raw: float = 0.0
    wall: float = 0.0
    #: Machine speed per block: kernel time nearby / nominal kernel time.
    slowdowns: List[float] = field(default_factory=list)
    calibration_cpu: float = 0.0


def run_window(run: Run, first: int, count: int, tracer=None) -> Window:
    """Run interactions ``first .. first+count`` closed-loop, one at a time.

    ``count`` is a whole number of blocks (see :func:`scaled`)."""
    driver, client = run.driver, run.client
    clock, dt = run.clock, run.workload.dt
    housekeeping = run.deployment.housekeeping
    now = time.perf_counter
    window = Window(attempted=count)

    def timed_calibrate() -> float:
        cpu_before = time.process_time()
        seconds = calibrate()
        window.calibration_cpu += time.process_time() - cpu_before
        return seconds

    kernel_before = timed_calibrate()
    for block_start in range(first, first + count, BLOCK):
        ro: List[float] = []
        rw: List[float] = []
        lost: List[float] = []
        pauses: List[float] = []
        for i in range(block_start, block_start + BLOCK):
            started = now()
            if tracer is not None:
                tracer.begin_root("app.interaction", i)
            try:
                driver.step(i)
                samples = ro if driver.last_read_only else rw
            except Exception as exc:  # noqa: BLE001 - counted; the run goes on
                window.failed += 1
                window.failures[type(exc).__name__] += 1
                if client.in_transaction:
                    client.abort()
                samples = lost
            if tracer is not None:
                tracer.end_root()
            samples.append(now() - started)
            clock.advance(dt)
            if (i + 1) % HOUSEKEEPING_EVERY == 0:
                started = now()
                housekeeping()
                pauses.append(now() - started)
        kernel_after = timed_calibrate()
        slow = slowdown(kernel_before, kernel_after)
        kernel_before = kernel_after
        window.slowdowns.append(slow)
        window.ro_latencies.extend(t / slow for t in ro)
        window.rw_latencies.extend(t / slow for t in rw)
        window.housekeeping_pauses.extend(t / slow for t in pauses)
        raw = sum(ro) + sum(rw) + sum(lost) + sum(pauses)
        window.wall_raw += raw
        window.wall += raw / slow
    return window


def interactions_per_second(window: Window) -> float:
    """Completed interactions per calibrated second, housekeeping included."""
    return (window.attempted - window.failed) / window.wall


# ----------------------------------------------------------------------
# Process accounting (Linux /proc; zero elsewhere)
# ----------------------------------------------------------------------
_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def process_cpu_seconds(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def process_peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def own_peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def timed_set_up(workload: Workload, seed: int) -> Tuple[Run, float]:
    """A deployment ready for its first interaction, and the calibrated
    seconds getting there took."""
    kernel_before = calibrate()
    started = time.perf_counter()
    run = Run(workload, seed)
    elapsed = time.perf_counter() - started
    return run, elapsed / slowdown(kernel_before, calibrate())


def scaled(ops: int, seconds: float) -> int:
    """``ops`` at 10 s, scaled to ``seconds`` and rounded to whole blocks."""
    return max(1, round(ops * seconds / NOMINAL_SECONDS / BLOCK)) * BLOCK


def run_once(name: str, seed: int, seconds: float, trace: bool, import_seconds: float) -> dict:
    """Set up, warm, measure and check one workload in this process.

    ``import_seconds``: calibrated seconds from process start until this
    module was imported; with the deployment's set-up it makes ``setup_s``."""
    workload = WORKLOADS[name]
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    run, ready_seconds = timed_set_up(workload, seed)
    try:
        warm = scaled(workload.warm, seconds)
        run_window(run, 0, warm)
        gc.collect()
        stats = run.client.stats
        counted = ("hits", "misses", "db_queries", "cache_rpcs")
        before = {key: getattr(stats, key) for key in counted}
        pids = run.node_pids()
        cpu_before = time.process_time() + sum(process_cpu_seconds(p) for p in pids)
        if tracer is not None:
            tracer.start(run, first=warm)
        ops = scaled(workload.measure, seconds)
        window = run_window(run, warm, ops, tracer)
        if tracer is not None:
            tracer.stop()
        cpu = (
            time.process_time()
            + sum(process_cpu_seconds(p) for p in pids)
            - cpu_before
            - window.calibration_cpu
        )
        counts = {key: getattr(stats, key) - before[key] for key in counted}
        node_peak_rss = sum(process_peak_rss_mb(p) for p in pids)
        peak_rss = own_peak_rss_mb() + node_peak_rss
        problems = check(run, window, full_size=seconds >= NOMINAL_SECONDS)
        layers = tracer.layer_metrics(run, window, cpu, node_peak_rss) if tracer else None
    finally:
        run.deployment.shutdown()
        if tracer is not None:
            tracer.write(os.path.join(ROOT, "perf", "out", f"trace-{name}.jsonl"))
    overall = window.wall_raw / window.wall

    def ms(latencies: List[float], fraction: float) -> Optional[float]:
        return percentile(latencies, fraction) * 1e3 if latencies else None

    if layers is None:
        # ``setup_s`` is a median, and only now can the other set-ups run
        # without the measured deployment sharing the process with them.
        set_ups = [ready_seconds]
        for _ in range(SETUP_REPEATS - 1):
            run = None
            gc.collect()
            run, seconds_again = timed_set_up(workload, seed)
            run.deployment.shutdown()
            set_ups.append(seconds_again)
        metrics = {
            "setup_s": (import_seconds + statistics.median(set_ups), "s"),
            "interactions_per_s": (interactions_per_second(window), "1/s"),
            "ro_p50_ms": (ms(window.ro_latencies, 0.50), "ms"),
            "ro_p99_ms": (ms(window.ro_latencies, 0.99), "ms"),
            "rw_p50_ms": (ms(window.rw_latencies, 0.50), "ms"),
            "rw_p99_ms": (ms(window.rw_latencies, 0.99), "ms"),
            "hit_rate": (counts["hits"] / (counts["hits"] + counts["misses"]), "ratio"),
            "db_queries_per_interaction": (counts["db_queries"] / ops, "count"),
            "cpu_ms_per_interaction": (cpu / overall / ops * 1e3, "ms"),
            "peak_rss_mb": (peak_rss, "MB"),
            "failed_share": (window.failed / ops, "ratio"),
        }
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": window.attempted,
        "failed": window.failed,
        "failures": dict(window.failures),
        "counts": counts,
        "raw": {"wall_s": window.wall_raw, "slowdown": overall},
        "metrics": metrics if layers is None else layers,
    }


def check(run: Run, window: Window, full_size: bool) -> List[str]:
    """Output checks of one run; an empty list means correct.

    The small cache only fills at the stated sizes, so a shorter run
    (``full_size`` false) is not held to that."""
    problems: List[str] = []
    if window.failed > window.attempted * MAX_FAILED_SHARE:
        problems.append(f"{window.failed} of {window.attempted} interactions failed")
    if run.driver.violations:
        problems.append(f"{run.driver.violations} audits saw a wrong branch total")
    cache = run.deployment.cache
    evictions = cache.aggregate_stats().lru_evictions
    if run.workload.cache_fits:
        if evictions:
            problems.append(f"{evictions} LRU evictions in a cache sized to fit")
    elif full_size:
        if evictions == 0:
            problems.append("the small cache never evicted")
        if cache.used_bytes < 0.95 * cache.capacity_bytes:
            problems.append("the small cache did not end full")
    return problems
