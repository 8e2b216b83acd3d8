"""The throttled background maintenance plane of the cache tier.

Migration and anti-entropy repair used to run *synchronously* at the epoch
boundary: the coordinator swept whole nodes (``keys()`` inventories,
whole-store extract pages) while foreground traffic waited on the same
servers.  This module turns those sweeps into **resumable chunked jobs**
drained by a pump under a **per-interval op/byte budget**, so maintenance
interleaves with live traffic at a bounded rate instead of monopolizing the
tier right when it is degraded.

* :class:`MaintenanceBudget` — a windowed allowance on an injected clock:
  every ``interval_seconds`` the budget refills to ``ops_per_interval``
  RPCs and ``bytes_per_interval`` payload bytes.  A chunk may start only
  while both allowances are positive; its actual cost is charged after it
  runs (chunk sizes are estimates until the page arrives), so a single
  chunk can overdraw the window — the *next* chunk then waits for the
  refill.  Totals (``consumed_ops``/``consumed_bytes``) are exact sums of
  the per-chunk charges, which the budget-accounting tests pin.
* :class:`ChunkedJob` — wraps a generator that yields ``(ops, bytes)`` per
  chunk and returns its result; each :meth:`ChunkedJob.step` runs exactly
  one chunk, so a job is resumable at chunk granularity.
* :class:`MaintenancePlane` — a FIFO of jobs and the pump.  ``pump()`` runs
  chunks while the budget allows, stopping (and counting a deferral) the
  moment it does not; callers re-pump from housekeeping or a timer.  A
  chunk that raises fails its job without poisoning the queue.

The plane deliberately owns no thread: the deployment's housekeeping (or a
test, or the simulator's virtual time) decides when to pump, which keeps
chunk scheduling deterministic and the foreground path free of hidden
background threads.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Generator, Optional, Tuple

from repro.clock import Clock, SystemClock

__all__ = [
    "MaintenanceBudget",
    "MaintenancePlane",
    "MaintenanceStats",
    "ChunkedJob",
]


@dataclass
class MaintenanceStats:
    """What the plane has done, summed exactly across chunks."""

    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    chunks_run: int = 0
    #: Maintenance RPCs charged (sum of every chunk's op count).
    ops_charged: int = 0
    #: Approximate payload bytes charged (sum of every chunk's estimate).
    bytes_charged: int = 0
    #: Pumps cut short because the budget window was exhausted.
    budget_deferrals: int = 0


class MaintenanceBudget:
    """Op/byte allowance per clock interval for background maintenance."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        ops_per_interval: int = 64,
        bytes_per_interval: int = 1 << 20,
        interval_seconds: float = 1.0,
    ) -> None:
        if ops_per_interval < 1:
            raise ValueError("ops_per_interval must be positive")
        if bytes_per_interval < 1:
            raise ValueError("bytes_per_interval must be positive")
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        self.clock = clock if clock is not None else SystemClock()
        self.ops_per_interval = ops_per_interval
        self.bytes_per_interval = bytes_per_interval
        self.interval_seconds = interval_seconds
        self.consumed_ops = 0
        self.consumed_bytes = 0
        #: Refills performed (the first window counts as 1).
        self.windows = 1
        self._window_start = self.clock.now()
        self._ops_left = ops_per_interval
        self._bytes_left = bytes_per_interval
        self._lock = threading.Lock()

    def allows(self) -> bool:
        """May another chunk start in the current window?"""
        with self._lock:
            self._refill()
            return self._ops_left > 0 and self._bytes_left > 0

    def charge(self, ops: int, nbytes: int) -> None:
        """Debit one chunk's actual cost (post-hoc; may overdraw the window)."""
        with self._lock:
            self._ops_left -= ops
            self._bytes_left -= nbytes
            self.consumed_ops += ops
            self.consumed_bytes += nbytes

    def _refill(self) -> None:
        now = self.clock.now()
        if now - self._window_start >= self.interval_seconds:
            self._window_start = now
            self._ops_left = self.ops_per_interval
            self._bytes_left = self.bytes_per_interval
            self.windows += 1


class ChunkedJob:
    """A resumable maintenance job: one generator, one chunk per step.

    The generator yields ``(ops, approx_bytes)`` after each unit of work
    (one RPC page, one digest round trip, ...) and may ``return`` a result;
    :attr:`result` holds it once :meth:`step` reports completion.
    """

    def __init__(self, label: str, chunks: Generator[Tuple[int, int], None, object]) -> None:
        self.label = label
        self.result: object = None
        self._chunks = chunks

    def step(self) -> Tuple[bool, int, int]:
        """Run one chunk; returns ``(done, ops, approx_bytes)``."""
        try:
            ops, nbytes = next(self._chunks)
        except StopIteration as stop:
            self.result = stop.value
            return True, 0, 0
        return False, int(ops), int(nbytes)

    def drain(self) -> object:
        """Run every remaining chunk back-to-back (the synchronous path)."""
        while not self.step()[0]:
            pass
        return self.result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChunkedJob({self.label!r})"


@dataclass
class MaintenancePlane:
    """FIFO of chunked jobs drained by :meth:`pump` under the budget."""

    budget: Optional[MaintenanceBudget] = None
    stats: MaintenanceStats = field(default_factory=MaintenanceStats)

    def __post_init__(self) -> None:
        self._jobs: Deque[ChunkedJob] = deque()
        self._lock = threading.RLock()

    @property
    def idle(self) -> bool:
        with self._lock:
            return not self._jobs

    @property
    def pending_jobs(self) -> int:
        with self._lock:
            return len(self._jobs)

    def submit(self, job: ChunkedJob) -> ChunkedJob:
        with self._lock:
            self._jobs.append(job)
            self.stats.jobs_submitted += 1
        return job

    def pump(self, max_chunks: Optional[int] = None) -> int:
        """Run queued chunks while the budget window allows; returns chunks run.

        Stops at the first exhausted window (counted as a deferral — call
        again after the interval), after ``max_chunks`` chunks, or when the
        queue drains.  One pump call never blocks foreground traffic beyond
        the chunk currently in flight: chunk boundaries are the preemption
        points of the whole maintenance plane.
        """
        return self._pump(max_chunks, self.budget)

    def drain(self) -> int:
        """Pump ignoring the budget until every job completes (teardown aid).

        Chunks are still charged to the budget, so its ledger stays exact."""
        return self._pump(None, None)

    def _pump(self, max_chunks: Optional[int], gate: Optional[MaintenanceBudget]) -> int:
        """The one loop: run chunks until the queue drains, ``max_chunks``
        have run, or ``gate`` (when given) has no allowance left."""
        ran = 0
        with self._lock:
            while self._jobs and (max_chunks is None or ran < max_chunks):
                if gate is not None and not gate.allows():
                    self.stats.budget_deferrals += 1
                    break
                job = self._jobs[0]
                try:
                    done, ops, nbytes = job.step()
                except Exception:  # noqa: BLE001 - a bad job must not wedge the plane
                    self._jobs.popleft()
                    self.stats.jobs_failed += 1
                    continue
                ran += 1
                self.stats.chunks_run += 1
                self.stats.ops_charged += ops
                self.stats.bytes_charged += nbytes
                if self.budget is not None:
                    self.budget.charge(ops, nbytes)
                if done:
                    self._jobs.popleft()
                    self.stats.jobs_completed += 1
        return ran
