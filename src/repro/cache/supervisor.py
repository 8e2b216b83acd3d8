"""Self-healing supervision of cache nodes: detect, respawn, warm rejoin.

A crashed cache node used to be *only* evicted: the ring healed around the
corpse (replicas served its keys, repair restored the replication factor),
but the cluster stayed one node short until an operator called
``add_cache_node``.  :class:`NodeSupervisor` closes that loop.  It watches
every registered node and drives a small per-node state machine::

    serving ──death──▶ backoff ──respawn (warm join)──▶ serving
                         │  ▲
                         │  └── spawn failed
                         ▼
                      gave_up   (circuit breaker: too many restarts
                                 inside the window — permanent eviction)

**Detection** is the routing threshold's, under every transport.  Each
:meth:`pump` (called by the deployment's ``housekeeping()`` — no hidden
threads) sends every serving node one probe,
:meth:`repro.cache.cluster.CacheCluster.probe_node`, a routed call whose
failure is charged to the threshold exactly like a failed lookup.  A node
the threshold evicted — by these probes, or by the traffic that hit it
first — is dead; the supervisor never evicts one itself.  So an idle
deployment finds a crash after ``failure_threshold`` pumps, and a busy one
sooner.

**Respawn** waits out an exponential backoff with jitter (on the injected
clock, so tests are deterministic), then rejoins through
:meth:`repro.cache.membership.ClusterMembership.join` with migration, as an
operator's ``add_cache_node`` would: the respawned node is a new server
with an empty store, as a restarted process is, and its share of the
working set is moved onto it before the ring switches back to it.

**Circuit breaker**: a node that keeps crashing is not worth respawning
forever.  More than :data:`MAX_RESTARTS` successful respawns inside
:data:`RESTART_WINDOW_SECONDS` trips the breaker: the node falls back to the
pre-supervisor behaviour — permanent eviction — and stays down until an
operator intervenes (:meth:`reset`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cache.cluster import CacheCluster
from repro.cache.membership import ClusterMembership
from repro.clock import Clock, SystemClock

__all__ = ["NodeSupervisor", "SupervisorStats", "NODE_STATES"]

#: The per-node states of the supervision state machine.
NODE_STATES = ("serving", "backoff", "gave_up")

#: Respawns allowed inside the window before the circuit breaker trips and
#: the node is given up on (permanent eviction).
MAX_RESTARTS = 5

#: Width of the circuit-breaker restart-counting window, in clock seconds.
RESTART_WINDOW_SECONDS = 60.0

#: Growth of the respawn delay per crash-loop rung.
BACKOFF_MULTIPLIER = 2.0

#: First respawn delay after a death, in clock seconds (before jitter).
BACKOFF_BASE_SECONDS = 0.1

#: Cap on any one respawn delay, in clock seconds (before jitter).
BACKOFF_MAX_SECONDS = 5.0

#: Largest share of a respawn delay that jitter may take off.
JITTER_FRACTION = 0.5


@dataclass
class SupervisorStats:
    """Counters kept by one :class:`NodeSupervisor`."""

    #: Node deaths noticed (threshold evictions of supervised nodes).
    deaths_detected: int = 0
    #: Successful respawns (node provisioned and rejoined warm).
    respawns: int = 0
    #: Respawn attempts that failed to bring a node up (retried later).
    respawn_failures: int = 0
    #: Circuit-breaker trips: nodes given up on after crash-looping.
    circuit_breaker_trips: int = 0


@dataclass
class _NodeRecord:
    """What the supervisor knows about one registered node."""

    name: str
    capacity_bytes: int
    state: str = "serving"
    #: Consecutive failed respawn attempts (drives the backoff ladder
    #: together with the recent-restart count).
    failed_attempts: int = 0
    #: Earliest clock time of the next respawn attempt (backoff state).
    next_attempt_at: float = 0.0
    #: Clock times of successful respawns (circuit-breaker window).
    restart_times: List[float] = field(default_factory=list)


class NodeSupervisor:
    """Crash-respawn supervisor for one cache cluster.

    Built by :class:`repro.deployment.TxCacheDeployment` (knob:
    ``supervision``) and pumped from its ``housekeeping()``; usable
    standalone for tests.  All timing runs on the injected clock.
    """

    def __init__(
        self,
        cluster: CacheCluster,
        membership: ClusterMembership,
        clock: Optional[Clock] = None,
    ) -> None:
        self.cluster = cluster
        self.membership = membership
        self.clock = clock or SystemClock()
        #: The backoff ladder and the circuit breaker's bounds; a test may
        #: narrow them on the instance before the first crash.
        self.backoff_base_seconds = BACKOFF_BASE_SECONDS
        self.jitter_fraction = JITTER_FRACTION
        self.max_restarts = MAX_RESTARTS
        self.restart_window_seconds = RESTART_WINDOW_SECONDS
        self.stats = SupervisorStats()
        self._rng = random.Random(0)
        self._nodes: Dict[str, _NodeRecord] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name: str, capacity_bytes: int) -> None:
        """Start supervising ``name`` (idempotent; spec is remembered for
        respawn — a crashed node comes back at its registered capacity)."""
        record = self._nodes.get(name)
        if record is None:
            self._nodes[name] = _NodeRecord(name=name, capacity_bytes=capacity_bytes)
        else:
            record.capacity_bytes = capacity_bytes

    def forget(self, name: str) -> None:
        """Stop supervising ``name`` (planned removals must not respawn)."""
        self._nodes.pop(name, None)

    def reset(self, name: str) -> None:
        """Operator override: clear the breaker and re-arm supervision."""
        record = self._nodes.get(name)
        if record is not None:
            record.state = (
                "serving" if name in self.cluster.transports else "backoff"
            )
            record.failed_attempts = 0
            record.restart_times.clear()
            record.next_attempt_at = self.clock.now()

    @property
    def states(self) -> Dict[str, str]:
        """Current supervision state per registered node."""
        return {name: record.state for name, record in self._nodes.items()}

    # ------------------------------------------------------------------
    # The pump (one pass of the state machine; no threads)
    # ------------------------------------------------------------------
    def pump(self) -> int:
        """Run one supervision pass; returns the number of respawns done."""
        now = self.clock.now()
        respawned = 0
        for record in list(self._nodes.values()):
            if record.state == "gave_up":
                continue
            if record.state == "serving":
                if self.cluster.probe_node(record.name):
                    continue
                if record.name in self.cluster.transports:
                    continue  # failed, short of the threshold
                self._mark_dead(record, now)
            if record.state == "backoff" and now >= record.next_attempt_at:
                if self._breaker_tripped(record, now):
                    continue
                respawned += self._attempt_respawn(record, now)
        return respawned

    def _mark_dead(self, record: _NodeRecord, now: float) -> None:
        self.stats.deaths_detected += 1
        record.state = "backoff"
        record.failed_attempts = 0
        record.next_attempt_at = now + self._backoff_delay(record, now)

    # ------------------------------------------------------------------
    # Respawn
    # ------------------------------------------------------------------
    def _backoff_delay(self, record: _NodeRecord, now: float) -> float:
        """Exponential backoff with jitter; the rung is the worse of the
        crash-loop depth (recent restarts) and failed spawn attempts."""
        self._prune_window(record, now)
        rung = max(len(record.restart_times), record.failed_attempts)
        delay = min(
            self.backoff_base_seconds * (BACKOFF_MULTIPLIER**rung),
            BACKOFF_MAX_SECONDS,
        )
        if self.jitter_fraction > 0:
            delay *= 1.0 - self.jitter_fraction * self._rng.random()
        return delay

    def _prune_window(self, record: _NodeRecord, now: float) -> None:
        cutoff = now - self.restart_window_seconds
        record.restart_times = [t for t in record.restart_times if t > cutoff]

    def _breaker_tripped(self, record: _NodeRecord, now: float) -> bool:
        self._prune_window(record, now)
        if len(record.restart_times) >= self.max_restarts:
            record.state = "gave_up"
            self.stats.circuit_breaker_trips += 1
            return True
        return False

    def _attempt_respawn(self, record: _NodeRecord, now: float) -> int:
        name = record.name
        if name in self.cluster.transports:
            # Someone else (an operator add_cache_node) brought it back.
            record.state = "serving"
            record.failed_attempts = 0
            return 0
        try:
            self.membership.join(
                name, capacity_bytes=record.capacity_bytes, migrate=True
            )
        except Exception:
            # Spawn failed (port, fork, handshake…): climb the backoff
            # ladder and try again later.  Never let a bad spawn take the
            # housekeeping pass down with it.
            self.stats.respawn_failures += 1
            record.failed_attempts += 1
            record.next_attempt_at = now + self._backoff_delay(record, now)
            return 0
        record.state = "serving"
        record.failed_attempts = 0
        record.restart_times.append(now)
        self.stats.respawns += 1
        return 1
