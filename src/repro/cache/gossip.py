"""SWIM-style gossip membership: who is in the cache tier, without a master.

The membership coordinator (:mod:`repro.cache.membership`) versions the node
set into epochs, but *observing* failures was still centralized: one process
watched transport errors and ran the epoch change.  This module removes that
single witness.  Every cache node (and every application server) keeps a
table of **versioned node records** and exchanges compressed **digests** of
it; any two parties that have seen the same set of digests hold *identical*
tables, no matter the delivery order — the merge is a join-semilattice — so
the whole cluster converges on the same membership view with no coordinator
process in the loop.

Records and the merge
---------------------
A record is ``(name, incarnation, heartbeat, status)`` with status one of
``alive | suspect | left | dead``.  Records are totally ordered by their
**precedence** ``(incarnation, status rank, heartbeat)`` where the rank
orders ``alive < suspect < left < dead``; merging two digests keeps, per
node, the record with the higher precedence.  A total order makes the merge
commutative, associative, and idempotent (property-tested in
``tests/test_gossip.py``), which is the entire correctness story: gossip may
duplicate, reorder, or drop messages and the views still converge.

The SWIM state machine
----------------------
* A member bumps its own ``heartbeat`` every :meth:`GossipAgent.tick`;
  heartbeat advances are proof of life.
* A peer whose heartbeat has not advanced for ``suspect_timeout`` seconds is
  locally marked **suspect** — at its *current* incarnation, so the record
  gossips ahead of any stale ``alive`` record of the same incarnation
  (rank beats heartbeat at equal incarnation).
* A suspect that stays unrefuted for ``confirm_timeout`` more seconds is
  confirmed **dead**.  Confirmations are what membership acts on
  (ring eviction, anti-entropy repair).
* A node that hears itself suspected or confirmed **refutes** by bumping its
  ``incarnation`` — the only way an alive record can override a suspicion.
  Consequently a healed partition can never resurrect an evicted node with
  a *stale* incarnation: its old ``alive`` record loses the merge against
  the ``dead`` record at the same incarnation, and only the node itself,
  by re-announcing at a higher incarnation, can rejoin the view.

Digest exchange rides the existing cache wire protocol as the ``gossip``
operation (see :data:`repro.comm.wire.OPCODES`): an application server
relays its digest to a node, the node's resident agent merges it and
answers with its own — a push-pull round over the same sockets the data
path uses.  :class:`GossipRunner` drives those rounds for a deployment and
feeds confirmed deaths into the membership coordinator.

All timeouts are measured on an injected :class:`repro.clock.Clock`, so the
deterministic simulator (``tests/simulator.py``) can replay convergence,
flapping, and refutation schedules exactly.
"""

from __future__ import annotations

import hashlib
import random
import threading
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.clock import Clock, ManualClock
from repro.comm.transport import _FAILURE_EXCEPTIONS

__all__ = [
    "ALIVE",
    "SUSPECT",
    "LEFT",
    "DEAD",
    "STATUSES",
    "GossipAgent",
    "GossipRunner",
    "record_precedence",
    "merge_digests",
]

ALIVE = "alive"
SUSPECT = "suspect"
LEFT = "left"
DEAD = "dead"

#: Status rank used by the record total order: at equal incarnation a
#: suspicion overrides liveness (refutation requires an incarnation bump),
#: and a departure/death overrides both — the SWIM precedence rules.
_STATUS_RANK = {ALIVE: 0, SUSPECT: 1, LEFT: 2, DEAD: 3}
STATUSES = tuple(_STATUS_RANK)

#: Wire form of one node's record: ``(incarnation, heartbeat, status)``.
Record = Tuple[int, int, str]
#: Wire form of a digest: node name -> record.
Digest = Dict[str, Record]


def record_precedence(record: Record) -> Tuple[int, int, int]:
    """The total order merged digests are maximized under.

    ``(incarnation, status rank, heartbeat)`` lexicographically: a higher
    incarnation wins outright; at equal incarnation a "worse" status wins
    (suspicion/death override stale liveness); heartbeats only break ties
    between records of the same incarnation and status.  The rank map is
    injective over statuses, so equal precedence implies equal records —
    which is what makes the per-node max a true semilattice join.
    """
    incarnation, heartbeat, status = record
    return (incarnation, _STATUS_RANK[status], heartbeat)


def merge_digests(base: Digest, update: Digest) -> Digest:
    """Join two digests: per node, keep the record with higher precedence.

    Pure and total-order-driven, hence commutative, associative, and
    idempotent — any delivery order of the same digest set produces the
    same table.  Raises ``KeyError`` on an unknown status and ``ValueError``
    on a malformed record, so a corrupt frame cannot poison a view.
    """
    merged = dict(base)
    for name, record in update.items():
        incarnation, heartbeat, status = record  # ValueError if malformed
        if status not in _STATUS_RANK:
            raise KeyError(status)
        candidate = (int(incarnation), int(heartbeat), status)
        current = merged.get(name)
        if current is None or record_precedence(candidate) > record_precedence(current):
            merged[name] = candidate
    return merged


class GossipAgent:
    """One participant's membership table and SWIM failure detector.

    Thread-safe: servers call :meth:`exchange` from handler threads while a
    runner ticks the agent.  ``member=False`` builds an *observer* — an
    application-server-side agent that merges, suspects, and confirms like
    any other but never inserts itself into the view (it is not a cache
    node, so it must not appear in membership epochs).
    """

    def __init__(
        self,
        name: str,
        clock: Clock,
        peers: Iterable[str] = (),
        suspect_timeout: float = 2.0,
        confirm_timeout: float = 4.0,
        member: bool = True,
        initial_incarnation: int = 0,
        on_transition: Optional[Callable[[str, Optional[str], str], None]] = None,
    ) -> None:
        if suspect_timeout <= 0 or confirm_timeout <= 0:
            raise ValueError("gossip timeouts must be positive")
        self.name = name
        self.clock = clock
        self.member = member
        self.suspect_timeout = suspect_timeout
        self.confirm_timeout = confirm_timeout
        #: Called with ``(name, old_status, new_status)`` on every peer
        #: status change this agent adopts (locally detected or merged).
        self.on_transition = on_transition
        self.incarnation = initial_incarnation
        #: Times this agent refuted a suspicion/death of itself.
        self.refutations = 0
        self._heartbeat = 0
        self._left = False
        self._lock = threading.RLock()
        self._records: Dict[str, Record] = {}
        #: Local receipt time of the last liveness progress per peer
        #: (heartbeat or incarnation advance carrying an alive status).
        self._last_progress: Dict[str, float] = {}
        #: Local time the peer's current status was adopted.
        self._status_since: Dict[str, float] = {}
        now = clock.now()
        if member:
            self._install(name, (self.incarnation, 0, ALIVE), now, notify=False)
        for peer in peers:
            if peer != name:
                self._install(peer, (0, 0, ALIVE), now, notify=False)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def digest(self) -> Digest:
        """A snapshot of the full record table (the gossip payload)."""
        with self._lock:
            return dict(self._records)

    def record(self, name: str) -> Optional[Record]:
        with self._lock:
            return self._records.get(name)

    def status_of(self, name: str) -> Optional[str]:
        record = self.record(name)
        return record[2] if record is not None else None

    def members(self, include_suspect: bool = True) -> List[str]:
        """Nodes this agent currently counts as cluster members, sorted.

        Suspects are still members (they are routed to until confirmed);
        ``include_suspect=False`` narrows to nodes positively alive.
        """
        wanted = (ALIVE, SUSPECT) if include_suspect else (ALIVE,)
        with self._lock:
            return sorted(
                name for name, rec in self._records.items() if rec[2] in wanted
            )

    def view(self) -> Tuple[Tuple[int, str, str], ...]:
        """The heartbeat-free membership view: sorted (incarnation, status)
        per node.  Two agents with equal views agree on the epoch."""
        with self._lock:
            return tuple(
                sorted((inc, name, status) for name, (inc, _hb, status) in self._records.items())
            )

    def epoch_token(self) -> str:
        """A comparable fingerprint of the membership view.

        Heartbeats are excluded (they advance constantly); everything that
        defines the epoch — who is in, at which incarnation, in which state
        — is included.  Every agent of a converged cluster reports the same
        token, which is the coordinator-free replacement for comparing a
        central coordinator's epoch counter.
        """
        return hashlib.sha1(repr(self.view()).encode()).hexdigest()[:16]

    # ------------------------------------------------------------------
    # The protocol
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One local protocol step: prove own liveness, advance timeouts."""
        with self._lock:
            now = self.clock.now()
            if self.member and not self._left:
                own = self._records.get(self.name)
                if own is None or own[2] == ALIVE:
                    self._heartbeat += 1
                    self._records[self.name] = (self.incarnation, self._heartbeat, ALIVE)
            for name in list(self._records):
                if name == self.name:
                    continue
                incarnation, heartbeat, status = self._records[name]
                if status == ALIVE:
                    if now - self._last_progress.get(name, now) >= self.suspect_timeout:
                        self._install(name, (incarnation, heartbeat, SUSPECT), now)
                elif status == SUSPECT:
                    if now - self._status_since.get(name, now) >= self.confirm_timeout:
                        self._install(name, (incarnation, heartbeat, DEAD), now)

    def receive(self, digest: Digest) -> None:
        """Merge a peer's digest into the table (one gossip delivery)."""
        with self._lock:
            now = self.clock.now()
            for name, record in digest.items():
                incarnation, heartbeat, status = record
                if status not in _STATUS_RANK:
                    raise ValueError(f"unknown gossip status {status!r}")
                self._install(name, (int(incarnation), int(heartbeat), status), now)
            self._refute_if_accused(now)

    def exchange(self, digest: Digest) -> Digest:
        """Server-side half of a push-pull round: merge, answer with ours."""
        self.receive(digest)
        return self.digest()

    def leave(self) -> Record:
        """Announce a planned departure; returns the record to gossip."""
        with self._lock:
            self._left = True
            self._heartbeat += 1
            record = (self.incarnation, self._heartbeat, LEFT)
            self._records[self.name] = record
            return record

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _install(self, name: str, record: Record, now: float, notify: bool = True) -> bool:
        """Adopt ``record`` for ``name`` if it has precedence; bookkeeping."""
        current = self._records.get(name)
        if current is not None and record_precedence(record) <= record_precedence(current):
            return False
        self._records[name] = record
        # Liveness progress: an alive record whose (incarnation, heartbeat)
        # advanced restarts the suspect clock.
        if record[2] == ALIVE and (
            current is None or record[0] > current[0] or record[1] > current[1]
        ):
            self._last_progress[name] = now
        self._last_progress.setdefault(name, now)
        old_status = current[2] if current is not None else None
        if old_status != record[2]:
            self._status_since[name] = now
            if notify and name != self.name and self.on_transition is not None:
                self.on_transition(name, old_status, record[2])
        return True

    def _refute_if_accused(self, now: float) -> None:
        """Bump the incarnation if the merged table calls us suspect/dead."""
        if not self.member or self._left:
            return
        own = self._records.get(self.name)
        if own is None or own[2] == ALIVE:
            return
        self.incarnation = own[0] + 1
        self._heartbeat += 1
        self._records[self.name] = (self.incarnation, self._heartbeat, ALIVE)
        self._last_progress[self.name] = now
        self._status_since[self.name] = now
        self.refutations += 1


class GossipRunner:
    """Drives gossip rounds for one deployment's cache cluster.

    Every cache node hosts a resident :class:`GossipAgent` (attached to its
    :class:`repro.cache.server.CacheServer`, reachable via the ``gossip``
    wire op under every transport), and the application server runs an
    *observer* agent.  :meth:`round` performs one push-pull exchange per
    agent with seeded-random peers — the observer relays digests between
    nodes, so node agents converge on each other's state without
    node-to-node connections — and then applies the observer's confirmed
    deaths to the membership coordinator (ring eviction + repair), which is
    how the gossip verdicts, not transport error counters, end the epoch.

    Deterministic: peer selection comes from one seeded RNG and all
    timeouts read the injected clock, so a test that controls the clock
    replays the same rounds exactly.
    """

    def __init__(
        self,
        cluster,
        membership=None,
        clock: Optional[Clock] = None,
        suspect_timeout: float = 2.0,
        confirm_timeout: float = 4.0,
        fanout: int = 1,
        seed: int = 0,
    ) -> None:
        if fanout < 1:
            raise ValueError("fanout must be positive")
        self.cluster = cluster
        self.membership = membership
        self.clock = clock if clock is not None else cluster._clock
        self.suspect_timeout = suspect_timeout
        self.confirm_timeout = confirm_timeout
        self.fanout = fanout
        self.agents: Dict[str, GossipAgent] = {}
        self._rng = random.Random(seed)
        self._pending_confirmed: List[str] = []
        names = sorted(cluster.transports)
        self.observer = GossipAgent(
            "@observer",
            self.clock,
            peers=names,
            suspect_timeout=suspect_timeout,
            confirm_timeout=confirm_timeout,
            member=False,
            on_transition=self._observed,
        )
        for name in names:
            self.register(name)

    # ------------------------------------------------------------------
    def register(self, name: str) -> GossipAgent:
        """Attach a (possibly rejoining) node's resident agent.

        A rejoiner after a confirmed death must come back at a *fresh*
        incarnation — higher than its death record — or the cluster's
        tombstone would (correctly) out-rank its alive announcements
        forever.
        """
        prior = self.observer.record(name)
        incarnation = prior[0] + 1 if prior is not None and prior[2] in (DEAD, LEFT) else 0
        agent = GossipAgent(
            name,
            self.clock,
            peers=[peer for peer in self.agents if peer != name],
            suspect_timeout=self.suspect_timeout,
            confirm_timeout=self.confirm_timeout,
            initial_incarnation=incarnation,
        )
        server = self.cluster.servers.get(name)
        if server is not None:
            server.gossip_agent = agent
        self.agents[name] = agent
        # Introduce the newcomer to the observer at its fresh incarnation so
        # relays start carrying it immediately.
        self.observer.receive({name: (incarnation, 0, ALIVE)})
        return agent

    def leave(self, name: str) -> None:
        """Spread a planned departure (the coordinator relays the record)."""
        agent = self.agents.pop(name, None)
        if agent is None:
            return
        record = agent.leave()
        self.observer.receive({name: record})
        for other in self.agents.values():
            other.receive({name: record})

    # ------------------------------------------------------------------
    def round(self) -> None:
        """One gossip round: tick every agent, relay digests, act.

        Node-to-node gossip is *relayed*: the runner pulls ``src``'s digest
        over src's wire, pushes it to ``dst`` over dst's wire, and carries
        the reply back over src's wire again.  Every hop crosses the
        respective node's transport, so a partitioned or dead node is
        silenced in **both** directions — its heartbeats stop reaching the
        cluster the moment its link does, which is what arms the failure
        detector.
        """
        for name in sorted(self.agents):
            self.agents[name].tick()
        self.observer.tick()
        for name in sorted(self.agents):
            agent = self.agents[name]
            peers = [
                peer
                for peer in sorted(self.agents)
                if peer != name and agent.status_of(peer) not in (DEAD, LEFT)
            ]
            for _ in range(min(self.fanout, len(peers))):
                self._relay(name, self._rng.choice(peers))
        for peer in sorted(self.agents):
            if self.observer.status_of(peer) in (DEAD, LEFT):
                continue
            self._exchange(self.observer, peer)
        self._apply_confirmations()

    def run_rounds(self, rounds: int, advance: float = 0.0) -> None:
        """Convenience: several rounds, optionally advancing a manual clock."""
        for _ in range(rounds):
            if advance and isinstance(self.clock, ManualClock):
                self.clock.advance(advance)
            self.round()

    def converged(self) -> bool:
        """True when every live agent and the observer agree on the epoch."""
        tokens = {self.observer.epoch_token()}
        for name, agent in self.agents.items():
            if self.observer.status_of(name) in (DEAD, LEFT):
                continue
            tokens.add(agent.epoch_token())
        return len(tokens) == 1

    # ------------------------------------------------------------------
    def _relay(self, src: str, dst: str) -> None:
        """One relayed push-pull: src's wire -> dst's wire -> src's wire."""
        digest = self._wire(src, {})  # empty push merges as a no-op: a pull
        if digest is None:
            return
        reply = self._wire(dst, digest)
        if reply is None:
            return
        self._wire(src, reply)

    def _wire(self, node: str, digest: Digest) -> Optional[Digest]:
        """One gossip RPC over ``node``'s transport; None when unreachable."""
        transport = self.cluster.transports.get(node)
        if transport is None:
            return None
        try:
            reply = transport.gossip(digest)
        except _FAILURE_EXCEPTIONS:
            return None  # gossip's own timeouts are the failure detector
        agent = self.agents.get(node)
        if agent is not None and self.cluster.servers.get(node) is None:
            # Process-hosted node: the resident agent cannot live in the
            # child (the runner's deterministic clock does not cross the
            # process boundary), so the runner hosts it as the node's
            # stand-in.  The wire op above is still what proves liveness —
            # a partitioned or dead node fails the RPC and is silenced in
            # both directions, exactly like a thread-hosted node — and the
            # agentless child's empty reply is discarded for the local
            # exchange.
            return agent.exchange(digest)
        return reply

    def _exchange(self, agent: GossipAgent, peer: str) -> None:
        reply = self._wire(peer, agent.digest())
        if reply:
            agent.receive(reply)

    def _observed(self, name: str, _old: Optional[str], new: str) -> None:
        if new == DEAD:
            self._pending_confirmed.append(name)

    def _apply_confirmations(self) -> None:
        """Evict gossip-confirmed dead nodes from the routing ring."""
        pending, self._pending_confirmed = self._pending_confirmed, []
        if self.membership is None:
            return
        for name in pending:
            if name in self.cluster.ring:
                self.membership.evict(name)
