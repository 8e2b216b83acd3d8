"""Transport abstraction between the TxCache library and a cache node.

The paper's deployment runs each cache node as a standalone server that the
application servers reach over the network; this reproduction originally
wired the client library straight into in-process :class:`CacheServer`
objects.  :class:`CacheTransport` is the seam between the two worlds: the
cluster (and through it the client library) speaks only this protocol, and a
deployment chooses how each node is reached:

* :class:`InProcessTransport` — direct method calls on a local server, with
  zero overhead; behaviour is identical to the pre-transport code path.
* :class:`repro.cache.netserver.SocketTransport` — the framed wire
  protocol of :mod:`repro.comm.wire` over TCP to a
  :class:`repro.cache.netserver.CacheServerProcess`, which is how a
  production topology (RPC cost, batching, node churn) is represented.

Both transports carry the invalidation stream as well: a transport is what
the deployment subscribes to the :class:`repro.comm.multicast.InvalidationBus`,
so invalidations follow the same path as cache operations regardless of how
the node is deployed.

The operations mirror the cache server's public surface: ``lookup``,
``multi_lookup`` (a batch of lookups answered in one round trip),
``put``, ``probe``, ``was_ever_stored``, ``evict_stale``, ``clear`` and
``stats``, plus the key-migration operations used by the membership
subsystem (``extract_entries``, ``install_entries``, ``discard_keys``,
``keys``, ``watermark``), the autonomous-cluster-plane operations
(``gossip`` digest exchange, ``key_digest``/``keys_in_range`` for per-arc
anti-entropy planning), the invalidation-stream entry points
(``process_invalidation``, ``note_timestamp``) and lifecycle helpers
(``reset_stats``, ``close``).

Thread safety: implementations must be safe for concurrent calls from many
client threads, and ``close`` must be idempotent.  ``InProcessTransport``
inherits this from :class:`CacheServer`'s per-server lock (direct calls,
nothing to add); ``SocketTransport`` provides it by multiplexing any number
of in-flight RPCs over one socket — per-request ids, with whichever caller
holds the read lease demultiplexing responses (see
:mod:`repro.cache.netserver`).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    FrozenSet,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.comm.multicast import InvalidationMessage

if TYPE_CHECKING:  # cache modules import repro.comm; avoid the import cycle
    from repro.cache.entry import CacheEntry, EntryRecord, LookupRequest, LookupResult
    from repro.cache.server import CacheServer, CacheServerStats
    from repro.db.invalidation import InvalidationTag
    from repro.interval import Interval

__all__ = [
    "CacheTransport",
    "InProcessTransport",
    "RetryPolicy",
    "IDEMPOTENT_OPS",
    "current_deadline",
    "deadline_scope",
    "remaining_deadline",
]

#: Operations safe to retry blind: re-running one cannot change node state,
#: so a retry after an ambiguous connection failure (the response may or may
#: not have been computed) is always harmless.  ``put`` and the invalidation
#: ops are deliberately absent — a blind ``put`` retry could re-insert an
#: entry an invalidation already truncated, and replayed invalidation
#: batches would double-advance watermark accounting; their connection
#: errors surface to the caller exactly as before retries existed.
IDEMPOTENT_OPS = frozenset(
    {
        "lookup",
        "multi_lookup",
        "probe",
        "key_digest",
        "keys_in_range",
        "versions_of",
    }
)

#: Thread-local carrier of the current per-op deadline (monotonic seconds).
#: One budget spans dial + retries + replica failover for a single routed
#: cluster operation; transports consult it to cap their per-attempt waits.
_DEADLINE = threading.local()


def current_deadline() -> Optional[float]:
    """The active per-op deadline (``time.monotonic()`` terms), or None."""
    return getattr(_DEADLINE, "value", None)


def remaining_deadline() -> Optional[float]:
    """Seconds left in the active deadline scope (None when no scope)."""
    deadline = current_deadline()
    if deadline is None:
        return None
    return deadline - time.monotonic()


class deadline_scope:
    """Establish a per-op deadline for every transport call in the block.

    The deadline is an absolute ``time.monotonic()`` instant (None: no
    deadline), and ``with ... as`` binds it.  Scopes nest: the inner scope
    wins for its duration and the outer one is restored on exit.
    Transports treat the scoped deadline as a *cap* on their own
    per-attempt timeouts (dial and RPC waits), so one budget bounds an
    entire routed operation — including retries and replica failover —
    instead of each attempt getting a fresh full timeout.  Entering and
    leaving cost one thread-local assignment each: every routed cache
    operation opens one.
    """

    __slots__ = ("_deadline", "_previous")

    def __init__(self, deadline: Optional[float]) -> None:
        self._deadline = deadline

    def __enter__(self) -> Optional[float]:
        self._previous = getattr(_DEADLINE, "value", None)
        _DEADLINE.value = self._deadline
        return self._deadline

    def __exit__(self, exc_type, exc, traceback) -> None:
        _DEADLINE.value = self._previous


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry policy for idempotent cache reads.

    The cluster makes the first attempt of a routed call itself and comes
    to :meth:`run` only when that attempt failed: transient connection
    failures against one node are retried up to ``max_attempts`` times
    (the failed first attempt included) with exponential backoff and
    jitter, all under the op's single deadline budget
    (``deadline_seconds``, defaulting to the cluster's
    ``rpc_timeout_seconds``).  Only operations in :data:`IDEMPOTENT_OPS`
    ever retry; everything else gets exactly one attempt, preserving the
    pre-retry failure semantics of writes.
    """

    #: Attempts per node per operation (1 = no retries).
    max_attempts: int = 3
    #: First backoff delay; doubles (times ``backoff_multiplier``) per retry.
    base_backoff_seconds: float = 0.01
    backoff_multiplier: float = 2.0
    #: Cap on any single backoff delay.
    max_backoff_seconds: float = 0.25
    #: Fraction of each delay randomized away (0 = deterministic ladder,
    #: 1 = anywhere in ``[0, delay]``).  Jitter decorrelates retry storms
    #: from many client threads hitting one recovering node.
    jitter_fraction: float = 0.5
    #: Deadline budget per routed operation; None uses the cluster's
    #: ``rpc_timeout_seconds``.
    deadline_seconds: Optional[float] = None

    def retries(self, op: str) -> bool:
        """Whether ``op`` may be retried blind."""
        return op in IDEMPOTENT_OPS and self.max_attempts > 1

    def backoff_seconds(self, attempt: int, rng: random.Random) -> float:
        """Jittered delay before retry number ``attempt`` (0-based)."""
        delay = min(
            self.base_backoff_seconds * (self.backoff_multiplier**attempt),
            self.max_backoff_seconds,
        )
        if self.jitter_fraction > 0:
            delay *= 1.0 - self.jitter_fraction * rng.random()
        return delay

    def run(
        self,
        op: str,
        call: Callable[[], object],
        retry_on: Tuple[type, ...],
        rng: random.Random,
        sleep: Callable[[float], None] = time.sleep,
        failure: Optional[BaseException] = None,
    ) -> object:
        """Run ``call`` with retries (idempotent ops only) under the deadline.

        Exceptions in ``retry_on`` are retried; anything else propagates
        immediately.  A retry is abandoned (the last failure re-raised)
        when the backoff delay would cross the active deadline scope —
        retried reads never exceed their propagated deadline.  ``failure``
        is what a first attempt the caller already made raised: it counts
        as attempt 1, so ``run`` starts at the backoff before attempt 2.
        """
        if not self.retries(op):
            if failure is not None:
                raise failure
            return call()
        attempt = 0
        while True:
            if failure is None:
                try:
                    return call()
                except retry_on as error:
                    failure = error
            attempt += 1
            if attempt >= self.max_attempts:
                raise failure
            delay = self.backoff_seconds(attempt - 1, rng)
            remaining = remaining_deadline()
            if remaining is not None and remaining <= delay:
                raise failure
            if delay > 0:
                sleep(delay)
            failure = None


@runtime_checkable
class CacheTransport(Protocol):
    """How the cluster reaches one cache node, wherever it runs."""

    #: Name of the cache node this transport reaches.
    name: str

    # ------------------------------------------------------------------
    # Cache operations
    # ------------------------------------------------------------------
    def lookup(self, key: str, lo: int, hi: int) -> LookupResult:
        """Versioned lookup of ``key`` over the timestamp range ``[lo, hi]``."""

    def multi_lookup(self, requests: Sequence[LookupRequest]) -> List[LookupResult]:
        """Answer a batch of lookups in one round trip, in order."""

    def put(
        self,
        key: str,
        value: object,
        interval: Interval,
        tags: FrozenSet[InvalidationTag] = frozenset(),
    ) -> bool:
        """Insert one version of ``key``; True if it was stored.

        Every transport takes and returns Python values; how the node holds
        them (the object itself in process, pickled bytes over a socket) is
        the transport's business.
        """

    def probe(self, key: str, lo: int, hi: int) -> bool:
        """Statistics-free hit check over ``[lo, hi]``."""

    def was_ever_stored(self, key: str) -> bool:
        """True if ``key`` has ever been inserted on the node."""

    def evict_stale(self, oldest_useful_timestamp: int) -> int:
        """Eagerly drop entries too stale to be useful; returns the count."""

    def clear(self) -> None:
        """Empty the node."""

    def stats(self) -> CacheServerStats:
        """A snapshot of the node's counters."""

    def reset_stats(self) -> None:
        """Zero the node's counters."""

    # ------------------------------------------------------------------
    # Key migration (cluster elasticity)
    # ------------------------------------------------------------------
    def extract_entries(
        self, cursor: Optional[str] = None, limit: int = 64
    ) -> Tuple[List[EntryRecord], Optional[str]]:
        """Page through the node's entries; returns (records, next_cursor)."""

    def install_entries(self, records: Sequence[EntryRecord]) -> int:
        """Install migrated entry versions; returns how many were stored."""

    def discard_keys(self, keys: Sequence[str]) -> int:
        """Drop every version of the given keys (post-migration cleanup)."""

    def keys(self) -> List[str]:
        """The keys currently stored on the node (sorted, stats-free)."""

    def watermark(self) -> int:
        """The node's highest processed invalidation timestamp."""

    def versions_of(self, key: str) -> List[CacheEntry]:
        """All stored versions of one key (replica-placement introspection)."""

    # ------------------------------------------------------------------
    # Autonomous cluster plane (gossip membership + digest repair)
    # ------------------------------------------------------------------
    def gossip(self, digest: dict) -> dict:
        """Push-pull membership-digest exchange with the node's agent."""

    def key_digest(
        self, arcs: Sequence[Tuple[int, int]], cursor: Optional[str] = None
    ) -> Tuple[List[Tuple[int, int, int]], Optional[str]]:
        """One page of per-arc interval-set digests of the node's stored
        keys, and the cursor of the next page (``None`` after the last)."""

    def keys_in_range(
        self, arcs: Sequence[Tuple[int, int]], cursor: Optional[str] = None
    ) -> Tuple[List[str], Optional[str]]:
        """One page of the stored keys whose hash points fall inside the
        given arcs, and the cursor of the next page (``None`` after the last)."""

    # ------------------------------------------------------------------
    # Invalidation stream (InvalidationBus subscriber surface)
    # ------------------------------------------------------------------
    def process_invalidation(self, message: InvalidationMessage) -> None:
        """Forward one invalidation-stream message to the node."""

    def process_invalidations(self, messages: Sequence[InvalidationMessage]) -> None:
        """Forward a batch of invalidation messages, in timestamp order.

        The batch form of the ``invalidate_tags`` op: one RPC for many
        messages.  Semantically identical to calling
        :meth:`process_invalidation` once per message.
        """

    def note_timestamp(self, timestamp: int) -> None:
        """Advance the node's last-invalidation watermark without tags."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release any resources (connections) held by the transport."""


class InProcessTransport:
    """Zero-overhead transport to a cache server living in this process.

    Every operation is a direct method call, preserving the exact behaviour
    (results, statistics, LRU effects) of the pre-transport code path.
    """

    def __init__(self, server: CacheServer) -> None:
        self.server = server
        self.name = server.name
        #: Calls per operation name — what *would* have crossed the wire.
        #: The socket transport counts the same way, so tests can pin a
        #: code path's RPC cost (e.g. "a clean repair sends only digests")
        #: identically under every transport kind.
        self.op_counts: dict = {}

    def _count(self, op: str) -> None:
        self.op_counts[op] = self.op_counts.get(op, 0) + 1

    # -- cache operations ----------------------------------------------
    def lookup(self, key: str, lo: int, hi: int) -> LookupResult:
        self._count("lookup")
        return self.server.lookup(key, lo, hi)

    def multi_lookup(self, requests: Sequence[LookupRequest]) -> List[LookupResult]:
        self._count("multi_lookup")
        return self.server.multi_lookup(requests)

    def put(
        self,
        key: str,
        value: object,
        interval: Interval,
        tags: FrozenSet[InvalidationTag] = frozenset(),
    ) -> bool:
        self._count("put")
        return self.server.put(key, value, interval, tags)

    def probe(self, key: str, lo: int, hi: int) -> bool:
        self._count("probe")
        return self.server.probe(key, lo, hi)

    def was_ever_stored(self, key: str) -> bool:
        self._count("was_ever_stored")
        return self.server.was_ever_stored(key)

    def evict_stale(self, oldest_useful_timestamp: int) -> int:
        self._count("evict_stale")
        return self.server.evict_stale(oldest_useful_timestamp)

    def clear(self) -> None:
        self._count("clear")
        self.server.clear()

    def stats(self) -> CacheServerStats:
        self._count("stats")
        return self.server.stats_snapshot()

    def reset_stats(self) -> None:
        self._count("reset_stats")
        self.server.reset_stats()

    # -- key migration --------------------------------------------------
    def extract_entries(
        self, cursor: Optional[str] = None, limit: int = 64
    ) -> Tuple[List[EntryRecord], Optional[str]]:
        self._count("extract_entries")
        return self.server.extract_entries(cursor, limit)

    def install_entries(self, records: Sequence[EntryRecord]) -> int:
        self._count("install_entries")
        return self.server.install_entries(records)

    def discard_keys(self, keys: Sequence[str]) -> int:
        self._count("discard_keys")
        return self.server.discard_keys(keys)

    def keys(self) -> List[str]:
        self._count("keys")
        return self.server.keys()

    def watermark(self) -> int:
        self._count("watermark")
        return self.server.last_invalidation_timestamp

    def versions_of(self, key: str) -> List[CacheEntry]:
        self._count("versions_of")
        return self.server.versions_of(key)

    # -- autonomous cluster plane ---------------------------------------
    def gossip(self, digest: dict) -> dict:
        self._count("gossip")
        return self.server.gossip_exchange(digest)

    def key_digest(
        self, arcs: Sequence[Tuple[int, int]], cursor: Optional[str] = None
    ) -> Tuple[List[Tuple[int, int, int]], Optional[str]]:
        self._count("key_digest")
        return self.server.key_digest(arcs, cursor)

    def keys_in_range(
        self, arcs: Sequence[Tuple[int, int]], cursor: Optional[str] = None
    ) -> Tuple[List[str], Optional[str]]:
        self._count("keys_in_range")
        return self.server.keys_in_range(arcs, cursor)

    # -- invalidation stream -------------------------------------------
    def process_invalidation(self, message: InvalidationMessage) -> None:
        self._count("invalidate_tags")
        self.server.process_invalidation(message)

    def process_invalidations(self, messages: Sequence[InvalidationMessage]) -> None:
        self._count("invalidate_tags")
        for message in messages:
            self.server.process_invalidation(message)

    def note_timestamp(self, timestamp: int) -> None:
        self._count("note_timestamp")
        self.server.note_timestamp(timestamp)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Nothing to release for an in-process server."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InProcessTransport({self.name!r})"
