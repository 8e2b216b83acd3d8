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

The operations are what the system sends a node: ``multi_lookup`` (every
lookup, a batch of one or many answered in one round trip), ``put``,
``probe``, ``evict_stale`` and ``stats``, plus the key-migration operations
used by the membership subsystem (``extract_entries``, ``install_entries``,
``discard_keys``, ``watermark``), ``key_digest``/``keys_in_range`` for
per-arc anti-entropy planning, the invalidation-stream entry points
(``process_invalidation``, ``note_timestamp``), introspection (``keys``,
``versions_of``) and lifecycle helpers (``reset_stats``, ``close``).

Thread safety: implementations must be safe for concurrent calls from many
client threads, and ``close`` must be idempotent.  ``InProcessTransport``
inherits this from :class:`CacheServer`'s per-server lock (direct calls,
nothing to add); ``SocketTransport`` provides it by multiplexing any number
of in-flight RPCs over one socket — per-request ids, with whichever caller
holds the read lease demultiplexing responses (see
:mod:`repro.cache.netserver`).

Failure: a transport makes one attempt per call, bounded by its own dial
and RPC timeouts, and an unreachable node raises
:class:`CacheNodeUnreachableError`.  Nothing here retries or sleeps; the
cluster charges the failure to the node once and fails over or degrades
(see :mod:`repro.cache.cluster`).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
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
    "CacheTransportError",
    "CacheNodeUnreachableError",
    "MAX_BATCH_ITEMS",
]

class CacheTransportError(RuntimeError):
    """A cache RPC failed (connection lost or server-side error)."""


class CacheNodeUnreachableError(CacheTransportError):
    """The node could not be reached at all (connection-level I/O failure).

    Distinguished from a server-side error response so failure-aware routing
    (:class:`repro.cache.cluster.CacheCluster`) degrades only on genuine
    connectivity loss, never on an application-level error that would
    otherwise be masked.

    One class for every way of not reaching a node — a failed or timed-out
    dial, an RPC timeout, a connection lost mid-stream — because nothing
    that catches it branches on which: the message says.  Every instance carries ``node`` (the node name or
    address label, when known) and ``op`` (the operation in flight, when
    there was one).
    """

    def __init__(
        self,
        message: str,
        *,
        node: Optional[str] = None,
        op: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.node = node
        self.op = op


#: Exceptions that mean "the node is unreachable" (never server-side errors).
_FAILURE_EXCEPTIONS = (CacheNodeUnreachableError, ConnectionError, OSError)

#: Most items one batch request may carry, the size of a page of a store
#: walk, and most arcs one store walk may name.  A node serves each frame on
#: its one thread, so :func:`repro.comm.wire.decode_binary_args` refuses a
#: longer list from its header, before decoding an item; ``SocketTransport``
#: sends a larger batch as several frames, and the membership mover walks a
#: longer arcs list as several walks.
MAX_BATCH_ITEMS = 1024

@runtime_checkable
class CacheTransport(Protocol):
    """How the cluster reaches one cache node, wherever it runs."""

    #: Name of the cache node this transport reaches.
    name: str

    # ------------------------------------------------------------------
    # Cache operations
    # ------------------------------------------------------------------
    def multi_lookup(self, requests: Sequence[LookupRequest]) -> List[LookupResult]:
        """Answer a batch of versioned lookups, each of a key over a
        timestamp range ``[lo, hi]``, in one round trip, in order."""

    def put(
        self,
        key: str,
        value: object,
        interval: Interval,
        tags: Tuple[InvalidationTag, ...] = (),
    ) -> bool:
        """Insert one version of ``key``; True if it was stored.

        Every transport takes and returns Python values; how the node holds
        them (the object itself in process, pickled bytes over a socket) is
        the transport's business.
        """

    def probe(self, key: str, lo: int, hi: int) -> bool:
        """Statistics-free hit check over ``[lo, hi]``."""

    def evict_stale(self, oldest_useful_timestamp: int) -> int:
        """Eagerly drop entries too stale to be useful; returns the count."""

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
        """The keys currently stored on the node (sorted, stats-free).

        Over a socket this is the full-circle ``keys_in_range`` walk, one
        bounded page per frame."""

    def watermark(self) -> int:
        """The node's highest processed invalidation timestamp."""

    def versions_of(self, key: str) -> List[CacheEntry]:
        """All stored versions of one key (replica-placement introspection)."""

    # ------------------------------------------------------------------
    # Anti-entropy planning (digest repair)
    # ------------------------------------------------------------------
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


class _CrashedServer:
    """What an in-process node's transport calls once the node has crashed:
    every attribute raises, as every RPC to a dead process fails."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __getattr__(self, attribute: str):
        raise CacheNodeUnreachableError(
            f"cache node {self.name!r} has crashed", node=self.name, op=attribute
        )


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
    # The two operations of a cacheable call count in place: a hit's
    # whole budget is a handful of Python calls.
    def multi_lookup(self, requests: Sequence[LookupRequest]) -> List[LookupResult]:
        counts = self.op_counts
        counts["multi_lookup"] = counts.get("multi_lookup", 0) + 1
        return self.server.multi_lookup(requests)

    def put(
        self,
        key: str,
        value: object,
        interval: Interval,
        tags: Tuple[InvalidationTag, ...] = (),
    ) -> bool:
        counts = self.op_counts
        counts["put"] = counts.get("put", 0) + 1
        return self.server.put(key, value, interval, tags)

    def probe(self, key: str, lo: int, hi: int) -> bool:
        self._count("probe")
        return self.server.probe(key, lo, hi)

    def evict_stale(self, oldest_useful_timestamp: int) -> int:
        self._count("evict_stale")
        return self.server.evict_stale(oldest_useful_timestamp)

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

    # -- anti-entropy planning -----------------------------------------
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
    def crash(self) -> None:
        """Crash the node: from now on every call raises
        :class:`CacheNodeUnreachableError`, and its store is gone.  A live
        node's calls are untouched: the server is swapped, not tested."""
        self.server = _CrashedServer(self.name)

    def close(self) -> None:
        """Nothing to release for an in-process server."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InProcessTransport({self.name!r})"
