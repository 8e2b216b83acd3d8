"""Ordered multicast of invalidation messages to cache nodes.

The paper distributes invalidations from the database to every cache node as
an *invalidation stream*: an ordered sequence of messages, one per update
transaction, each carrying the transaction's commit timestamp and the set of
invalidation tags it affected (section 4.2).  Delivery uses a reliable
application-level multicast service.

This module reproduces that transport as an in-process bus.  By default,
messages are delivered synchronously and in order, which matches the paper's
assumption of reliable ordered delivery.  For testing race conditions the bus
can be switched to *deferred* mode, where published messages queue up until
:meth:`InvalidationBus.deliver_pending` is called; this lets tests exercise
the window between a database commit and the cache learning about it, the
exact scenario the paper's timestamp-ordering protocol is designed to make
harmless.

Thread safety
-------------
:class:`InvalidationBus` is thread-safe: a single reentrant lock guards the
subscriber list, the pending queue, and delivery.  Publication order *is*
delivery order even with concurrent publishers because the lock is held
across the publish-and-deliver pair; a subscriber (un)subscribing while
another thread is mid-delivery blocks until that delivery completes, and the
delivery loop works from a snapshot of the subscriber list taken under the
lock, so a subscriber removed *during* delivery (e.g. a dead cache node being
evicted from inside its own failure handler — the lock is reentrant exactly
for this) can never corrupt the iteration.  Subscribers added mid-delivery
see only later messages, which is the membership contract: a node joining
the stream is warmed by migration, not by replaying the past.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, List, NamedTuple, Protocol, Tuple

__all__ = ["InvalidationMessage", "Subscriber", "InvalidationBus"]


class InvalidationMessage(NamedTuple):
    """One entry of the invalidation stream.

    A named pair, like the tags it carries: hashing and equality run in C.

    Attributes:
        timestamp: commit timestamp of the update transaction.
        tags: invalidation tags affected by the transaction (a tuple of
            :class:`repro.db.invalidation.InvalidationTag`).
    """

    timestamp: int
    tags: Tuple = ()


class Subscriber(Protocol):
    """Anything that consumes the invalidation stream (cache servers)."""

    def process_invalidation(self, message: InvalidationMessage) -> None:
        """Apply one invalidation message."""


class InvalidationBus:
    """Reliable, ordered fan-out of invalidation messages.

    Messages are delivered to subscribers in publication order.  In
    synchronous mode (the default) delivery happens inside :meth:`publish`;
    in deferred mode messages accumulate until :meth:`deliver_pending`.
    """

    def __init__(self, synchronous: bool = True) -> None:
        #: Guards subscribers, the pending queue, and delivery; reentrant so
        #: a subscriber may unsubscribe (itself or another node) from inside
        #: its own process_invalidation callback.
        self._lock = threading.RLock()
        self._subscribers: List[Subscriber] = []
        self._pending: Deque[InvalidationMessage] = deque()
        self._synchronous = synchronous
        self._last_published: int = -1
        self._delivered_count = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def subscribe(self, subscriber: Subscriber) -> None:
        """Register a cache node to receive the invalidation stream."""
        with self._lock:
            if subscriber not in self._subscribers:
                self._subscribers.append(subscriber)

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Remove a cache node from the stream."""
        with self._lock:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)

    @property
    def subscribers(self) -> List[Subscriber]:
        """Currently registered subscribers."""
        with self._lock:
            return list(self._subscribers)

    # ------------------------------------------------------------------
    # Publication and delivery
    # ------------------------------------------------------------------
    def publish(self, message: InvalidationMessage) -> None:
        """Publish one message; messages must arrive in timestamp order.

        The lock is held across validation, queueing, and (in synchronous
        mode) delivery, so concurrent publishers cannot interleave their
        messages out of timestamp order on the wire.
        """
        with self._lock:
            self.enqueue(message)
            if self._synchronous:
                self.deliver_pending()

    def enqueue(self, message: InvalidationMessage) -> None:
        """Validate ordering and queue one message *without* delivering it.

        The cheap half of :meth:`publish`: a committer holding the
        database's commit lock enqueues here (preserving timestamp order)
        and runs :meth:`deliver_pending` only after releasing that lock, so
        a blocking transport (a hung networked cache node) can never stall
        every reader queued on the commit lock.  Delivery stays ordered
        regardless of which committer ends up draining the queue.
        """
        with self._lock:
            if message.timestamp <= self._last_published:
                raise ValueError(
                    "invalidation stream out of order: "
                    f"{message.timestamp} after {self._last_published}"
                )
            self._last_published = message.timestamp
            self._pending.append(message)

    def deliver_pending(self) -> int:
        """Deliver every queued message, in order.  Returns the count."""
        with self._lock:
            delivered = 0
            while self._pending:
                message = self._pending.popleft()
                # Snapshot the subscriber list under the lock: a concurrent
                # subscribe/unsubscribe (or a dead cache node evicting itself
                # mid-delivery) must never mutate the list being iterated.
                for subscriber in list(self._subscribers):
                    subscriber.process_invalidation(message)
                delivered += 1
                self._delivered_count += 1
            return delivered

    def set_synchronous(self, synchronous: bool) -> None:
        """Switch between immediate and deferred delivery."""
        with self._lock:
            self._synchronous = synchronous
            if synchronous:
                self.deliver_pending()

    @property
    def synchronous(self) -> bool:
        """True when published messages are delivered immediately."""
        return self._synchronous

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Number of published-but-undelivered messages."""
        with self._lock:
            return len(self._pending)

    @property
    def delivered_count(self) -> int:
        """Total messages delivered since creation."""
        return self._delivered_count

    @property
    def last_published_timestamp(self) -> int:
        """Timestamp of the most recently published message (-1 if none)."""
        return self._last_published
