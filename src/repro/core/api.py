"""The TxCache client library API (paper Figure 2 and section 6).

:class:`TxCacheClient` is what applications link against.  It exposes the
programming model of the paper:

* ``begin_ro(staleness)`` / ``begin_rw()`` / ``commit()`` / ``abort()``;
* ``make_cacheable(fn)`` (and the :meth:`TxCacheClient.cacheable` decorator)
  to designate pure functions whose results are transparently cached, and
  ``call_all(calls)`` to make several such calls with one lookup round trip
  per cache node;
* ``query`` / ``insert`` / ``update`` / ``delete`` to access the database
  within a transaction.

Inside a read-only transaction every value the application sees — cached or
freshly queried — is consistent with the database state at one timestamp.
The library maintains a *pin set* of candidate serialization timestamps and
narrows it lazily as data is observed (section 6.2); database queries are
forced to a specific pinned snapshot only when they can no longer be avoided,
and from then on that snapshot is the transaction's one timestamp.

Read/write transactions bypass the cache and run directly on the database, so
TxCache never weakens the database's own isolation level (section 2.2).

For the paper's baselines the client can also run in two degraded modes:
``NO_CONSISTENCY`` uses the cache and the invalidation machinery but accepts
any value fresh enough for the staleness limit, ignoring mutual consistency
(the "No consistency" line of Figure 5a), and ``NO_CACHE`` bypasses the cache
entirely (the "No caching" baseline).
"""

from __future__ import annotations

import functools
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.cache.cluster import CacheCluster
from repro.cache.entry import LookupRequest
from repro.clock import Clock, SystemClock
from repro.core.exceptions import (
    NotInTransactionError,
    TransactionInProgressError,
    TxCacheError,
)
from repro.core.keys import key_maker
from repro.core.pinset import PinSet
from repro.core.stats import ClientStats, MissType
from repro.core.transaction import CacheableFrame, ReadOnlyState, ReadWriteState
from repro.db.database import Database
from repro.db.executor import QueryResult
from repro.db.query import Predicate, Query
from repro.pincushion.pincushion import PinnedSnapshot, Pincushion

__all__ = ["ConsistencyMode", "TxCacheClient"]

#: Upper bound of a lookup over "any time from X until now".
_FAR_FUTURE = 2**62

#: The keyword arguments of a batched call (it has none); never mutated.
_NO_KWARGS: Dict[str, Any] = {}


class ConsistencyMode(Enum):
    """How the client treats cached data."""

    #: Full TxCache semantics: transactional consistency across cache and
    #: database (the paper's system).
    CONSISTENT = "consistent"
    #: Use the cache and invalidations, but accept any sufficiently fresh
    #: value regardless of mutual consistency (Figure 5a's "No consistency").
    NO_CONSISTENCY = "no-consistency"
    #: Never use the cache (the "No caching" baseline).
    NO_CACHE = "no-cache"


class _TransactionScope:
    """``with client.read_only(...)`` / ``with client.read_write()``: BEGIN
    on entry; on exit COMMIT, or ABORT if the block raised — unless the
    block already finished the transaction itself."""

    __slots__ = ("_client", "_read_only", "_staleness")

    def __init__(
        self, client: "TxCacheClient", read_only: bool, staleness: Optional[float] = None
    ) -> None:
        self._client = client
        self._read_only = read_only
        self._staleness = staleness

    def __enter__(self) -> "TxCacheClient":
        if self._read_only:
            self._client.begin_ro(self._staleness)
        else:
            self._client.begin_rw()
        return self._client

    def __exit__(self, exc_type, exc, traceback) -> None:
        client = self._client
        if client._state is not None:
            if exc_type is None:
                client.commit()
            else:
                client.abort()


class TxCacheClient:
    """Application-side TxCache library instance.

    One client corresponds to one application server process in the paper's
    deployment; several clients may share the same database, cache cluster,
    and pincushion.
    """

    def __init__(
        self,
        database: Database,
        cache: CacheCluster,
        pincushion: Pincushion,
        clock: Optional[Clock] = None,
        mode: ConsistencyMode = ConsistencyMode.CONSISTENT,
        default_staleness: float = 30.0,
        new_pin_threshold: float = 5.0,
    ) -> None:
        self.database = database
        self.cache = cache
        self.pincushion = pincushion
        self.clock = clock or SystemClock()
        self.mode = mode
        self.default_staleness = default_staleness
        #: If the freshest pinned snapshot is older than this many seconds
        #: and ``?`` is still available, a database access pins a brand new
        #: snapshot instead of reusing an old one (the paper's policy for
        #: bounding the number of pinned snapshots, section 6.2).
        self.new_pin_threshold = new_pin_threshold
        self.stats = ClientStats()
        self._state: Optional[Union[ReadOnlyState, ReadWriteState]] = None
        #: A scope holds nothing about the transaction it opens, so the two
        #: argument-free ones are built once, not once per ``with``.
        self._read_only_scope = _TransactionScope(self, True)
        self._read_write_scope = _TransactionScope(self, False)
        #: The keys this transaction stored since the innermost open
        #: :meth:`call_all` sent its batch; ``None`` while none is open.
        self._batch_stores: Optional[Set[str]] = None

    # ==================================================================
    # Transaction control
    # ==================================================================
    def begin_ro(self, staleness: Optional[float] = None) -> None:
        """BEGIN-RO: start a read-only transaction.

        ``staleness`` is the maximum age, in seconds, of the snapshot the
        transaction is willing to observe; it defaults to the client's
        ``default_staleness``.
        """
        if self._state is not None:
            self._check_no_transaction()
        if staleness is None:
            staleness = self.default_staleness
        held = self.pincushion.fresh_snapshots(staleness, mark_in_use=True)
        if not held:
            # No sufficiently fresh pinned snapshot exists: pin the latest
            # one now (paper section 5.4) so the pin set always has at least
            # one concrete serialization point.
            held = [self._pin_new_snapshot()]
        # The pincushion answers in snapshot-id order: the pin set adopts
        # the ids as they come, and its bounds are the two ends.
        timestamps = [snapshot.snapshot_id for snapshot in held]
        self._state = ReadOnlyState(
            staleness,
            PinSet.from_ascending(timestamps),
            (timestamps[0], timestamps[-1]),
            held,
            [],
        )
        self.stats.ro_transactions += 1

    def begin_rw(self) -> None:
        """BEGIN-RW: start a read/write transaction (bypasses the cache)."""
        self._check_no_transaction()
        self._state = ReadWriteState(db_transaction=self.database.begin_rw())
        self.stats.rw_transactions += 1

    def commit(self) -> int:
        """COMMIT: finish the current transaction.

        Returns the timestamp the transaction ran at (read-only) or committed
        at (read/write).  Applications can carry this timestamp into the
        staleness bound of a later transaction to guarantee they never
        observe time moving backwards (paper section 2.2).
        """
        state = self._state
        if isinstance(state, ReadOnlyState) and not state.frames:
            try:
                db_transaction = state.db_transaction
                if db_transaction is not None and db_transaction.active:
                    db_transaction.commit()
                self.pincushion.release(state.held)
                timestamp = state.chosen_timestamp
                if timestamp is None:
                    # The newest pin left in the set (``PinSet.most_recent``).
                    timestamps = state.pin_set._timestamps
                    timestamp = timestamps[-1] if timestamps else self.database.latest_timestamp
                self.stats.commits += 1
                return timestamp
            finally:
                self._state = None
        if state is None:
            self._require_transaction()
        self._refuse_mid_call(state)  # a read-only state that gets here raises
        try:
            timestamp = state.db_transaction.commit()
            self.stats.commits += 1
            return timestamp
        finally:
            self._state = None

    def abort(self) -> None:
        """ABORT: abandon the current transaction."""
        state = self._require_transaction()
        self._refuse_mid_call(state)
        try:
            if isinstance(state, ReadWriteState):
                state.db_transaction.abort()
            else:
                if state.db_transaction is not None and state.db_transaction.active:
                    state.db_transaction.abort()
                self.pincushion.release(state.held)
            self.stats.aborts += 1
        finally:
            self._state = None

    @property
    def in_transaction(self) -> bool:
        """True while a transaction is open."""
        return self._state is not None

    @property
    def current_read_only(self) -> bool:
        """True if the open transaction is read-only."""
        state = self._require_transaction()
        return state.read_only

    def read_only(self, staleness: Optional[float] = None) -> _TransactionScope:
        """Context manager form of BEGIN-RO ... COMMIT/ABORT."""
        if staleness is None:
            return self._read_only_scope
        return _TransactionScope(self, True, staleness)

    def read_write(self) -> _TransactionScope:
        """Context manager form of BEGIN-RW ... COMMIT/ABORT."""
        return self._read_write_scope

    # ==================================================================
    # Cacheable functions
    # ==================================================================
    def make_cacheable(
        self, fn: Callable[..., Any], name: Optional[str] = None
    ) -> Callable[..., Any]:
        """MAKE-CACHEABLE: wrap a pure function so its results are cached.

        The wrapper checks the cache for a previous call with the same
        arguments that is consistent with the current transaction's snapshot;
        on a miss it runs ``fn``, records the validity interval and
        invalidation tags of everything it observed, and stores the result.
        """
        # The function's share of the key (for an unnamed one, a hash of its
        # code) is worked out here, not on every call.
        make_key = key_maker(name if name is not None else fn)
        display_name = name or getattr(fn, "__qualname__", repr(fn))

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self._call_cacheable(fn, make_key, display_name, args, kwargs)

        wrapper.__txcache_wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__txcache_key_maker__ = make_key  # type: ignore[attr-defined]
        wrapper.__txcache_name__ = display_name  # type: ignore[attr-defined]
        return wrapper

    def cacheable(
        self, fn: Optional[Callable[..., Any]] = None, *, name: Optional[str] = None
    ) -> Callable[..., Any]:
        """Decorator form of :meth:`make_cacheable`.

        Usable both bare (``@client.cacheable``) and with arguments
        (``@client.cacheable(name="get_item")``).
        """
        if fn is not None:
            return self.make_cacheable(fn, name=name)

        def decorator(inner: Callable[..., Any]) -> Callable[..., Any]:
            return self.make_cacheable(inner, name=name)

        return decorator

    def call_all(self, calls: Sequence[Tuple[Callable[..., Any], tuple]]) -> List[Any]:
        """Make several cacheable calls, looking them all up at once.

        ``calls`` is a list of ``(cacheable, args)`` pairs, each
        ``cacheable`` a wrapper :meth:`make_cacheable` returned.  Results,
        statistics, database queries, pin-set evolution and stored entries
        are those of ``[fn(*args) for fn, args in calls]``; the difference
        is that the lookups go out as one :meth:`CacheCluster.multi_lookup`,
        one round trip per cache node touched, and ``stats.cache_rpcs``
        counts those round trips.  An extension: the paper's library looks
        up one call at a time.

        The batch is sent at the pin-set bounds and ``fresh_lo`` of the
        moment it is sent, each distinct key once.  The answers are then
        taken in call order, and a call uses its answer only if

        (a) this transaction has not stored the call's key since the batch
            was sent (a miss run by an earlier call may have put it,
            directly or from a nested call), and
        (b) the answer is a miss, or a hit whose effective interval leaves
            the current pin set a timestamp (:meth:`PinSet.would_survive`).

        Any other call makes the ordinary single lookup.  The rule is exact
        because bounds only narrow.  A node answers the newest version whose
        interval meets ``[lo, hi]``, so a version that still meets the
        narrower bounds is also the newest that meets them; and a miss over
        the wider bounds is a miss over the narrower ones too, with the same
        ``fresh_version_exists``.  What the client cannot see is left out:
        other clients' writes in between, and a node's LRU order — the
        batch's hits refresh theirs when it is sent, which under capacity
        pressure can change what a later put evicts.

        Fewer than two calls, ``NO_CACHE`` mode, a read/write transaction
        and no transaction at all are the plain loop.
        """
        state = self._state
        if (
            len(calls) < 2
            or not isinstance(state, ReadOnlyState)
            or self.mode is ConsistencyMode.NO_CACHE
        ):
            return [fn(*args) for fn, args in calls]
        lo, hi = self._lookup_bounds(state)
        initial = state.initial_bounds
        fresh_lo = initial[0] if initial else 0
        keys: List[str] = []
        slots: Dict[str, int] = {}
        requests: List[LookupRequest] = []
        for fn, args in calls:
            key = fn.__txcache_key_maker__(args, _NO_KWARGS)
            keys.append(key)
            if key not in slots:
                slots[key] = len(requests)
                requests.append(LookupRequest(key, lo, hi, fresh_lo))
        asked: List[str] = []
        answers = self.cache.multi_lookup(requests, asked)
        self.stats.cache_rpcs += len(asked)

        consistent = self.mode is ConsistencyMode.CONSISTENT
        outer = self._batch_stores
        stored = self._batch_stores = set()
        values = []
        try:
            for (fn, args), key in zip(calls, keys):
                answer = answers[slots[key]]
                if key not in stored and (
                    not answer.hit
                    or not consistent
                    or state.pin_set.would_survive(answer.interval)
                ):
                    values.append(
                        self._take_answer(
                            state,
                            answer,
                            fn.__txcache_wrapped__,
                            key,
                            fn.__txcache_name__,
                            args,
                            _NO_KWARGS,
                        )
                    )
                else:
                    values.append(fn(*args))
        finally:
            self._batch_stores = outer
            if outer is not None:
                outer |= stored
        return values

    # ==================================================================
    # Database access within a transaction
    # ==================================================================
    def query(self, query: Query) -> QueryResult:
        """Run a query inside the current transaction.

        In a read-only transaction the query runs at the transaction's
        (lazily chosen) snapshot, which from the first query on is the whole
        pin set; its validity interval is folded into any enclosing
        cacheable functions.
        """
        state = self._require_transaction()
        if isinstance(state, ReadWriteState):
            return state.db_transaction.query(query)

        db_tx = self._ensure_db_transaction(state)
        result = db_tx.query(query)
        self.stats.db_queries += 1
        if self.mode is ConsistencyMode.CONSISTENT:
            # Decides nothing — the validity contains the snapshot the query
            # ran at, and that is the pin set: the guard of invariant 2.
            state.pin_set.restrict(result.validity)
        state.accumulate_into_frames(result.validity, result.tags)
        return result

    def insert(self, table: str, values: Dict[str, Any]):
        """Insert a row (read/write transactions only)."""
        return self._require_rw().db_transaction.insert(table, values)

    def update(self, table: str, predicate: Predicate, changes: Dict[str, Any]) -> int:
        """Update matching rows (read/write transactions only)."""
        return self._require_rw().db_transaction.update(table, predicate, changes)

    def delete(self, table: str, predicate: Predicate) -> int:
        """Delete matching rows (read/write transactions only)."""
        return self._require_rw().db_transaction.delete(table, predicate)

    # ==================================================================
    # Internals: cacheable call handling
    # ==================================================================
    def _call_cacheable(
        self,
        fn: Callable[..., Any],
        make_key: Callable[[tuple, dict], str],
        display_name: str,
        args: tuple,
        kwargs: dict,
    ) -> Any:
        state = self._state
        if state is None:
            raise NotInTransactionError(
                f"cacheable function {display_name!r} called outside a transaction"
            )

        # Read/write transactions bypass the cache entirely; NO_CACHE mode
        # does so for read-only transactions as well.
        if isinstance(state, ReadWriteState) or self.mode is ConsistencyMode.NO_CACHE:
            self.stats.record_bypass()
            return fn(*args, **kwargs)

        key = make_key(args, kwargs)
        if self.mode is ConsistencyMode.CONSISTENT:
            # The pin set's two ends, read in place (``PinSet.bounds``).
            timestamps = state.pin_set._timestamps
            if not timestamps:  # pragma: no cover - begin_ro guarantees bounds
                raise TxCacheError("pin set has no concrete timestamps")
            lo = timestamps[0]
            hi = timestamps[-1]
        else:
            lo, hi = self._lookup_bounds(state)
        # The request carries the lower bound of the staleness window the
        # transaction started with beside the pin-set bounds, so a miss
        # comes back already saying whether a fresh enough version exists:
        # if one does, the miss is a consistency miss — a lookup ignoring
        # the narrowing caused by data already read would have hit.
        initial = state.initial_bounds
        (result,) = self.cache.multi_lookup(
            [LookupRequest(key, lo, hi, initial[0] if initial else 0)]
        )
        self.stats.cache_rpcs += 1
        return self._take_answer(state, result, fn, key, display_name, args, kwargs)

    def _take_answer(
        self,
        state: ReadOnlyState,
        result,
        fn: Callable[..., Any],
        key: str,
        display_name: str,
        args: tuple,
        kwargs: dict,
    ) -> Any:
        """A cacheable call's value, given the cache's answer for its key."""
        # A hit is usable if it leaves the transaction a serialization
        # point, and using it narrows the pin set to those that remain.
        if result.hit and (
            self.mode is not ConsistencyMode.CONSISTENT
            or state.pin_set.narrow(result.interval)
        ):
            if state.frames:
                state.accumulate_into_frames(result.raw_interval, result.tags)
            self.stats.record_hit()
            return result.value

        self.stats.record_miss(self._classify_miss(result))
        return self._execute_and_store(state, fn, key, display_name, args, kwargs)

    def _execute_and_store(
        self,
        state: ReadOnlyState,
        fn: Callable[..., Any],
        key: str,
        display_name: str,
        args: tuple,
        kwargs: dict,
    ) -> Any:
        frame = CacheableFrame(function_name=display_name, key=key)
        state.frames.append(frame)
        try:
            value = fn(*args, **kwargs)
        finally:
            state.frames.pop()
        interval = frame.validity
        tags = tuple(frame.tags) if interval.unbounded else ()
        # A replicated put fans out to the key's replica set, so it costs one
        # round trip per replica actually in the ring (one with
        # replication_factor=1, the paper's deployment; fewer than R after a
        # crash shrinks the ring below the factor).
        self.stats.cache_rpcs += self.cache.put(key, value, interval, tags).replicas
        stored = self._batch_stores
        if stored is not None:
            stored.add(key)
        # The enclosing functions (if any) already accumulated everything the
        # inner function observed, because database/cache observations are
        # folded into every frame on the stack as they happen.
        return value

    def _lookup_bounds(self, state: ReadOnlyState) -> tuple:
        if self.mode is ConsistencyMode.NO_CONSISTENCY:
            # Accept anything fresh enough, ignoring what we already read.
            bounds = state.initial_bounds
            if bounds is None:  # pragma: no cover - begin_ro guarantees bounds
                return (0, _FAR_FUTURE)
            return (bounds[0], _FAR_FUTURE)
        bounds = state.pin_set.bounds()
        if bounds is None:  # pragma: no cover - begin_ro guarantees bounds
            raise TxCacheError("pin set has no concrete timestamps")
        return bounds

    @staticmethod
    def _classify_miss(result) -> MissType:
        """Classify a miss as compulsory, stale/capacity, or consistency.

        A degraded result (the responsible cache node was unreachable and
        failure-aware routing synthesized a miss) is its own category: it
        says nothing about whether the key was ever cached.  A hit the pin
        set could not use is a consistency miss outright: the pin set lies
        inside the staleness window, so the version that hit is fresh.
        """
        if result.degraded:
            return MissType.DEGRADED
        if not result.key_ever_stored:
            return MissType.COMPULSORY
        if result.hit or result.fresh_version_exists:
            return MissType.CONSISTENCY
        return MissType.STALE_OR_CAPACITY

    # ==================================================================
    # Internals: snapshots and database transactions
    # ==================================================================
    def _ensure_db_transaction(self, state: ReadOnlyState):
        """Choose a timestamp and open the underlying DB transaction lazily.

        Lazy selection ends here: every later query runs at the snapshot
        opened now, so it is the transaction's one remaining serialization
        point and the pin set collapses to it.  From then on a lookup asks
        the cache for exactly that timestamp, a cached version that excludes
        it is a consistency miss, and no later hit can narrow the set to
        pins the database is not being read at.
        """
        if state.db_transaction is not None:
            return state.db_transaction

        if self.mode is ConsistencyMode.CONSISTENT:
            chosen = self._choose_timestamp(state)
            state.pin_set.choose(chosen)
        else:
            # Baseline modes behave like an unmodified deployment: database
            # reads simply run against the latest committed state.
            chosen = self.database.latest_timestamp
        state.chosen_timestamp = chosen
        state.db_transaction = self.database.begin_ro(snapshot_id=chosen)
        return state.db_transaction

    def _choose_timestamp(self, state: ReadOnlyState) -> int:
        """The paper's timestamp-selection policy (section 6.2).

        Prefer the most recent timestamp in the pin set; but if that
        timestamp is older than ``new_pin_threshold`` seconds and ``?`` is
        still available, pin a fresh snapshot instead so transactions do not
        keep piling onto an ageing snapshot.
        """
        pin_set = state.pin_set
        most_recent = pin_set.most_recent()
        if most_recent is not None:
            if not pin_set.has_star:
                return most_recent
            age = self.clock.now() - self._wallclock_of_snapshot(most_recent)
            if age <= self.new_pin_threshold:
                return most_recent
        elif not pin_set.has_star:  # pragma: no cover - invariant 2
            raise TxCacheError("pin set has neither timestamps nor ?")
        pinned = self._pin_new_snapshot()
        state.held.append(pinned)
        return pinned.snapshot_id

    def _pin_new_snapshot(self) -> PinnedSnapshot:
        """Pin the database's latest snapshot, in use, as of now.

        The pincushion entry owns the one database pin of a snapshot.  If
        the latest snapshot is registered already, registering it again
        refreshes its wall clock — it is current *now* — and the pin just
        taken is surplus, dropped on the spot.  Answers the pincushion's row,
        which is what the transaction hands back at COMMIT/ABORT.
        """
        snapshot_id = self.database.pin_latest()
        if not self.pincushion.register(snapshot_id, self.clock.now(), in_use=True):
            self.database.unpin(snapshot_id)
        self.stats.pins_created += 1
        return self.pincushion.snapshot(snapshot_id)

    def _wallclock_of_snapshot(self, snapshot_id: int) -> float:
        record = self.pincushion.snapshot(snapshot_id)
        if record is not None:
            return record.wallclock
        return self.database.wallclock_of(snapshot_id)

    # ==================================================================
    # Internals: transaction-state plumbing
    # ==================================================================
    @staticmethod
    def _refuse_mid_call(state: Union[ReadOnlyState, ReadWriteState]) -> None:
        """COMMIT or ABORT from inside a running cacheable function is an
        error, raised before the transaction is touched: the scope that
        began it still holds it, and its ABORT releases the pins."""
        if isinstance(state, ReadOnlyState) and state.frames:
            raise TxCacheError(
                "transaction finished while cacheable functions are still executing"
            )

    def _check_no_transaction(self) -> None:
        if self._state is not None:
            raise TransactionInProgressError("a transaction is already in progress")

    def _require_transaction(self) -> Union[ReadOnlyState, ReadWriteState]:
        if self._state is None:
            raise NotInTransactionError("no transaction in progress")
        return self._state

    def _require_rw(self) -> ReadWriteState:
        state = self._require_transaction()
        if not isinstance(state, ReadWriteState):
            raise NotInTransactionError(
                "write operations require a read/write transaction (BEGIN-RW)"
            )
        return state

    # ==================================================================
    # Introspection helpers (used by tests and the benchmark harness)
    # ==================================================================
    @property
    def current_pin_set(self) -> Optional[PinSet]:
        """The open read-only transaction's pin set, if any."""
        state = self._state
        if isinstance(state, ReadOnlyState):
            return state.pin_set
        return None

    @property
    def current_timestamp(self) -> Optional[int]:
        """The reified snapshot timestamp of the open transaction, if any."""
        state = self._state
        if isinstance(state, ReadOnlyState):
            return state.chosen_timestamp
        if isinstance(state, ReadWriteState):
            return state.db_transaction.snapshot_timestamp
        return None
