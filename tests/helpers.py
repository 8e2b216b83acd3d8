"""Shared builders and the fault-injection harness used across the test suite.

Beyond the plain deployment builders, this module provides the pieces the
consistency/fault-injection suites (``test_replication.py``,
``test_consistency_properties.py``-style invariants under failure) are built
from:

* :func:`transports_under_test` — the transport parametrization, overridable
  with ``REPRO_TRANSPORT=inprocess|socket`` (the CI matrix uses this to run
  the parity suites against one transport at a time);
* :class:`FaultInjector` — kill or partition cache nodes mid-workload,
  transport-agnostically (partitions wrap the node's transport so *every*
  path to it, invalidation stream included, fails like a dead network);
* :class:`ConsistencyHarness` — a randomized writes/reads workload over a
  single-version table that asserts the paper's core invariant (every
  read-only transaction observes exactly one database state) after every
  transaction, usable while faults are being injected;
* :func:`assert_pin_invariant` / :func:`assert_pins_drain` — a pin is one
  reference: the database's pins are exactly the pincushion's entries, one
  each, and both are empty once clients are done and expiry has run.  The
  root ``conftest.py`` asserts the former after every ``housekeeping()``.
"""

from __future__ import annotations

import os
import random
import socket
from contextlib import contextmanager
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.apps.rubis import (
    IN_MEMORY_CONFIG,
    RubisApp,
    RubisClientSession,
    create_rubis_schema,
    populate_database,
)
from repro.apps.rubis.workload import BIDDING_MIX
from repro.cache.cluster import CacheCluster
from repro.cache.entry import LookupRequest, LookupResult
from repro.cache.netserver import CacheNodeUnreachableError, CacheServerProcess
from repro.cache.procnode import CacheNodeHost
from repro.cache.server import CacheServer
from repro.clock import ManualClock
from repro.core.api import ConsistencyMode
from repro.db.database import Database
from repro.db.query import Eq, Select
from repro.db.schema import TableSchema
from repro.deployment import TxCacheDeployment

#: Every cache transport kind; the parity suites parametrize over this.
#: "socket" serves each node from a thread of the test process;
#: "socket-process" hosts each node in its own OS process — same wire, but
#: no in-process server object to reach into, so the suites introspect node
#: state through :func:`node_views` instead.
TRANSPORTS = ["inprocess", "socket", "socket-process"]


def transports_under_test() -> List[str]:
    """Transports the parametrized suites should run against.

    Defaults to all; set ``REPRO_TRANSPORT=inprocess``, ``socket`` or
    ``socket-process`` to restrict the run (used by the CI matrix to
    exercise one hosting at a time without multiplying every job's
    runtime).
    """
    forced = os.environ.get("REPRO_TRANSPORT")
    if not forced:
        return list(TRANSPORTS)
    if forced not in TRANSPORTS:
        raise ValueError(
            f"REPRO_TRANSPORT={forced!r}; expected one of {TRANSPORTS}"
        )
    return [forced]


#: "Until now" as an upper lookup bound (the client library's own value).
FAR_FUTURE = 2**62

def lookup_one(transport, key: str, lo: int, hi: int) -> LookupResult:
    """One versioned lookup through a transport: a ``multi_lookup`` of one,
    which is how the client library sends every lookup."""
    return transport.multi_lookup([LookupRequest(key, lo, hi)])[0]


#: The two hostings of a node on the wire: a thread of the test process
#: (``CacheServerProcess``), or a child process (``CacheNodeHost``).
NODE_HOSTINGS = ["thread", "process"]


@contextmanager
def live_node(
    hosting: str,
    name: str = "node",
    capacity_bytes: int = 4 * 1024 * 1024,
    **options,
) -> Iterator[object]:
    """A running cache node, hosted as ``hosting`` (one of :data:`NODE_HOSTINGS`) says.

    Yields the host; both kinds have ``address`` and ``running``.  A
    thread-hosted node's ``server`` is its :class:`CacheServer` (on a
    :class:`ManualClock`); a process-hosted one has none and is inspected
    over the wire.  ``options`` are the constructor arguments both hostings
    take: ``max_queued_per_connection`` and ``simulated_latency_seconds``.
    """
    if hosting == "thread":
        server = CacheServer(name=name, capacity_bytes=capacity_bytes)
        with CacheServerProcess(server, **options) as host:
            yield host
    elif hosting == "process":
        with CacheNodeHost(name, capacity_bytes=capacity_bytes, **options) as host:
            yield host
    else:
        raise ValueError(f"hosting={hosting!r}; expected one of {NODE_HOSTINGS}")


def recv_exactly(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes from a raw socket; raises
    ConnectionError on EOF (the raw-frame tests read replies with it)."""
    chunks = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            raise ConnectionError("connection closed by peer")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def simple_schema(name: str = "users") -> TableSchema:
    """A small table used by many database tests."""
    return TableSchema.build(
        name,
        ["id", "name", "region", "score"],
        primary_key="id",
        indexes=["name", "region"],
    )


def build_database(rows: int = 10) -> Database:
    """A database with one populated ``users`` table."""
    from repro.clock import ManualClock

    database = Database(clock=ManualClock())
    database.create_table(simple_schema())
    database.bulk_load(
        "users",
        [
            {"id": i, "name": f"user{i}", "region": i % 3, "score": float(i)}
            for i in range(1, rows + 1)
        ],
    )
    return database


def build_deployment(
    rows: int = 20,
    mode: ConsistencyMode = ConsistencyMode.CONSISTENT,
    staleness: float = 30.0,
    cache_nodes: int = 2,
    capacity_bytes: int = 4 * 1024 * 1024,
) -> Tuple[TxCacheDeployment, "object"]:
    """A full deployment with the simple ``users`` table and one client."""
    deployment = TxCacheDeployment(
        cache_nodes=cache_nodes,
        cache_capacity_bytes_per_node=capacity_bytes,
        mode=mode,
        default_staleness=staleness,
    )
    deployment.database.create_table(simple_schema())
    deployment.database.bulk_load(
        "users",
        [
            {"id": i, "name": f"user{i}", "region": i % 3, "score": float(i)}
            for i in range(1, rows + 1)
        ],
    )
    client = deployment.client()
    return deployment, client


def update_user(deployment: TxCacheDeployment, user_id: int, **changes) -> int:
    """Commit one read/write transaction updating a user row.

    The deployment clock advances slightly afterwards so that wall-clock
    staleness bounds can distinguish "before the write" from "after it".
    """
    from repro.db.query import Eq

    transaction = deployment.database.begin_rw()
    transaction.update("users", Eq("id", user_id), changes)
    timestamp = transaction.commit()
    deployment.advance(0.1)
    return timestamp


def insert_users(deployment: TxCacheDeployment, rows: Iterable[dict]) -> int:
    """Commit one read/write transaction inserting several user rows."""
    transaction = deployment.database.begin_rw()
    for row in rows:
        transaction.insert("users", row)
    timestamp = transaction.commit()
    deployment.advance(0.1)
    return timestamp


# ----------------------------------------------------------------------
# Transport-agnostic node introspection
# ----------------------------------------------------------------------
class NodeView:
    """Read one cache node's state regardless of where the node lives.

    Thread-hosted transports keep the :class:`CacheServer` object in this
    process, so tests historically reached into ``cluster.servers[name]``
    to assert replica placement or invalidation delivery.  Process-hosted
    nodes (``socket-process``) have no such object — their state is only
    reachable over the wire.  This view serves both: direct server access
    when the server is local, the equivalent wire ops (``versions_of``,
    ``watermark``, ``stats``) when it is not, so one assertion reads the
    same way under every transport kind.
    """

    def __init__(self, cluster: CacheCluster, name: str) -> None:
        self.cluster = cluster
        self.name = name

    @property
    def _server(self):
        return self.cluster.servers.get(self.name)

    def versions_of(self, key: str):
        server = self._server
        if server is not None:
            return server.versions_of(key)
        return self.cluster._transports[self.name].versions_of(key)

    def keys(self):
        server = self._server
        if server is not None:
            return server.keys()
        return self.cluster._transports[self.name].keys()

    @property
    def last_invalidation_timestamp(self) -> int:
        server = self._server
        if server is not None:
            return server.last_invalidation_timestamp
        return self.cluster._transports[self.name].watermark()

    @property
    def stats(self):
        server = self._server
        if server is not None:
            return server.stats
        return self.cluster._transports[self.name].stats()


def node_view(cluster: CacheCluster, name: str) -> NodeView:
    """A :class:`NodeView` of one node."""
    return NodeView(cluster, name)


def node_views(cluster: CacheCluster) -> "dict[str, NodeView]":
    """A :class:`NodeView` per live node, keyed by name."""
    return {name: NodeView(cluster, name) for name in cluster.transports}


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
def crash_and_detect(cluster: CacheCluster, name: str) -> None:
    """Crash ``name`` (:meth:`CacheCluster.fail_node`) and drive the routing
    threshold to its eviction with traffic: one stale-entry sweep of every
    node per failure the threshold counts, as housekeeping sends."""
    cluster.fail_node(name)
    for _ in range(cluster.failure_threshold):
        cluster.evict_stale(0)
    assert name not in cluster.transports


def failover_batch(replicas_for, keys) -> Tuple[List[str], str]:
    """Three of ``keys`` and the node to fail, such that the failed node's
    one key fails over onto the node the other two are routed to.

    The batch is ``[a, b, c]``: ``b``'s primary is the returned node, and
    ``a`` and ``c``'s primary is ``b``'s second replica.  Once ``b``'s
    primary fails, that replica's group covers the whole batch, in the
    order ``a, c, b``.  ``replicas_for`` maps a key to its replica set.
    """
    for middle in keys:
        replicas = replicas_for(middle)
        if len(replicas) < 2:
            continue
        routed_on = [key for key in keys if replicas_for(key)[0] == replicas[1]]
        if len(routed_on) >= 2:
            return [routed_on[0], middle, routed_on[1]], replicas[0]
    raise LookupError("no key fails over onto the node of two others")


class PartitionableTransport:
    """A transport wrapper that can simulate a network partition.

    While :attr:`partitioned` is set, every operation raises
    :class:`CacheNodeUnreachableError` — the exact failure class a dead TCP
    connection produces — so failure-aware routing, replica failover, and
    the guarded invalidation path all exercise their real code paths under
    *both* transports.  The wrapped node keeps its state, so healing the
    partition restores it as-is (watermark frozen at the last message it
    received, exactly like a rejoining network peer).
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        self.partitioned = False

    def close(self) -> None:
        # Teardown must always work, partitioned or not.
        self.inner.close()

    def __getattr__(self, attr):
        target = getattr(self.inner, attr)
        if not callable(target):
            return target

        def guarded(*args, **kwargs):
            if self.partitioned:
                raise CacheNodeUnreachableError(
                    f"cache node {self.name!r} is partitioned (fault injection)"
                )
            return target(*args, **kwargs)

        return guarded


class FaultInjector:
    """Kill or partition cache nodes of a live cluster, mid-workload."""

    def __init__(self, cluster: CacheCluster) -> None:
        self.cluster = cluster
        self._wrappers: dict = {}

    def _wrapper_for(self, name: str) -> PartitionableTransport:
        wrapper = self._wrappers.get(name)
        current = self.cluster._transports.get(name)
        if wrapper is None or current is not wrapper:
            if current is None:
                if wrapper is not None:
                    # Node evicted since: keep driving the detached link so a
                    # test can still heal it.
                    return wrapper
                raise KeyError(name)
            wrapper = PartitionableTransport(current)
            # Swap the wrapper into the routed path *and* the invalidation
            # guard, so a partition severs the stream like a real one would.
            self.cluster._transports[name] = wrapper
            guard = self.cluster._stream_guards.get(name)
            if guard is not None:
                guard.transport = wrapper
            self._wrappers[name] = wrapper
        return wrapper

    def partition(self, name: str) -> None:
        """Cut the node off: all traffic to it fails, state is preserved."""
        self._wrapper_for(name).partitioned = True

    def heal(self, name: str) -> None:
        """Restore connectivity to a partitioned node."""
        self._wrapper_for(name).partitioned = False

    def crash(self, name: str) -> None:
        """Crash the node (see :meth:`CacheCluster.fail_node`): it stops
        answering, and the routing threshold detects it."""
        self.cluster.fail_node(name)

    def kill(self, name: str) -> None:
        """SIGKILL a process-hosted node's child — no cleanup, no eviction.

        Unlike :meth:`crash` (which shuts the node down cleanly), this only
        murders the OS process, exactly like the kernel OOM killer
        would: routing still points at the corpse until failure-aware
        routing or the supervisor notices.  Requires a ``socket-process``
        cluster (other transports have no child to kill).
        """
        host = self.cluster.processes.get(name)
        if host is None or not hasattr(host, "kill"):
            raise ValueError(
                f"node {name!r} has no OS process to kill "
                "(FaultInjector.kill needs transport='socket-process')"
            )
        host.kill()

    # ------------------------------------------------------------------
    # Kill schedules (for open-loop chaos runs)
    # ------------------------------------------------------------------
    def schedule_kill(self, name: str, at_seconds: float) -> None:
        """Arrange for :meth:`kill` of ``name`` once ``pump(elapsed)`` passes
        ``at_seconds``.  Schedules fire at most once."""
        if not hasattr(self, "_kill_schedule"):
            self._kill_schedule: list = []
        self._kill_schedule.append([at_seconds, name, False])

    def pump(self, elapsed_seconds: float) -> List[str]:
        """Fire any due scheduled kills; returns the nodes killed now."""
        killed: List[str] = []
        for entry in getattr(self, "_kill_schedule", []):
            at, name, fired = entry
            if not fired and elapsed_seconds >= at:
                entry[2] = True
                self.kill(name)
                killed.append(name)
        return killed


# ----------------------------------------------------------------------
# The benchmark's RUBiS driver, without importing perf/
# ----------------------------------------------------------------------
RUBIS_USERS = 24


def rubis_sessions(
    deployment: TxCacheDeployment,
    client,
    seed: int,
    staleness: float = 30.0,
    scale: int = 100,
    mix=BIDDING_MIX,
) -> list:
    """RUBiS loaded (data seed 42) and ``mix``'s 24 emulated users (the
    bidding mix by default), seeded ``seed * 1000 + i`` as
    ``perf/workloads.py`` seeds them."""
    create_rubis_schema(deployment.database)
    dataset = populate_database(deployment.database, IN_MEMORY_CONFIG.scaled(scale), seed=42)
    app = RubisApp(client, dataset)
    return [
        RubisClientSession(
            app, mix, seed=seed * 1000 + i, staleness=staleness,
            now_fn=deployment.clock.now,
        )
        for i in range(RUBIS_USERS)
    ]


def run_interactions(
    deployment: TxCacheDeployment, sessions: list, first: int, count: int, dt: float = 0.010
) -> None:
    """Interactions ``first .. first + count`` round-robin, ``dt`` of virtual
    time after each, housekeeping every 400.  Any exception propagates."""
    for i in range(first, first + count):
        sessions[i % len(sessions)].step()
        deployment.advance(dt)
        if (i + 1) % 400 == 0:
            deployment.housekeeping()


# ----------------------------------------------------------------------
# Pin lifetime
# ----------------------------------------------------------------------
def pin_invariant_violation(deployment: TxCacheDeployment) -> Optional[str]:
    """What breaks "a pin is one reference", or ``None``.

    Every pincushion entry stands for exactly one pin on the database and
    nothing else pins it.  Exact whenever no client is inside a pin (between
    ``Database.pin_latest`` and ``Pincushion.register`` the library holds a
    reference that is not yet, or no longer, the entry's).
    """
    pins = deployment.database.pinned_snapshots
    registered = deployment.pincushion.pinned_ids
    if set(pins) == set(registered) and all(count == 1 for count in pins.values()):
        return None
    return f"database pins {pins} are not one each for pincushion entries {registered}"


def assert_pin_invariant(deployment: TxCacheDeployment) -> None:
    violation = pin_invariant_violation(deployment)
    assert violation is None, violation


def assert_pins_drain(deployment: TxCacheDeployment) -> None:
    """Once every client has finished, expiry leaves no pin anywhere."""
    assert_pin_invariant(deployment)
    deployment.advance(deployment.pincushion_expiry_seconds + 1.0)
    deployment.housekeeping()
    assert deployment.database.pinned_snapshots == {}
    assert deployment.pincushion.pinned_ids == []


# ----------------------------------------------------------------------
# Consistency invariant workload
# ----------------------------------------------------------------------
class ConsistencyViolation(AssertionError):
    """A read-only transaction observed a mix of database states."""


class ConsistencyHarness:
    """Drives a deployment while checking the paper's core invariant.

    Every write transaction bumps one global version and rewrites every row
    of a small table, so all rows always carry the same version number; any
    read-only transaction that observes two different versions — whether the
    values came from the cache, a replica after failover, or the database —
    has seen an inconsistent mix of states and raises
    :class:`ConsistencyViolation`.  Faults may be injected between (or
    during) steps; the invariant must hold regardless.

    Several harnesses may share one deployment to model concurrent
    application servers: pass ``create_table=False`` for every harness after
    the first and give each its own seed (and its own thread).  Each write
    still rewrites the whole table atomically, so whatever interleaving the
    threads produce, every committed state is uniform and the one-snapshot
    invariant stays checkable from any thread.  A write that loses the
    first-committer-wins race to a concurrent harness is aborted and counted
    in :attr:`write_conflicts` — exactly what a real application server
    would see and retry.
    """

    ROWS = 6

    def __init__(
        self,
        deployment: TxCacheDeployment,
        seed: int = 1,
        create_table: bool = True,
    ) -> None:
        self.deployment = deployment
        self.client = deployment.client()
        self.rng = random.Random(seed)
        self.version = 0
        self.reads = 0
        self.writes = 0
        self.write_conflicts = 0
        if create_table:
            deployment.database.create_table(
                TableSchema.build("state", ["id", "version", "payload"], primary_key="id")
            )
            deployment.database.bulk_load(
                "state",
                [{"id": i, "version": 0, "payload": "x" * 64} for i in range(self.ROWS)],
            )

        client = self.client

        @client.cacheable(name="get_row")
        def get_row(row_id):
            return client.query(Select("state", Eq("id", row_id))).rows[0]

        self._get_row = get_row

    def write(self) -> None:
        """One update transaction: move every row to the next version."""
        from repro.db.errors import SerializationError

        self.version += 1
        transaction = self.deployment.database.begin_rw()
        try:
            for row_id in range(self.ROWS):
                transaction.update("state", Eq("id", row_id), {"version": self.version})
            transaction.commit()
        except SerializationError:
            # A concurrent harness won the first-committer-wins race for a
            # row; abort cleanly (single-threaded runs never hit this).
            transaction.abort()
            self.write_conflicts += 1
            return
        self.deployment.advance(self.rng.uniform(0.01, 0.5))
        self.writes += 1

    def read(self, staleness: Optional[float] = None) -> int:
        """One read-only transaction over a random row subset; checks the
        invariant and returns the (single) version it observed."""
        if staleness is None:
            staleness = self.rng.choice([0, 1, 5, 30, 60])
        observed = set()
        with self.client.read_only(staleness=staleness):
            for _ in range(self.rng.randint(2, self.ROWS)):
                row_id = self.rng.randrange(self.ROWS)
                if self.rng.random() < 0.6:
                    observed.add(self._get_row(row_id)["version"])
                else:
                    observed.add(
                        self.client.query(
                            Select("state", Eq("id", row_id))
                        ).rows[0]["version"]
                    )
        self.reads += 1
        if len(observed) != 1:
            raise ConsistencyViolation(
                f"read {self.reads} observed mixed versions {sorted(observed)}"
            )
        return observed.pop()

    def step(self) -> None:
        """One random workload step (write, clock advance, housekeeping, read)."""
        action = self.rng.random()
        if action < 0.30:
            self.write()
        elif action < 0.40:
            self.deployment.advance(self.rng.uniform(0.1, 20.0))
        elif action < 0.45:
            self.deployment.housekeeping(max_staleness=60.0)
            if len(self.deployment.clients) == 1:
                # The only client, between two of its transactions: nobody
                # is inside a pin, so the invariant is exact.
                assert_pin_invariant(self.deployment)
        else:
            self.read()

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()
