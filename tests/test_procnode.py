"""Process-hosted cache nodes: lifecycle, crash supervision, invalidations.

The per-core execution mode (`transport="socket-process"`) runs each cache
node as its own OS process.  What that changes — and what this suite pins:

* **Lifecycle.**  :class:`CacheNodeHost` must hand back a serving address
  before its constructor returns (readiness handshake), shut down to exit
  code 0, surface a crash as a signal exit code, and never leave a zombie
  process or a bound port behind — whether the exit was graceful, SIGKILL,
  or a failed startup.
* **Supervision.**  A SIGKILLed child is indistinguishable from a dead
  network peer: routed reads degrade to misses, the failure counter climbs,
  and the cluster evicts the node through the same suspect → evict path a
  thread-hosted node takes.  With replication, reads fail over to a live
  replica and never degrade at all.
* **Invalidation delivery.**  The in-process ``InvalidationBus`` cannot call
  into another address space, so process-hosted nodes receive the stream
  over the wire (the ``invalidate_tags`` op).  Wire delivery — one message
  at a time from the bus, or a whole batch in one ``invalidate_tags``
  call — must truncate exactly what in-process delivery truncates,
  watermark movement included.
"""

from __future__ import annotations

import os
import signal
import socket

import pytest

from repro.cache.cluster import CacheCluster
from repro.cache.netserver import CacheNodeUnreachableError, SocketTransport
from repro.cache.procnode import CacheNodeHost
from repro.clock import ManualClock
from repro.comm.multicast import InvalidationBus, InvalidationMessage
from repro.db.invalidation import InvalidationTag
from repro.interval import Interval
from tests.helpers import node_views


def _port_refuses(address) -> bool:
    """True when nothing is listening at ``address`` any more."""
    with socket.socket() as probe:
        probe.settimeout(0.5)
        return probe.connect_ex(tuple(address)) != 0


# ----------------------------------------------------------------------
# Host lifecycle
# ----------------------------------------------------------------------
class TestHostLifecycle:
    def test_ready_handshake_then_serves_traffic(self):
        with CacheNodeHost("n0", capacity_bytes=1 << 20) as host:
            assert host.running
            assert host.pid is not None and host.pid != os.getpid()
            assert host.exitcode is None  # still up
            transport = SocketTransport(host.address)
            try:
                assert transport.name == "n0"  # learned over the wire
                assert transport.put("k", {"v": 1}, Interval(0)) is True
                result = transport.lookup("k", 0, 5)
                assert result.hit and result.value == {"v": 1}
            finally:
                transport.close()

    def test_graceful_shutdown_exits_zero_and_frees_the_port(self):
        host = CacheNodeHost("n1", capacity_bytes=1 << 20)
        address = host.address
        host.shutdown()
        assert not host.running
        assert host.exitcode == 0
        assert _port_refuses(address)
        host.shutdown()  # idempotent
        assert host.exitcode == 0

    def test_kill_surfaces_the_signal_and_shutdown_reaps_the_corpse(self):
        host = CacheNodeHost("n2", capacity_bytes=1 << 20)
        pid = host.pid
        host.kill()
        assert host.exitcode == -signal.SIGKILL
        host.shutdown()  # reaping a corpse must not raise or hang
        assert host.exitcode == -signal.SIGKILL
        # The child was joined: its pid is gone from the process table.
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_failed_bind_is_a_constructor_error_not_a_hung_dial(self):
        with socket.socket() as squatter:
            squatter.bind(("127.0.0.1", 0))
            squatter.listen(1)
            taken_port = squatter.getsockname()[1]
            with pytest.raises(CacheNodeUnreachableError, match="failed to start"):
                CacheNodeHost("n3", port=taken_port, capacity_bytes=1 << 20)


# ----------------------------------------------------------------------
# Cluster supervision: crash → degrade → evict, failover, clean teardown
# ----------------------------------------------------------------------
class TestClusterSupervision:
    def test_sigkill_mid_run_degrades_misses_then_evicts(self):
        cluster = CacheCluster(
            node_count=3,
            capacity_bytes_per_node=1 << 20,
            clock=ManualClock(),
            transport="socket-process",
            failure_threshold=2,
        )
        try:
            keys = [f"key-{i}" for i in range(30)]
            for i, key in enumerate(keys):
                cluster.put(key, i, Interval(0))
            victim = cluster.ring.node_for(keys[0])
            corpse = cluster.processes[victim]
            corpse.kill()  # SIGKILL, no warning: a real node crash
            assert corpse.exitcode == -signal.SIGKILL
            # Routed reads degrade to misses (never raise) until the failure
            # threshold evicts the dead node from the ring.
            while victim in cluster.ring:
                result = cluster.lookup(keys[0], 0, 5)
                assert not result.hit
            assert cluster.health.degraded_lookups > 0
            assert cluster.health.nodes_evicted == 1
            # Survivors serve the remapped slice again.
            cluster.put(keys[0], "rewarmed", Interval(0))
            assert cluster.lookup(keys[0], 0, 5).value == "rewarmed"
        finally:
            cluster.close()

    def test_replicated_reads_fail_over_a_killed_process(self):
        cluster = CacheCluster(
            node_count=3,
            capacity_bytes_per_node=1 << 20,
            clock=ManualClock(),
            transport="socket-process",
            replication_factor=2,
            failure_threshold=1000,  # keep the corpse in the ring: pure failover
        )
        try:
            keys = [f"key-{i}" for i in range(40)]
            for i, key in enumerate(keys):
                cluster.put(key, i, Interval(0))
            victim = cluster.ring.nodes[0]
            primaries = [k for k in keys if cluster.replicas_for(k)[0] == victim]
            assert primaries, "some key should route to the victim first"
            cluster.processes[victim].kill()
            for key in primaries:
                result = cluster.lookup(key, 0, 5)
                assert result.hit, key  # the replica answered
            assert cluster.health.replica_served_lookups >= len(primaries)
        finally:
            cluster.close()

    def test_close_reaps_every_child_no_leaked_process_or_port(self):
        cluster = CacheCluster(
            node_count=3,
            capacity_bytes_per_node=1 << 20,
            clock=ManualClock(),
            transport="socket-process",
        )
        hosts = dict(cluster.processes)
        assert len(hosts) == 3
        pids = {name: host.pid for name, host in hosts.items()}
        addresses = {name: host.address for name, host in hosts.items()}
        cluster.close()
        for name, host in hosts.items():
            assert not host.running, name
            assert host.exitcode == 0, name  # graceful, not escalated
            assert _port_refuses(addresses[name]), name
            with pytest.raises(ProcessLookupError):
                os.kill(pids[name], 0)

    def test_fail_node_stops_the_process_and_eviction_forgets_it(self):
        cluster = CacheCluster(
            node_count=2,
            capacity_bytes_per_node=1 << 20,
            clock=ManualClock(),
            transport="socket-process",
            failure_threshold=2,
        )
        try:
            victim = cluster.ring.nodes[0]
            host = cluster.processes[victim]
            cluster.fail_node(victim)
            # The process dies at once; routing still points at the corpse
            # (exactly like a real crash) until threshold eviction.
            assert not host.running
            assert host.exitcode == 0  # pipe shutdown, not an escalation
            assert victim in cluster.ring
            routed = next(
                f"key-{i}" for i in range(1000)
                if cluster.ring.node_for(f"key-{i}") == victim
            )
            while victim in cluster.ring:
                cluster.lookup(routed, 0, 5)
            assert victim not in cluster.processes
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# Wire-delivered invalidations: truncation parity with in-process delivery
# ----------------------------------------------------------------------
def _fill_tagged(cluster, count=40):
    keys = [f"key-{i}" for i in range(count)]
    for i, key in enumerate(keys):
        tags = frozenset({InvalidationTag.key("items", "id", i % 8)})
        cluster.put(key, {"i": i}, Interval(0), tags)
    return keys


def _invalidation_state(cluster, keys):
    """Every node's truncation outcome: entry intervals + watermark."""
    state = {}
    for name, view in node_views(cluster).items():
        entries = {
            key: [
                (entry.interval.lo, entry.interval.hi, entry.still_valid)
                for entry in view.versions_of(key)
            ]
            for key in keys
        }
        state[name] = (entries, view.last_invalidation_timestamp)
    return state


MESSAGES = [
    InvalidationMessage(timestamp=4, tags=(InvalidationTag.key("items", "id", 1),)),
    InvalidationMessage(timestamp=6, tags=()),  # watermark-only advance
    InvalidationMessage(timestamp=9, tags=(InvalidationTag.wildcard("items"),)),
]


class TestWireInvalidationParity:
    def _run(self, transport, batched=False):
        # ``batched`` skips the bus: one ``process_invalidations`` call per
        # node carries the whole stream (tag messages and the watermark-only
        # advance, in order).
        bus = None if batched else InvalidationBus()
        cluster = CacheCluster(
            node_count=3,
            capacity_bytes_per_node=1 << 20,
            clock=ManualClock(),
            invalidation_bus=bus,
            transport=transport,
            replication_factor=2,
        )
        try:
            keys = _fill_tagged(cluster)
            if batched:
                for node in cluster.transports.values():
                    node.process_invalidations(MESSAGES)
            else:
                for message in MESSAGES:
                    bus.publish(message)
            return _invalidation_state(cluster, keys)
        finally:
            cluster.close()

    def test_synchronous_wire_delivery_matches_inprocess_truncation(self):
        assert self._run("socket-process") == self._run("inprocess")

    def test_one_wire_batch_per_node_matches_per_message_delivery(self):
        assert self._run("socket-process", batched=True) == self._run("inprocess")
