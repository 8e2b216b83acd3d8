"""Self-healing supervision: crash respawn, backoff, circuit breaker, the
wire client's unreachable error, and housekeeping stage isolation.

The deterministic state-machine tests run on the in-process transport with
a manual clock (a crash is ``fail_node``, driven to its threshold eviction
by traffic; backoff and the breaker window advance by hand).  The process
tests SIGKILL real ``socket-process`` children and drive recovery solely
through ``housekeeping()`` — the way a deployment timer would — asserting
the node returns to serving with its working set moved back by its warm
rejoin and the one-snapshot invariant intact throughout.
"""

from __future__ import annotations

import threading
import time

import pytest

from tests.helpers import (
    FAR_FUTURE,
    ConsistencyHarness,
    FaultInjector,
    crash_and_detect,
    lookup_one,
    transports_under_test,
)
from repro.cache.netserver import CacheNodeUnreachableError, SocketTransport
from repro.cache.supervisor import (
    BACKOFF_BASE_SECONDS,
    BACKOFF_MAX_SECONDS,
    _NodeRecord,
)
from repro.clock import ManualClock, SystemClock
from repro.comm.multicast import InvalidationMessage
from repro.deployment import HousekeepingError, TxCacheDeployment
from repro.interval import Interval


def _supervised_deployment(clock=None, **overrides):
    settings = dict(
        clock=clock or ManualClock(),
        cache_nodes=3,
        transport="inprocess",
        replication_factor=2,
        supervision=True,
    )
    settings.update(overrides)
    return TxCacheDeployment(**settings)


def _pump_until_serving(supervisor, clock, name, rounds=50, step=0.5):
    for _ in range(rounds):
        supervisor.pump()
        if supervisor.states.get(name) == "serving":
            return
        clock.advance(step)
    raise AssertionError(f"{name} never returned to serving: {supervisor.states}")


# ----------------------------------------------------------------------
# Supervisor state machine (deterministic, in-process, manual clock)
# ----------------------------------------------------------------------
class TestSupervisorStateMachine:
    def test_respawns_a_crashed_node_after_backoff(self):
        clock = ManualClock()
        with _supervised_deployment(clock) as deployment:
            supervisor = deployment.supervisor
            for i in range(40):
                deployment.cache.put(f"key{i}", f"value{i}", Interval(1, None))
            crash_and_detect(deployment.cache, "cache1")
            assert "cache1" not in deployment.cache.transports

            supervisor.pump()  # detects the eviction, enters backoff
            assert supervisor.states["cache1"] == "backoff"
            assert supervisor.stats.deaths_detected == 1
            assert "cache1" not in deployment.cache.transports

            clock.advance(1.0)
            assert supervisor.pump() == 1  # backoff elapsed: respawn
            assert supervisor.states["cache1"] == "serving"
            assert "cache1" in deployment.cache.transports
            assert supervisor.stats.respawns == 1
            # The respawn is a warm join: the node's share of the working
            # set was moved onto it before the ring switched back.
            assert deployment.membership.stats.rejoins == 1
            assert deployment.membership.stats.migrations == 1
            assert deployment.membership.stats.entries_migrated > 0
            assert len(deployment.cache.node_keys("cache1")) > 0

    def test_a_respawned_node_comes_back_with_an_empty_store(self):
        """A respawn is a new server: nothing of the crashed store survives,
        and what the node holds again is exactly what its warm join moved
        back — its share of the working set."""
        clock = ManualClock()
        with _supervised_deployment(clock) as deployment:
            supervisor = deployment.supervisor
            keys = [f"key{i}" for i in range(40)]
            for key in keys:
                deployment.cache.put(key, f"value-{key}", Interval(1, None))
            crashed = deployment.cache.servers["cache1"]
            assert crashed.entry_count > 0
            crash_and_detect(deployment.cache, "cache1")
            supervisor.pump()
            clock.advance(1.0)
            assert supervisor.pump() == 1
            assert deployment.cache.servers["cache1"] is not crashed
            held = deployment.cache.node_keys("cache1")
            assert len(held) == deployment.membership.stats.entries_migrated > 0
            assert sorted(held) == sorted(
                key for key in keys if "cache1" in deployment.cache.replicas_for(key)
            )

    def test_a_respawn_is_recorded_as_a_rejoin_epoch(self):
        """A respawn goes through the ``join`` an operator's re-add uses:
        the eviction and the rejoin are two epochs, and the node is a
        member again in the second."""
        clock = ManualClock()
        with _supervised_deployment(clock) as deployment:
            membership = deployment.membership
            crash_and_detect(deployment.cache, "cache1")
            deployment.supervisor.pump()
            clock.advance(1.0)
            assert deployment.supervisor.pump() == 1
            evict, rejoin = membership.history[-2:]
            assert (evict.change, evict.node) == ("evict", "cache1")
            assert evict.members == ("cache0", "cache2")
            assert (rejoin.change, rejoin.node) == ("rejoin", "cache1")
            assert rejoin.members == ("cache0", "cache1", "cache2")
            assert rejoin.epoch == evict.epoch + 1 == membership.epoch
            assert (membership.stats.joins, membership.stats.rejoins) == (0, 1)

    def test_a_respawned_node_starts_at_the_survivors_watermark(self):
        """The respawned node is fresh, so its warm join advances its
        watermark to the survivors': an entry moved onto it serves the
        current timestamp the moment it lands."""
        clock = ManualClock()
        with _supervised_deployment(clock) as deployment:
            cluster = deployment.cache
            for i in range(40):
                cluster.put(f"key{i}", f"value{i}", Interval(1, None))
            deployment.invalidation_bus.publish(InvalidationMessage(timestamp=9, tags=()))
            crash_and_detect(cluster, "cache1")
            deployment.supervisor.pump()
            clock.advance(1.0)
            assert deployment.supervisor.pump() == 1
            assert cluster.watermark("cache0") == cluster.watermark("cache2") == 9
            assert cluster.watermark("cache1") == 9
            held = cluster.node_keys("cache1")
            reborn = cluster.transports["cache1"]
            assert held
            assert all(lookup_one(reborn, key, 9, FAR_FUTURE).hit for key in held)

    def test_backoff_gates_the_respawn(self):
        clock = ManualClock()
        with _supervised_deployment(clock) as deployment:
            supervisor = deployment.supervisor
            crash_and_detect(deployment.cache, "cache1")
            supervisor.pump()
            # Backoff has not elapsed: pumping again must not respawn.
            assert supervisor.pump() == 0
            assert supervisor.states["cache1"] == "backoff"
            clock.advance(1.0)
            assert supervisor.pump() == 1

    def test_circuit_breaker_stops_a_crash_looping_node(self):
        """Pinned acceptance behaviour: a node that keeps dying is
        permanently given up on after max_restarts inside the window."""
        clock = ManualClock()
        with _supervised_deployment(clock) as deployment:
            supervisor = deployment.supervisor
            supervisor.max_restarts = 3
            supervisor.restart_window_seconds = 1000.0
            for _ in range(3):
                crash_and_detect(deployment.cache, "cache1")
                supervisor.pump()
                _pump_until_serving(supervisor, clock, "cache1")
            assert supervisor.stats.respawns == 3

            # The fourth death trips the breaker instead of respawning.
            crash_and_detect(deployment.cache, "cache1")
            supervisor.pump()
            clock.advance(100.0)
            assert supervisor.pump() == 0
            assert supervisor.states["cache1"] == "gave_up"
            assert supervisor.stats.circuit_breaker_trips == 1

            # Given up means given up: no amount of pumping resurrects it.
            for _ in range(5):
                clock.advance(100.0)
                assert supervisor.pump() == 0
            assert "cache1" not in deployment.cache.transports
            assert supervisor.stats.respawns == 3

            # ...until an operator intervenes.
            supervisor.reset("cache1")
            clock.advance(1.0)
            assert supervisor.pump() == 1
            assert supervisor.states["cache1"] == "serving"

    def test_breaker_window_forgives_old_restarts(self):
        clock = ManualClock()
        with _supervised_deployment(clock) as deployment:
            supervisor = deployment.supervisor
            supervisor.max_restarts = 2
            supervisor.restart_window_seconds = 10.0
            for round_index in range(4):
                crash_and_detect(deployment.cache, "cache1")
                supervisor.pump()
                _pump_until_serving(supervisor, clock, "cache1")
                # Space the crashes wider than the window: the breaker's
                # restart count never accumulates and never trips.
                clock.advance(11.0)
            assert supervisor.stats.respawns == 4
            assert supervisor.stats.circuit_breaker_trips == 0

    def test_planned_removal_is_not_resurrected(self):
        clock = ManualClock()
        with _supervised_deployment(clock) as deployment:
            supervisor = deployment.supervisor
            deployment.remove_cache_node("cache2")
            for _ in range(5):
                clock.advance(10.0)
                supervisor.pump()
            assert "cache2" not in deployment.cache.transports
            assert "cache2" not in supervisor.states

    def test_operator_add_is_adopted_not_double_spawned(self):
        clock = ManualClock()
        with _supervised_deployment(clock) as deployment:
            supervisor = deployment.supervisor
            crash_and_detect(deployment.cache, "cache1")
            supervisor.pump()
            # An operator beats the supervisor to it.
            deployment.add_cache_node("cache1")
            clock.advance(10.0)
            assert supervisor.pump() == 0
            assert supervisor.states["cache1"] == "serving"
            assert supervisor.stats.respawns == 0

    def test_respawn_failure_climbs_the_backoff_ladder(self):
        clock = ManualClock()
        with _supervised_deployment(clock) as deployment:
            supervisor = deployment.supervisor
            supervisor.jitter_fraction = 0.0
            crash_and_detect(deployment.cache, "cache1")
            supervisor.pump()

            real_join = deployment.membership.join
            boom = [2]

            def flaky_join(name, **kwargs):
                if boom[0] > 0:
                    boom[0] -= 1
                    raise OSError("address in use")
                return real_join(name, **kwargs)

            deployment.membership.join = flaky_join
            delays = []
            for _ in range(3):
                clock.advance(100.0)
                before = supervisor._nodes["cache1"].next_attempt_at
                supervisor.pump()
                after = supervisor._nodes["cache1"].next_attempt_at
                delays.append(after - clock.now())
                if supervisor.states["cache1"] == "serving":
                    break
            assert supervisor.states["cache1"] == "serving"
            assert supervisor.stats.respawn_failures == 2
            # Each failed spawn pushed the next attempt further out.
            assert delays[1] > delays[0] > 0


# ----------------------------------------------------------------------
# Housekeeping stage isolation (satellite b)
# ----------------------------------------------------------------------
class TestHousekeepingIsolation:
    def test_one_failing_stage_does_not_starve_the_rest(self):
        clock = ManualClock()
        with _supervised_deployment(clock) as deployment:
            ran = []

            def broken_expiry():
                ran.append("expiry")
                raise RuntimeError("pincushion on fire")

            vacuum = deployment.database.vacuum
            deployment.pincushion.expire_old_snapshots = broken_expiry
            deployment.database.vacuum = lambda: ran.append("vacuum") or vacuum()

            # Crash a node so the supervisor stage has real work to do: its
            # probes find the crash, one failure per pass.
            deployment.cache.fail_node("cache1")
            for _ in range(deployment.failure_threshold):
                with pytest.raises(HousekeepingError) as excinfo:
                    deployment.housekeeping()
                assert set(excinfo.value.failures) == {"expire_old_snapshots"}
            assert "cache1" not in deployment.cache.ring
            assert deployment.supervisor.states["cache1"] == "backoff"
            clock.advance(1.0)
            ran.clear()

            with pytest.raises(HousekeepingError) as excinfo:
                deployment.housekeeping()
            # The failure is reported...
            assert set(excinfo.value.failures) == {"expire_old_snapshots"}
            assert "pincushion on fire" in str(excinfo.value)
            # ...and every later stage still ran: vacuum executed and the
            # supervisor respawned the dead node in the same pass.
            assert ran == ["expiry", "vacuum"]
            assert "cache1" in deployment.cache.ring
            assert deployment.supervisor.stats.respawns == 1

    def test_multiple_failures_are_all_collected(self):
        with _supervised_deployment() as deployment:
            deployment.pincushion.expire_old_snapshots = _raise_runtime
            deployment.database.vacuum = _raise_runtime
            with pytest.raises(HousekeepingError) as excinfo:
                deployment.housekeeping()
            assert set(excinfo.value.failures) == {
                "expire_old_snapshots",
                "vacuum",
            }

    def test_clean_housekeeping_raises_nothing(self):
        with _supervised_deployment() as deployment:
            deployment.housekeeping()


def _raise_runtime():
    raise RuntimeError("boom")


# ----------------------------------------------------------------------
# The supervisor's backoff ladder and its cap
# ----------------------------------------------------------------------
#: Respawn delays for rungs 0-9 of a supervisor seeded 0 (base 0.1 s,
#: jitter 0.5), recorded before its growth and cap became constants.
SUPERVISOR_LADDER = [
    0.057778907424, 0.124204559706, 0.315885683834, 0.696433299883,
    1.190980222905, 2.552105380079, 3.040503527413, 4.241718184803,
    3.808507614619, 3.541544901362,
]


class TestBackoffCaps:
    def test_a_deep_crash_loop_never_waits_past_the_cap(self):
        clock = ManualClock()
        with _supervised_deployment(clock) as deployment:
            supervisor = deployment.supervisor
            supervisor.max_restarts = 100
            supervisor.restart_window_seconds = 1e6
            # Ten respawns in the window: uncapped, the last rung would wait
            # 0.1 * 2**9 = 51 s.
            for _ in range(10):
                crash_and_detect(deployment.cache, "cache1")
                supervisor.pump()
                assert supervisor.states["cache1"] == "backoff"
                clock.advance(BACKOFF_MAX_SECONDS)
                assert supervisor.pump() == 1
            assert supervisor.stats.respawns == 10

    def test_the_first_respawn_waits_the_instance_backoff_base(self):
        """The ladder starts at ``BACKOFF_BASE_SECONDS``; a test may narrow
        or widen it on the instance, as it may the breaker's bounds."""
        clock = ManualClock()
        with _supervised_deployment(clock) as deployment:
            supervisor = deployment.supervisor
            assert supervisor.backoff_base_seconds == BACKOFF_BASE_SECONDS == 0.1
            supervisor.backoff_base_seconds = 2.0
            supervisor.jitter_fraction = 0.0
            crash_and_detect(deployment.cache, "cache1")
            supervisor.pump()
            clock.advance(1.5)
            assert supervisor.pump() == 0
            assert supervisor.states["cache1"] == "backoff"
            clock.advance(1.0)
            assert supervisor.pump() == 1
            assert supervisor.states["cache1"] == "serving"

    def test_supervisor_ladder_is_unchanged_and_capped(self):
        with _supervised_deployment() as deployment:
            supervisor = deployment.supervisor
            delays = [
                supervisor._backoff_delay(
                    _NodeRecord(name="n", capacity_bytes=1, failed_attempts=rung), 0.0
                )
                for rung in range(len(SUPERVISOR_LADDER))
            ]
            assert delays == pytest.approx(SUPERVISOR_LADDER, abs=1e-12)
            supervisor.jitter_fraction = 0.0
            deep = _NodeRecord(name="n", capacity_bytes=1, failed_attempts=40)
            assert supervisor._backoff_delay(deep, 0.0) == BACKOFF_MAX_SECONDS == 5.0

# ----------------------------------------------------------------------
# One unreachable error, naming the node and the op
# ----------------------------------------------------------------------
class TestErrorTaxonomy:
    def test_a_refused_dial_is_unreachable_and_names_the_node(self):
        import socket as _socket

        probe = _socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        with pytest.raises(CacheNodeUnreachableError) as excinfo:
            # The transport dials eagerly; a refused port surfaces either
            # here or on the first RPC.
            SocketTransport(
                ("127.0.0.1", port), name="ghost", timeout_seconds=1.0
            ).watermark()
        assert type(excinfo.value) is CacheNodeUnreachableError
        assert excinfo.value.node is not None


# ----------------------------------------------------------------------
# A hung node costs a read one RPC timeout per replica it tries
# ----------------------------------------------------------------------
class TestHungReplicas:
    RPC_TIMEOUT_SECONDS = 0.3

    @pytest.mark.parametrize("replication_factor", [1, 2])
    def test_a_read_of_hung_replicas_waits_one_rpc_timeout_per_replica(
        self, replication_factor
    ):
        """Every replica of the key hangs in ``multi_lookup``: the routed
        read asks each once, waits out each one's RPC timeout, and returns
        a degraded miss, with one failure charged per replica."""
        deployment = TxCacheDeployment(
            cache_nodes=2,
            transport="socket",
            replication_factor=replication_factor,
            rpc_timeout_seconds=self.RPC_TIMEOUT_SECONDS,
            clock=SystemClock(),
            failure_threshold=1000,  # keep the hung nodes routable
        )
        released = threading.Event()
        asked = []

        def hang(requests):
            asked.append(len(requests))
            released.wait(10.0)
            return []

        try:
            cluster = deployment.cache
            cluster.put("key", "value", Interval(1, None))
            for server in cluster.servers.values():
                server.multi_lookup = hang
            started = time.monotonic()
            result = cluster.lookup("key", 1, 1)
            elapsed = time.monotonic() - started
            assert not result.hit and result.degraded
            assert asked == [1] * replication_factor
            assert cluster.health.transport_failures == replication_factor
            floor = replication_factor * self.RPC_TIMEOUT_SECONDS
            assert floor * 0.9 <= elapsed < floor + 1.0
        finally:
            released.set()
            deployment.shutdown()


# ----------------------------------------------------------------------
# Real SIGKILL against socket-process children
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    "socket-process" not in transports_under_test(),
    reason="socket-process transport not under test",
)
class TestProcessRecovery:
    def _deployment(self, **overrides):
        settings = dict(
            clock=SystemClock(),
            cache_nodes=3,
            transport="socket-process",
            replication_factor=2,
            failure_threshold=2,
            rpc_timeout_seconds=2.0,
            supervision=True,
        )
        settings.update(overrides)
        return TxCacheDeployment(**settings)

    def _housekeep_until(self, deployment, predicate, timeout=30.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            try:
                deployment.housekeeping()
            except HousekeepingError:
                pass  # a stage tripping over the corpse is expected
            if predicate():
                return
            time.sleep(0.02)
        raise AssertionError("condition not reached before timeout")

    def test_sigkilled_node_returns_to_serving_with_its_keys(self):
        deployment = self._deployment()
        fault = FaultInjector(deployment.cache)
        try:
            keys = 60
            for i in range(keys):
                deployment.cache.put(f"key{i}", f"value{i}", Interval(1, None))
            victim = "cache1"
            fault.kill(victim)
            assert deployment.cache.processes[victim].exitcode is not None

            supervisor = deployment.supervisor
            self._housekeep_until(deployment, lambda: supervisor.stats.respawns == 1)
            # The respawn was a warm join: the full working set is servable
            # again — including from the reborn node.
            hits = sum(
                1
                for i in range(keys)
                if deployment.cache.lookup(f"key{i}", 1, 1).hit
            )
            assert hits == keys
            assert deployment.membership.stats.entries_migrated > 0
            assert len(deployment.cache.node_keys(victim)) > 0
            assert supervisor.stats.respawns == 1
        finally:
            deployment.shutdown()

    def test_one_snapshot_invariant_across_kill_and_respawn(self):
        deployment = self._deployment()
        fault = FaultInjector(deployment.cache)
        try:
            harness = ConsistencyHarness(deployment, seed=7)
            harness.run(30)
            fault.kill("cache1")
            stop = threading.Event()

            def timer():
                while not stop.is_set():
                    try:
                        deployment.housekeeping()
                    except HousekeepingError:
                        pass
                    stop.wait(0.02)

            pumper = threading.Thread(target=timer)
            pumper.start()
            try:
                # The workload spans the crash, the respawn and the warm
                # rejoin: 120 interactions can end inside the backoff, so
                # it runs on until the respawn, then past it.
                harness.run(120)
                deadline = time.time() + 30
                while deployment.supervisor.stats.respawns < 1:
                    assert time.time() < deadline, "cache1 was never respawned"
                    harness.run(10)
                harness.run(30)
            finally:
                stop.set()
                pumper.join(timeout=10)
            assert deployment.supervisor.stats.respawns >= 1
            assert "cache1" in deployment.cache.transports
            # R=2 zero-loss: no read ever degraded to a synthetic miss.
            assert deployment.cache.health.degraded_lookups == 0
        finally:
            deployment.shutdown()

    def test_sigkill_fails_inflight_pipelined_rpcs_promptly(self):
        """Satellite c: pending ResponseSlots on the mux connection are
        poisoned promptly (no rpc_timeout wait) and the routed read then
        recovers on the replica within the deadline."""
        deployment = self._deployment(
            simulated_rpc_latency_seconds=0.25,
            rpc_timeout_seconds=10.0,
            supervision=False,  # isolate the failure path from respawn
        )
        try:
            cluster = deployment.cache
            for i in range(20):
                cluster.put(f"key{i}", f"value{i}", Interval(1, None))
            victim = "cache1"
            transport = cluster._transports[victim]

            results = []

            def inflight(index):
                started = time.monotonic()
                try:
                    lookup_one(transport, f"key{index}", 1, 1)
                    results.append(("ok", time.monotonic() - started))
                except CacheNodeUnreachableError as exc:
                    results.append((exc, time.monotonic() - started))

            workers = [
                threading.Thread(target=inflight, args=(i,)) for i in range(4)
            ]
            for worker in workers:
                worker.start()
            time.sleep(0.1)  # all four RPCs are now in flight (0.25s RTT)
            killed_at = time.monotonic()
            cluster.processes[victim].kill()
            for worker in workers:
                worker.join(timeout=8)
            assert len(results) == 4
            failures = [entry for entry in results if entry[0] != "ok"]
            # Every in-flight RPC failed, promptly: far sooner than the
            # 10s rpc timeout, because the dead socket poisons all slots.
            assert len(failures) == 4
            assert time.monotonic() - killed_at < 5.0
            for exc, elapsed in failures:
                assert isinstance(exc, CacheNodeUnreachableError)
                assert elapsed < 5.0

            # The routed path now recovers the same reads on the replica,
            # within one op deadline.
            started = time.monotonic()
            result = cluster.lookup("key0", 1, 1)
            assert result.hit and result.value == "value0"
            assert time.monotonic() - started < 5.0
            assert cluster.health.degraded_lookups == 0
        finally:
            deployment.shutdown()
