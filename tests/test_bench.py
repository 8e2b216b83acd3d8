"""Tests for the benchmark harness: cost model, driver, and experiments."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.apps.rubis.datagen import IN_MEMORY_CONFIG
from repro.bench.costmodel import BufferCache, ClusterSpec, CostModel
from repro.bench.driver import (
    BenchmarkConfig,
    ChurnEvent,
    apply_churn,
    rolling_restart_events,
    run_benchmark,
)
from repro.bench.experiments import (
    ChurnResult,
    ExperimentSettings,
    churn,
    run_threaded_point,
    validity_tracking_overhead,
)
from repro.bench.report import format_series, format_table
from repro.core.api import ConsistencyMode
from repro.db.executor import QueryResult
from repro.db.query import Select
from repro.deployment import TxCacheDeployment
from repro.interval import Interval


def fake_result(rows=(), examined=0):
    return QueryResult(
        rows=list(rows), validity=Interval(0), tags=frozenset(), timestamp=0, examined=examined
    )


class TestBufferCache:
    def test_first_access_misses_then_hits(self):
        cache = BufferCache(capacity_rows=10)
        assert not cache.access("t", 1)
        assert cache.access("t", 1)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_lru_eviction(self):
        cache = BufferCache(capacity_rows=2)
        cache.access("t", 1)
        cache.access("t", 2)
        cache.access("t", 3)  # evicts 1
        assert not cache.access("t", 1)

    def test_capacity_floor(self):
        assert BufferCache(capacity_rows=0).capacity_rows == 1


class TestCostModel:
    def test_query_costs_accumulate(self):
        model = CostModel()
        model.begin_interaction()
        model.observe_query(Select("users"), fake_result(examined=10))
        cost = model.end_interaction()
        params = model.parameters
        assert cost.db == pytest.approx(params.db_cost_per_query + 10 * params.db_cost_per_tuple)
        assert cost.web > 0

    def test_disk_bound_charges_buffer_misses(self):
        model = CostModel(disk_bound=True, total_rows=1000)
        model.begin_interaction()
        rows = [{"id": i} for i in range(5)]
        model.observe_query(Select("users"), fake_result(rows=rows))
        first = model.end_interaction()
        model.begin_interaction()
        model.observe_query(Select("users"), fake_result(rows=rows))
        second = model.end_interaction()
        # The second access finds the rows in the buffer cache.
        assert second.db < first.db

    def test_cacheable_call_costs(self):
        model = CostModel()
        model.begin_interaction()
        model.charge_cacheable_call(hit=True)
        hit_cost = model.current.web
        model.charge_cacheable_call(hit=False)
        model.charge_bypassed_call()
        cost = model.end_interaction()
        assert cost.cache > 0
        assert hit_cost < model.parameters.web_cost_per_cacheable_call + model.parameters.web_cost_per_interaction

    def test_peak_throughput_uses_bottleneck(self):
        model = CostModel()
        model.begin_interaction()
        model.current.db += 0.010
        model.current.web += 0.002
        model.end_interaction()
        cluster = ClusterSpec(db_nodes=1, web_nodes=4, cache_nodes=1)
        assert model.bottleneck(cluster) == "db"
        assert model.peak_throughput(cluster) == pytest.approx(100.0, rel=0.2)

    def test_utilization_shares_normalized(self):
        model = CostModel()
        model.begin_interaction()
        model.current.db += 0.010
        model.current.web += 0.005
        model.current.cache += 0.001
        model.end_interaction()
        shares = model.utilization_shares(ClusterSpec(1, 1, 1))
        assert shares["db"] == pytest.approx(1.0)
        assert 0 < shares["cache"] < shares["web"] < 1.0

    def test_reset(self):
        model = CostModel()
        model.begin_interaction()
        model.current.db += 1.0
        model.end_interaction()
        model.reset()
        assert model.interactions == 0
        assert model.demand_per_interaction().db == 0.0


class TestClusterSpec:
    def test_paper_defaults(self):
        in_memory = ClusterSpec.in_memory_default()
        assert (in_memory.db_nodes, in_memory.web_nodes, in_memory.cache_nodes) == (1, 7, 2)
        disk = ClusterSpec.disk_bound_default()
        assert disk.web_nodes == disk.cache_nodes == 8


class TestBenchmarkDriver:
    @pytest.fixture(scope="class")
    def quick_result(self):
        config = BenchmarkConfig(
            database_config=IN_MEMORY_CONFIG,
            cache_size_bytes=256 * 1024,
            scale=400,
            sessions=6,
            warmup_interactions=150,
            measure_interactions=300,
            seed=2,
            label="unit-test",
        )
        return config, run_benchmark(config)

    def test_result_fields_populated(self, quick_result):
        config, result = quick_result
        assert result.label == "unit-test"
        assert result.peak_throughput > 0
        assert 0.0 <= result.hit_rate <= 1.0
        assert result.interactions == config.measure_interactions
        assert result.bottleneck in {"db", "web", "cache"}
        assert result.simulated_seconds > 0
        assert sum(result.miss_fractions.values()) == pytest.approx(1.0, abs=1e-6) or result.miss_fractions

    def test_caching_beats_no_caching(self, quick_result):
        config, cached = quick_result
        baseline_config = BenchmarkConfig(
            database_config=IN_MEMORY_CONFIG,
            cache_size_bytes=256 * 1024,
            mode=ConsistencyMode.NO_CACHE,
            scale=400,
            sessions=6,
            warmup_interactions=150,
            measure_interactions=300,
            seed=2,
        )
        baseline = run_benchmark(baseline_config)
        assert baseline.hit_rate == 0.0
        assert cached.peak_throughput > baseline.peak_throughput

    def test_workload_mix_is_mostly_read_only(self, quick_result):
        _config, result = quick_result
        assert 0.05 <= result.read_write_fraction <= 0.25

    def test_summary_is_a_single_line(self, quick_result):
        _config, result = quick_result
        assert "\n" not in result.summary()


class TestExperimentHelpers:
    def test_experiment_settings_quick_and_full_differ(self):
        assert ExperimentSettings.quick().measure_interactions < ExperimentSettings.full().measure_interactions

    def test_validity_tracking_overhead_is_small(self):
        result = validity_tracking_overhead(queries=400)
        # The paper found no observable difference; allow generous slack for
        # the Python implementation but catch pathological regressions.
        assert result.overhead_fraction < 2.0
        assert result.stock_seconds_per_query > 0
        assert "overhead" in result.format_table()


class TestReport:
    def test_format_table_aligns_columns(self):
        text = format_table(["a", "bb"], [[1, "x"], [22, "yy"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        # title + header + separator + two data rows
        assert len(lines) == 5
        assert all(len(line) == len(lines[1]) for line in lines[1:])

    def test_format_series(self):
        text = format_series("hit rate", [1, 2], [0.5, 1.0])
        assert "hit rate" in text and "1:" in text


def _benchmark_with_churn(churn):
    return run_benchmark(
        BenchmarkConfig(
            database_config=IN_MEMORY_CONFIG,
            cache_size_bytes=64 * 1024,
            measure_interactions=100,
            churn=churn,
        )
    )


def _threaded_point_with_churn(churn):
    return run_threaded_point(2, "inprocess", 100, churn=churn)


@pytest.mark.parametrize(
    "run", [_benchmark_with_churn, _threaded_point_with_churn], ids=["run_benchmark", "threaded"]
)
@pytest.mark.parametrize("at_interaction", [-1, 100])
def test_churn_event_outside_measurement_phase_is_rejected(run, at_interaction):
    """Regression: a churn event that would never fire must be an error,
    not a silent no-op producing a baseline run in disguise."""
    with pytest.raises(ValueError, match="outside"):
        run((ChurnEvent(at_interaction, "join"),))


@pytest.mark.parametrize("transport", ["inprocess", "socket"])
def test_threaded_crash_and_rejoin_fire_at_their_interactions(transport):
    """One churn path on threads: a crash at interaction 60 and a warm
    rejoin at 140 fire inside the workers that claim those indices.  With
    R=2 the survivor serves the dead node's keys, so no worker errs and no
    read degrades while the eviction and the live migration run."""
    point = run_threaded_point(
        4,
        transport,
        200,
        churn=(
            ChurnEvent(60, "crash", node="cache0"),
            ChurnEvent(140, "join", node="cache0"),
        ),
        replication_factor=2,
    )
    assert point.nodes_evicted == 1
    assert point.errors == 0
    assert point.interactions == 200
    assert point.degraded_lookups == 0


@pytest.mark.parametrize("transport", ["inprocess", "socket"])
def test_a_join_right_after_a_crash_restarts_the_node(transport):
    """No traffic reached the crashed node, so nothing suspects it: the
    join probes it until the threshold evicts it, then rejoins it.  A join
    of a live member is still refused."""
    with TxCacheDeployment(cache_nodes=3, transport=transport) as deployment:
        with pytest.raises(ValueError, match="live member"):
            apply_churn(deployment, ChurnEvent(0, "join", node="cache1"))
        apply_churn(deployment, ChurnEvent(0, "crash", node="cache1"))
        apply_churn(deployment, ChurnEvent(1, "join", node="cache1"))
        assert "cache1" in deployment.cache.ring
        changes = [record.change for record in deployment.membership.history]
        assert changes[-2:] == ["evict", "rejoin"]
        assert deployment.cache.health.transport_failures == deployment.failure_threshold
        assert deployment.membership.stats.failure_evictions == 1


@pytest.mark.parametrize("action", ["leave", "drain"])
def test_apply_churn_refuses_an_action_it_does_not_know(action):
    """A churn event is a join or a crash; anything else is an error, not
    a membership change."""
    with TxCacheDeployment() as deployment:
        with pytest.raises(ValueError, match="unknown churn action"):
            apply_churn(deployment, ChurnEvent(0, action, node="cache0"))
        assert deployment.cache.ring.nodes == ["cache0", "cache1"]


def test_rolling_restart_events_place_each_crash_and_rejoin():
    events = rolling_restart_events(["a", "b", "c"], start=10, downtime=3, gap=7)
    assert [(e.at_interaction, e.action, e.node, e.migrate) for e in events] == [
        (10, "crash", "a", True),
        (13, "join", "a", True),
        (17, "crash", "b", True),
        (20, "join", "b", True),
        (24, "crash", "c", True),
        (27, "join", "c", True),
    ]


@pytest.mark.parametrize("downtime, gap", [(0, 5), (3, 3), (4, 3)])
def test_rolling_restart_events_refuse_overlapping_downtimes(downtime, gap):
    with pytest.raises(ValueError, match="gap > downtime >= 1"):
        rolling_restart_events(["a", "b"], start=1, downtime=downtime, gap=gap)


def _timeline_result(window, first_event, timeline):
    return ChurnResult(
        schedule="crash",
        window=window,
        events=[ChurnEvent(first_event + 100, "join"), ChurnEvent(first_event, "crash")],
        runs={"run": SimpleNamespace(hit_rate_timeline=timeline)},
    )


def test_churn_trough_and_recovery_read_from_the_first_event_window():
    # The first event, at interaction 250, falls in window 2 (200-299);
    # windows 0-1 are before it.
    result = _timeline_result(100, 250, [0.1, 0.2, 0.3, 0.6, 0.7, 0.9, 0.8])
    assert result.trough("run") == 0.3
    # Windows from 2 on: [0.3, 0.6, 0.7, 0.9, 0.8]; the second half is the
    # last three.
    assert result.recovered("run") == pytest.approx((0.7 + 0.9 + 0.8) / 3)


def test_churn_trough_and_recovery_of_an_empty_tail_are_zero():
    result = _timeline_result(100, 500, [0.5, 0.6])
    assert result.trough("run") == 0.0
    assert result.recovered("run") == 0.0


def test_churn_names_its_schedules_when_asked_for_another():
    with pytest.raises(ValueError) as refused:
        churn("nope")
    message = str(refused.value)
    for schedule in ("'join'", "'crash'", "'rolling-restart'"):
        assert schedule in message
