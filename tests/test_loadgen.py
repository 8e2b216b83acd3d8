"""The open-loop load-generation subsystem, tested without wall-clock flake.

Covers the four layers bottom-up: arrival schedules (seeded determinism,
statistical sanity, Poisson splitting), the log-bucketed histogram against
a sorted-list oracle (including merges across shards and process-boundary
serialization), the engine's coordinated-omission behaviour (an injected
stall must surface in the open-loop tail and must *not* surface in the
closed-loop tail — the whole point of the subsystem), and the sweep /
capacity layers driven by a synthetic runner so their logic is exercised
with zero sockets.  One short real multi-process run at the end keeps the
wiring honest.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time

import pytest

from repro.bench.loadgen import (
    ArrivalSchedule,
    CapacityModel,
    LatencyHistogram,
    OpenLoopConfig,
    RatePoint,
    SweepResult,
    capacity_report,
    poisson_arrivals,
    run_open_loop,
    run_openloop_benchmark,
    run_rate_sweep,
    uniform_arrivals,
)
from repro.bench.loadgen.runner import OpenLoopResult


# ----------------------------------------------------------------------
# Arrival schedules
# ----------------------------------------------------------------------
class TestArrivalSchedules:
    def test_same_seed_same_sequence(self):
        assert poisson_arrivals(1000.0, 500, seed=7) == poisson_arrivals(1000.0, 500, seed=7)
        assert ArrivalSchedule(rate=1000.0, seed=7).times(500) == poisson_arrivals(
            1000.0, 500, seed=7
        )

    def test_different_seeds_differ(self):
        assert poisson_arrivals(1000.0, 100, seed=1) != poisson_arrivals(1000.0, 100, seed=2)

    def test_arrivals_are_increasing(self):
        times = poisson_arrivals(500.0, 1000, seed=3)
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_mean_interarrival_matches_rate(self):
        # 20k exponential gaps at rate 1000: the sample mean of the gaps
        # should land within a few percent of 1/rate (std error ~0.7%).
        count = 20_000
        times = poisson_arrivals(1000.0, count, seed=11)
        mean_gap = times[-1] / count
        assert mean_gap == pytest.approx(1e-3, rel=0.05)

    def test_uniform_arrivals_exact(self):
        assert uniform_arrivals(4.0, 3) == [0.25, 0.5, 0.75]

    def test_split_preserves_rate_and_kind(self):
        schedule = ArrivalSchedule(rate=1200.0, kind="uniform", seed=5)
        shares = schedule.split(3)
        assert [s.rate for s in shares] == [400.0, 400.0, 400.0]
        assert all(s.kind == "uniform" for s in shares)
        assert len({s.seed for s in shares}) == 3  # independent generators

    def test_split_shares_are_statistically_independent(self):
        shares = ArrivalSchedule(rate=1000.0, seed=9).split(2)
        assert shares[0].times(100) != shares[1].times(100)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0.0, 10, seed=1)
        with pytest.raises(ValueError):
            uniform_arrivals(10.0, -1)
        with pytest.raises(ValueError):
            ArrivalSchedule(rate=100.0, kind="bursty")
        with pytest.raises(ValueError):
            ArrivalSchedule(rate=-1.0)
        with pytest.raises(ValueError):
            ArrivalSchedule(rate=100.0).split(0)


# ----------------------------------------------------------------------
# Histogram vs a sorted-list oracle
# ----------------------------------------------------------------------
#: One bucket's relative width at 90 buckets/decade — the error bound the
#: histogram's quantiles must stay within (plus float slop).
BUCKET_REL_ERROR = 10.0 ** (1.0 / 90.0) - 1.0


def oracle_percentile(samples, p):
    ranked = sorted(samples)
    rank = max(1, math.ceil(len(ranked) * p / 100.0))
    return ranked[rank - 1]


class TestLatencyHistogram:
    def _samples(self, seed, count=5000):
        rng = random.Random(seed)
        # Log-uniform over 100us..1s: spans four decades like a real mixed
        # fast-path / stalled-tail latency profile.
        return [10.0 ** rng.uniform(-4.0, 0.0) for _ in range(count)]

    def test_percentiles_match_oracle_within_bucket_error(self):
        samples = self._samples(seed=1)
        histogram = LatencyHistogram()
        for sample in samples:
            histogram.record(sample)
        for p in (50.0, 90.0, 95.0, 99.0, 99.9):
            exact = oracle_percentile(samples, p)
            measured = histogram.percentile(p)
            assert exact <= measured <= exact * (1.0 + BUCKET_REL_ERROR) * (1.0 + 1e-9)

    def test_merge_across_shards_equals_whole(self):
        samples = self._samples(seed=2, count=3000)
        whole = LatencyHistogram()
        shards = [LatencyHistogram() for _ in range(4)]
        for index, sample in enumerate(samples):
            whole.record(sample)
            shards[index % 4].record(sample)
        merged = LatencyHistogram.merged(shards)
        assert merged.count == whole.count == len(samples)
        assert merged.max == whole.max
        for p in (50.0, 95.0, 99.0, 99.9):
            assert merged.percentile(p) == whole.percentile(p)

    def test_merge_rejects_different_layouts(self):
        with pytest.raises(ValueError):
            LatencyHistogram().merge(LatencyHistogram(buckets_per_decade=30))

    def test_serialization_round_trip(self):
        histogram = LatencyHistogram()
        for sample in self._samples(seed=3, count=500):
            histogram.record(sample)
        clone = LatencyHistogram.from_dict(histogram.to_dict())
        assert clone.count == histogram.count
        assert clone.max == histogram.max
        assert clone.mean == histogram.mean
        assert clone.percentiles() == histogram.percentiles()

    def test_max_is_exact_and_caps_quantiles(self):
        histogram = LatencyHistogram()
        for _ in range(100):
            histogram.record(0.001)
        histogram.record(0.7654321)
        assert histogram.max == 0.7654321
        # p99.9 falls in the outlier's bucket; the report must be the exact
        # observed max, not the bucket's upper edge.
        assert histogram.percentile(99.9) == 0.7654321

    def test_out_of_range_samples_clamp(self):
        histogram = LatencyHistogram(min_latency=1e-3, max_latency=1.0)
        histogram.record(-5.0)  # clamps to zero -> lowest bucket
        histogram.record(50.0)  # beyond max -> top bucket, exact max kept
        assert histogram.count == 2
        assert histogram.max == 50.0
        assert histogram.percentile(100.0) == 50.0

    def test_empty_histogram(self):
        histogram = LatencyHistogram()
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.percentile(99.0) == 0.0
        assert LatencyHistogram.merged([]).count == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram(min_latency=0.0)
        with pytest.raises(ValueError):
            LatencyHistogram(min_latency=2.0, max_latency=1.0)
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(0.0)
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(101.0)


# ----------------------------------------------------------------------
# Engine: coordinated omission is the regression under test
# ----------------------------------------------------------------------
def _stalling_executor_factory(stall_at: int, stall_seconds: float):
    """Executors whose op ``stall_at`` stalls; every other op is fast."""

    def make_executor(thread_index: int):
        def execute(op_index: int) -> None:
            time.sleep(stall_seconds if op_index == stall_at else 0.0002)

        return execute

    return make_executor


class TestOpenLoopEngine:
    def test_injected_stall_charges_the_open_loop_tail(self):
        # 240 arrivals at 400/s with a 120ms stall injected at op 40.  Open
        # loop: ~48 arrivals fall due during the stall and each is charged
        # its queueing delay from its *scheduled* time, so the stall owns
        # the tail far past p80.  Closed loop: the same stall delays the
        # schedule instead, exactly one sample (~0.4%) is slow, and p99 of
        # service time still looks sub-millisecond — coordinated omission.
        times = uniform_arrivals(400.0, 240)
        make_executor = _stalling_executor_factory(stall_at=40, stall_seconds=0.12)

        open_stats = run_open_loop(times, make_executor, threads=1, mode="open")
        closed_stats = run_open_loop(times, make_executor, threads=1, mode="closed")

        assert open_stats.completed == closed_stats.completed == 240
        assert open_stats.errors == closed_stats.errors == 0
        assert open_stats.histogram.percentile(99.0) >= 0.05
        assert closed_stats.histogram.percentile(99.0) <= 0.02
        # Both saw the stall itself: the max service/latency is >= 120ms.
        assert closed_stats.histogram.max >= 0.12

    def test_open_loop_holds_offered_duration(self):
        # An idle-capable executor must not finish faster than the
        # schedule: open loop paces, closed loop front-runs.
        times = uniform_arrivals(1000.0, 200)  # 0.2s of schedule
        make_executor = _stalling_executor_factory(stall_at=-1, stall_seconds=0.0)
        open_stats = run_open_loop(times, make_executor, threads=2, mode="open")
        closed_stats = run_open_loop(times, make_executor, threads=2, mode="closed")
        assert open_stats.wall_seconds >= 0.19
        assert closed_stats.wall_seconds < open_stats.wall_seconds

    def test_errors_counted_not_recorded(self):
        times = uniform_arrivals(2000.0, 50)

        def make_executor(thread_index: int):
            def execute(op_index: int) -> None:
                if op_index % 5 == 0:
                    raise RuntimeError("boom")

            return execute

        stats = run_open_loop(times, make_executor, threads=2, mode="open")
        assert stats.errors == 10
        assert stats.completed == 40
        assert stats.histogram.count == 40

    def test_empty_schedule(self):
        stats = run_open_loop([], _stalling_executor_factory(-1, 0.0), threads=2)
        assert stats.completed == 0
        assert stats.wall_seconds == 0.0

    def test_validation(self):
        factory = _stalling_executor_factory(-1, 0.0)
        with pytest.raises(ValueError):
            run_open_loop([0.1], factory, threads=0)
        with pytest.raises(ValueError):
            run_open_loop([0.1], factory, mode="ajar")


# ----------------------------------------------------------------------
# Sweep + capacity on a synthetic system (no sockets)
# ----------------------------------------------------------------------
def _fake_runner(capacity_ops: float, slow_above: float):
    """A runner modelling a system saturating at ``capacity_ops``.

    Below ``slow_above`` the tail is 2ms; past it (but still under
    capacity) p99 blows out to 500ms — so the SLO ceiling sits below the
    goodput knee, which is the distinction the sweep exists to report.
    """

    def runner(config: OpenLoopConfig) -> OpenLoopResult:
        achieved = min(config.offered_rate, capacity_ops)
        p99 = 0.002 if config.offered_rate <= slow_above else 0.5
        histogram = LatencyHistogram()
        for _ in range(100):
            histogram.record(p99)
        return OpenLoopResult(
            label=config.label,
            offered_rate=config.offered_rate,
            mode=config.mode,
            arrival=config.arrival,
            processes=config.processes,
            threads_per_process=config.threads_per_process,
            transport="fake",
            completed=int(achieved * 2),
            errors=0,
            wall_seconds=2.0,
            achieved_goodput=achieved,
            hit_rate=1.0,
            histogram=histogram,
        )

    return runner


class TestSweepAndCapacity:
    def test_knee_and_slo_ceiling(self):
        sweep = run_rate_sweep(
            OpenLoopConfig(label="fake"),
            rates=[250, 500, 1000, 2000],
            runner=_fake_runner(capacity_ops=1000.0, slow_above=600.0),
        )
        assert [p.offered_rate for p in sweep.points] == [250, 500, 1000, 2000]
        knee = sweep.knee()
        assert knee is not None and knee.offered_rate == 1000
        slo = sweep.max_rate_under_slo(0.05)
        assert slo is not None and slo.offered_rate == 500
        assert "fake" in sweep.format_table()

    def test_geometric_ramp_stops_after_saturation(self):
        calls = []

        def counting_runner(config):
            calls.append(config.offered_rate)
            return _fake_runner(capacity_ops=1000.0, slow_above=600.0)(config)

        sweep = run_rate_sweep(
            OpenLoopConfig(label="fake"),
            start_rate=500.0,
            growth=2.0,
            max_points=8,
            runner=counting_runner,
        )
        # 500 absorbed, 1000 absorbed, 2000 saturated -> stop: 3 calls, not 8.
        assert calls == [500.0, 1000.0, 2000.0]
        assert sweep.knee().offered_rate == 1000.0

    def test_total_ops_scale_with_rate(self):
        seen = []

        def recording_runner(config):
            seen.append((config.offered_rate, config.total_ops))
            return _fake_runner(10_000.0, 10_000.0)(config)

        run_rate_sweep(
            OpenLoopConfig(),
            rates=[100, 1000],
            seconds_per_point=3.0,
            runner=recording_runner,
        )
        assert seen == [(100.0, 300), (1000.0, 3000)]

    def test_capacity_model_math(self):
        model = CapacityModel(
            label="unit",
            sustained_ops_per_second=1000.0,
            p99_at_sustained=0.002,
            cache_nodes=2,
            driver_cores=4,
            think_time_seconds=7.0,
        )
        assert model.ops_per_core == 250.0
        assert model.ops_per_node == 500.0
        assert model.concurrent_users == 7000.0
        assert model.users_at_nodes(8) == 28_000.0
        assert "concurrent users" in model.format_table()

    def test_capacity_report_prefers_slo_point(self):
        sweep = run_rate_sweep(
            OpenLoopConfig(label="fake"),
            rates=[250, 500, 1000],
            runner=_fake_runner(capacity_ops=1000.0, slow_above=600.0),
        )
        model = capacity_report(sweep, cache_nodes=2, driver_cores=2, slo_seconds=0.05)
        assert model.sustained_ops_per_second == 500.0
        # Without an SLO the knee is the sustained rate.
        model = capacity_report(sweep, cache_nodes=2, driver_cores=2)
        assert model.sustained_ops_per_second == 1000.0

    def test_capacity_report_none_when_nothing_absorbed(self):
        sweep = SweepResult(label="dead", transport="fake", points=[])
        assert capacity_report(sweep, cache_nodes=2) is None

    def test_rate_point_saturation(self):
        point = RatePoint(
            offered_rate=1000.0,
            achieved_goodput=800.0,
            p50=0.001,
            p95=0.002,
            p99=0.003,
            p999=0.004,
            errors=0,
            hit_rate=1.0,
        )
        assert point.saturation == 0.8

    def test_sweep_validation(self):
        with pytest.raises(ValueError):
            run_rate_sweep(OpenLoopConfig(), rates=[])
        with pytest.raises(ValueError):
            run_rate_sweep(OpenLoopConfig(), rates=[-5.0])
        with pytest.raises(ValueError):
            run_rate_sweep(OpenLoopConfig(), start_rate=0.0)


# ----------------------------------------------------------------------
# One short real run: the multi-process wiring, end to end
# ----------------------------------------------------------------------
class TestOpenLoopBenchmark:
    def test_multiprocess_open_loop_end_to_end(self):
        config = OpenLoopConfig(
            offered_rate=600.0,
            total_ops=600,
            processes=2,
            threads_per_process=2,
            label="loadgen-e2e",
        )
        result = run_openloop_benchmark(config)
        assert result.errors == 0
        assert result.completed == 600
        assert result.histogram.count == 600
        assert result.achieved_goodput > 0
        assert result.transport == "socket"
        assert 0.0 < result.hit_rate <= 1.0
        percentiles = result.percentiles()
        assert percentiles[50.0] <= percentiles[99.0]
        assert "offered" in result.summary()

    def test_benchmark_validation(self):
        with pytest.raises(ValueError):
            run_openloop_benchmark(dataclasses.replace(OpenLoopConfig(), processes=0))
        with pytest.raises(ValueError):
            run_openloop_benchmark(dataclasses.replace(OpenLoopConfig(), total_ops=0))
        with pytest.raises(ValueError):
            run_openloop_benchmark(dataclasses.replace(OpenLoopConfig(), transport="inprocess"))
