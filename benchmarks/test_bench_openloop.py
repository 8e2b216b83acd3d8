"""Open-loop benchmark smoke: a short fixed-rate sweep on the fast stack.

Two claims under test.  First, the open-loop machinery works end to end at
benchmark scale: a small rate sweep on thread-hosted nodes completes with
zero errors, absorbs the low offered rates, and produces monotone
percentile data.  Second, a smoke-sized ``figures-openloop`` run returns
measured points for every figure, each carrying the configuration, offered
rate, achieved goodput and ordered p50/p95/p99 the plots consume.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.bench.experiments import figures_openloop, repair_openloop
from repro.bench.loadgen import OpenLoopConfig, capacity_report, run_rate_sweep

#: 2 worker processes x 4 threads against 2 cache nodes on the fast wire
#: stack; rates low enough that a small CI runner absorbs the first and the
#: sweep logic (knee, SLO point) has real data to chew on.
SWEEP_RATES = [400.0, 1200.0]

#: What every figure point reports: the acceptance currency of the
#: open-loop re-measurement.
FIGURE_POINT_KEYS = (
    "configuration",
    "offered_rate",
    "achieved_goodput",
    "p50_ms",
    "p95_ms",
    "p99_ms",
)


def test_open_loop_rate_sweep_on_fast_stack(benchmark):
    config = OpenLoopConfig(
        processes=2,
        threads_per_process=4,
        transport="socket",
        seed=7,
        label="openloop-smoke",
    )

    def run():
        return run_rate_sweep(config, rates=SWEEP_RATES, seconds_per_point=1.5)

    sweep = run_once(benchmark, run)
    print("\n" + sweep.format_table())
    assert len(sweep.points) == len(SWEEP_RATES)
    for point in sweep.points:
        assert point.errors == 0
        assert point.achieved_goodput > 0
        assert 0.0 < point.p50 <= point.p95 <= point.p99 <= point.p999
    # 400 ops/s across 8 workers is far below saturation: the system must
    # absorb it (the knee exists), or the open loop is not actually pacing.
    knee = sweep.knee()
    assert knee is not None
    assert knee.offered_rate >= SWEEP_RATES[0]
    model = capacity_report(sweep, cache_nodes=2, driver_cores=2)
    assert model is not None and model.concurrent_users > 0


def test_figures_openloop_smoke_emits_valid_document(benchmark):
    """A smoke-sized figures-openloop run measures every figure: each
    section has points, and every point reports the configuration, offered
    rate, achieved goodput and p50 <= p95 <= p99 (milliseconds)."""
    result = run_once(benchmark, figures_openloop, smoke=True)
    print("\n" + result.format_table())
    assert result.transport == "socket"
    for section in ("figure5", "figure6", "figure7", "figure8"):
        points = result.points[section]
        assert points, f"section {section!r}: no measured points"
        for point in points:
            for key in FIGURE_POINT_KEYS:
                assert key in point, (section, key)
            assert point["p50_ms"] <= point["p95_ms"] <= point["p99_ms"], (section, point)
    # The capacity model rode along from the 512MB sweep.
    assert result.capacity is not None and result.capacity.concurrent_users > 0


def test_repair_openloop_smoke_budgeted_plane_matches_the_sweep(benchmark):
    """The repair-interference experiment runs end to end at smoke scale.

    Structural contract only — the p99 ratios are machine-sensitive and are
    asserted nowhere; what must hold everywhere is that all three scenarios
    complete the full schedule without errors, both repair scenarios
    re-replicate exactly the same damaged entries, and the budgeted run
    actually went through the maintenance plane (windows elapsed, repair
    spread over several chunks) rather than degenerating into a synchronous
    sweep.  Counts, not wall-clock comparisons: how long either repair
    took depends on the machine.
    """

    def run():
        return repair_openloop(smoke=True)

    result = run_once(benchmark, run)
    print("\n" + result.format_table())
    assert [r.label for r in result.runs] == [
        "no repair", "synchronous sweep", "budgeted plane",
    ]
    assert result.damaged > 0
    expected_arrivals = int(result.offered_rate * 1.5)  # the smoke schedule
    for scenario in result.runs:
        assert scenario.stats.errors == 0
        assert scenario.stats.completed == expected_arrivals
        assert scenario.p50 > 0.0
    baseline = result.run_named("no repair")
    sync = result.run_named("synchronous sweep")
    budgeted = result.run_named("budgeted plane")
    assert baseline.repaired == 0
    assert sync.repaired == budgeted.repaired == result.damaged
    # The budgeted run really was budgeted: the plane's clock saw multiple
    # refill windows and the repair ran as more than one chunk.
    assert budgeted.budget_windows > 1
    assert budgeted.chunks_run > 1
    assert sync.chunks_run == 0 and sync.repair_seconds > 0.0
