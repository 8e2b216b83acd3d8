"""Open-loop benchmark smoke: a short fixed-rate sweep on the fast stack.

The open-loop machinery works end to end at benchmark scale: a small rate
sweep on thread-hosted nodes completes with zero errors, absorbs the low
offered rates, and produces monotone percentile data.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.bench.loadgen import OpenLoopConfig, capacity_report, run_rate_sweep

#: 2 worker processes x 4 threads against 2 cache nodes on the fast wire
#: stack; rates low enough that a small CI runner absorbs the first and the
#: sweep logic (knee, SLO point) has real data to chew on.
SWEEP_RATES = [400.0, 1200.0]


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
