"""Benchmark harness: cost model, cluster simulation, and paper experiments.

The paper's evaluation runs RUBiS on a ten-machine cluster and measures peak
requests per second as the number of emulated clients grows.  This package
reproduces each figure and table with a calibrated simulation: the RUBiS
workload really executes against the TxCache stack (so cache behaviour,
consistency, and invalidations are genuine), while machine time is accounted
for by a cost model (database CPU + buffer-cache-aware I/O, web-server CPU,
cache-server CPU) and peak throughput is derived from the measured
per-interaction demand on the bottleneck resource.
"""

from repro.bench.costmodel import ClusterSpec, CostModel, CostParameters
from repro.bench.driver import BenchmarkConfig, BenchmarkResult, ChurnEvent, run_benchmark
from repro.bench.experiments import (
    churn,
    figure5,
    figure6,
    figure7,
    figure8,
    validity_tracking_overhead,
)
from repro.bench.loadgen import (
    ArrivalSchedule,
    CapacityModel,
    LatencyHistogram,
    OpenLoopConfig,
    OpenLoopResult,
    capacity_report,
    run_openloop_benchmark,
    run_rate_sweep,
)

__all__ = [
    "ArrivalSchedule",
    "CapacityModel",
    "LatencyHistogram",
    "OpenLoopConfig",
    "OpenLoopResult",
    "capacity_report",
    "run_openloop_benchmark",
    "run_rate_sweep",
    "CostModel",
    "CostParameters",
    "ClusterSpec",
    "BenchmarkConfig",
    "BenchmarkResult",
    "ChurnEvent",
    "run_benchmark",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "churn",
    "validity_tracking_overhead",
]
