"""Capacity model: sustained ops/s × cluster shape → concurrent-user headroom.

The paper's bottom line is a provisioning statement — how many
application servers and cache nodes a given user population needs — so
the sweep results have to be convertible into that currency.  The model
is Little's law over the interactive loop: a user who issues one
interaction every ``think_time`` seconds consumes ``1/think_time`` ops/s
of capacity, so a tier sustaining ``R`` ops/s within SLO supports
``R × think_time`` concurrent users.  The default think time (7 s) is
the RUBiS browsing-mix transition time the paper's workload uses.

The model deliberately reports the *measured* sustained rate (the SLO
point if the sweep found one, else the knee), not the peak: capacity
planned at the saturation point has zero headroom by construction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.bench.loadgen.sweep import SweepResult
from repro.bench.report import format_table

__all__ = ["CapacityModel", "capacity_report"]

#: RUBiS browsing-mix think time between interactions, seconds.
DEFAULT_THINK_TIME_SECONDS = 7.0


@dataclass(frozen=True)
class CapacityModel:
    """Concurrent-user capacity implied by one measured sustained rate."""

    label: str
    #: ops/s the measured deployment sustained (within SLO if one was set).
    sustained_ops_per_second: float
    #: p99 at the sustained rate, seconds (0.0 when unknown).
    p99_at_sustained: float
    #: Cache nodes in the measured deployment.
    cache_nodes: int
    #: Worker cores driving the measured deployment (processes, here).
    driver_cores: int
    think_time_seconds: float = DEFAULT_THINK_TIME_SECONDS

    @property
    def ops_per_core(self) -> float:
        """Sustained ops/s per driver core (the per-core unit of scaling)."""
        return (
            self.sustained_ops_per_second / self.driver_cores
            if self.driver_cores
            else 0.0
        )

    @property
    def ops_per_node(self) -> float:
        """Sustained ops/s per cache node."""
        return (
            self.sustained_ops_per_second / self.cache_nodes
            if self.cache_nodes
            else 0.0
        )

    @property
    def concurrent_users(self) -> float:
        """Little's law: users = sustained rate × think time."""
        return self.sustained_ops_per_second * self.think_time_seconds

    def users_at_nodes(self, nodes: int) -> float:
        """Linear node extrapolation of the user population.

        First-order only: assumes the cache tier is the bottleneck and
        scales linearly with nodes, which the consistent-hashing design
        supports until the invalidation stream or the database saturates.
        """
        return self.concurrent_users * (nodes / self.cache_nodes) if self.cache_nodes else 0.0

    def format_table(self, node_counts: Sequence[int] = (1, 2, 4, 8, 16)) -> str:
        header = ["cache nodes", "sustained ops/s", "concurrent users"]
        rows = [
            [
                str(nodes),
                f"{self.ops_per_node * nodes:,.0f}",
                f"{self.users_at_nodes(nodes):,.0f}",
            ]
            for nodes in node_counts
        ]
        title = (
            f"{self.label or 'capacity'}: {self.sustained_ops_per_second:,.0f} ops/s sustained "
            f"({self.ops_per_core:,.0f}/core x {self.driver_cores} cores, "
            f"think time {self.think_time_seconds:g}s)"
        )
        return format_table(header, rows, title=title)


def capacity_report(
    sweep: SweepResult,
    *,
    cache_nodes: int,
    driver_cores: Optional[int] = None,
    slo_seconds: Optional[float] = None,
    think_time_seconds: float = DEFAULT_THINK_TIME_SECONDS,
) -> Optional[CapacityModel]:
    """Turn a sweep into a capacity model, or ``None`` if nothing was absorbed.

    The sustained rate is the max rate under ``slo_seconds`` when given
    (the provisioning-grade number), else the goodput knee.
    ``driver_cores`` defaults to the machine's CPU count — the sweep's
    worker processes are the cores being modelled.
    """
    point = None
    if slo_seconds is not None:
        point = sweep.max_rate_under_slo(slo_seconds)
    if point is None:
        point = sweep.knee()
    if point is None:
        return None
    cores = driver_cores if driver_cores is not None else (os.cpu_count() or 1)
    return CapacityModel(
        label=sweep.label,
        sustained_ops_per_second=point.achieved_goodput,
        p99_at_sustained=point.p99,
        cache_nodes=cache_nodes,
        driver_cores=cores,
        think_time_seconds=think_time_seconds,
    )
