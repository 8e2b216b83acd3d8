#!/usr/bin/env python3
"""Regenerate the paper's evaluation figures and table from the command line.

Examples:

    python examples/paper_experiments.py --experiment fig5a
    python examples/paper_experiments.py --experiment fig7 --full
    python examples/paper_experiments.py --experiment all

``--full`` uses larger datasets and longer measurement windows (slower but
smoother curves); the default quick settings finish each experiment in well
under a minute.  Each experiment prints its table; what it reproduces is
described in ``repro.bench.experiments``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench.experiments import (
    ExperimentSettings,
    chaos_openloop,
    concurrent_churn,
    concurrent_clients,
    figure5,
    figure6,
    figure7,
    figure8,
    figures_openloop,
    percore_openloop,
    repair_openloop,
    validity_tracking_overhead,
)

EXPERIMENTS = (
    "fig5a", "fig5b", "fig6a", "fig6b", "fig7", "fig8", "overhead",
    "concurrency", "concurrent-churn", "figures-openloop",
    "percore-openloop", "repair-openloop", "chaos-openloop",
)


def run_experiment(name: str, settings: ExperimentSettings, smoke: bool = False) -> None:
    started = time.time()
    if name == "fig5a":
        print(figure5("in-memory", settings=settings).format_table())
    elif name == "fig5b":
        print(figure5("disk-bound", settings=settings).format_table())
    elif name == "fig6a":
        print(figure6("in-memory", settings=settings).format_hit_rate_table())
    elif name == "fig6b":
        print(figure6("disk-bound", settings=settings).format_hit_rate_table())
    elif name == "fig7":
        print(figure7(settings=settings).format_table())
    elif name == "fig8":
        print(figure8(settings=settings).format_table())
    elif name == "overhead":
        print(validity_tracking_overhead().format_table())
    elif name == "concurrency":
        # Wall-clock throughput vs worker threads (beyond the paper's
        # figures): the socket series should scale, the in-process series
        # documents the GIL bound.
        print(concurrent_clients().format_table())
    elif name == "concurrent-churn":
        print(concurrent_churn().format_table())
    elif name == "figures-openloop":
        # Figures 5-8 re-measured by the open-loop generator on the fast
        # wire stack (thread-hosted nodes): fixed offered rates,
        # coordinated-omission-safe percentiles.  --smoke shrinks to one
        # configuration per figure at one rate (shape, not benchmark
        # numbers).
        print(figures_openloop(settings=settings, smoke=smoke).format_table())
    elif name == "percore-openloop":
        # Per-core cache nodes: the same fixed offered rate against
        # {1,2,4} nodes hosted as coordinator threads (one shared GIL)
        # vs one OS process per node (one core per node, pinned).
        # --smoke shrinks to one cell.
        result = percore_openloop(smoke=smoke)
        print(result.format_table())
        if 4 in result.node_counts:
            print(
                f"process-hosted over thread-hosted at 4 nodes: "
                f"{result.process_speedup_at(4):.2f}x "
                f"({result.cpu_count} cores"
                f"{'' if result.scaling_assertable else '; too few to assert scaling'})"
            )
    elif name == "repair-openloop":
        # Repair interference under fixed offered load: the budgeted
        # maintenance plane must re-replicate everything the synchronous
        # sweep does while keeping the foreground p99 near the no-repair
        # baseline.  --smoke shrinks the run (structure, not numbers).
        result = repair_openloop(smoke=smoke)
        print(result.format_table())
        print(
            "p99 vs no-repair baseline: synchronous sweep "
            f"{result.p99_ratio('synchronous sweep'):.2f}x, budgeted plane "
            f"{result.p99_ratio('budgeted plane'):.2f}x"
        )
    elif name == "chaos-openloop":
        # Chaos recovery under fixed offered load: SIGKILL one process-
        # hosted node mid-run and compare supervisor off (ring heals but
        # stays a node short) against supervisor on (detect, respawn,
        # gossip rejoin, budgeted re-warm: hit rate back to >= 90% of the
        # pre-kill baseline with no operator action).  --smoke shrinks the
        # run (structure, not numbers).
        result = chaos_openloop(smoke=smoke)
        print(result.format_table())
        supervised = result.run_named("supervisor on")
        print(
            "supervisor on: "
            + (
                f"hit rate restored in {supervised.recovery_seconds:.2f}s"
                if supervised.restored
                else "hit rate NOT restored within the run"
            )
            + f", {supervised.respawns} respawn(s), "
            f"{supervised.consistency_violations} consistency violation(s)"
        )
    else:
        raise SystemExit(f"unknown experiment {name!r}")
    print(f"[{name} finished in {time.time() - started:.1f}s]\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--experiment",
        default="all",
        choices=EXPERIMENTS + ("all",),
        help="which figure/table to regenerate (default: all)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the larger, slower experiment settings",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shrink the open-loop figure run to a schema-validating smoke",
    )
    args = parser.parse_args()

    settings = ExperimentSettings.full() if args.full else ExperimentSettings.quick()
    names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    for name in names:
        run_experiment(name, settings, smoke=args.smoke)


if __name__ == "__main__":
    main()
