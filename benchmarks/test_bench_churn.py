"""Node-churn benchmarks: joins, crashes, and rolling restarts.

Acceptance properties of the elasticity subsystem:

* a planned join with live key migration is invisible (hit rate within a few
  points of the no-churn baseline), while a cold join shows a miss trough;
* an *unplanned crash* with R-way replication loses no cached state — the
  hit-rate timeline shows no cold-miss trough — while the unreplicated run
  loses the dead node's slice and dips until traffic refills it;
* a rolling restart (crash + warm rejoin of every node in turn) is covered
  by replication during each downtime window;
* a SIGKILLed process-hosted node under open-loop load is respawned by the
  supervisor with no consistency violation, and stays dead without it.
"""

from __future__ import annotations

from repro.bench.experiments import chaos_openloop, churn

from conftest import run_once


def test_join_churn_recovery(benchmark, settings):
    result = run_once(benchmark, churn, "join", settings=settings)
    print()
    print(result.format_table())

    baseline = result.runs["baseline"]
    migrated = result.runs["join + migration"]
    cold = result.runs["join, cold"]

    # One membership epoch per join; only the migrating run ships entries.
    assert migrated.membership_epochs == 1
    assert cold.membership_epochs == 1
    assert migrated.entries_migrated > 0
    assert cold.entries_migrated == 0
    assert baseline.membership_epochs == 0

    # With migration the join is invisible: overall hit rate and the
    # post-join recovery stay within a few points of the baseline.
    assert migrated.hit_rate >= baseline.hit_rate - 0.03
    assert result.recovered("join + migration") >= result.recovered("baseline") - 0.03
    assert result.trough("join + migration") >= result.trough("baseline") - 0.03

    # Without migration the remapped slice cold-starts: a visible trough
    # below the migrated run, and a lower overall hit rate.
    assert result.trough("join, cold") <= result.trough("join + migration") - 0.02
    assert cold.hit_rate <= migrated.hit_rate - 0.01

    # No failures were involved in a planned join.
    assert migrated.degraded_lookups == 0
    assert migrated.nodes_evicted == 0


def test_crash_with_replication_has_no_cold_miss_trough(benchmark, settings):
    """Tier-2 acceptance: with R=2, killing a cache node mid-workload loses
    no cached state — the crash timeline shows no cold-miss trough and the
    replicated hit rate is at least the unreplicated one."""
    result = run_once(benchmark, churn, "crash", settings=settings)
    print()
    print(result.format_table())

    baseline = result.runs["baseline"]
    replicated = result.runs["crash, R=2"]
    unreplicated = result.runs["crash, unreplicated"]

    # The crash was detected and evicted in both crashing runs.
    assert replicated.nodes_evicted == 1
    assert unreplicated.nodes_evicted == 1
    assert replicated.membership_epochs == 1

    # Zero loss: the replicated crash run never degrades a lookup (some
    # replica always answers) and its hit-rate curve shows no trough below
    # the no-crash baseline.
    assert replicated.degraded_lookups == 0
    assert result.trough("crash, R=2") >= result.trough("baseline") - 0.02
    assert result.recovered("crash, R=2") >= result.recovered("baseline") - 0.02
    assert replicated.hit_rate >= baseline.hit_rate - 0.02

    # The unreplicated run loses the dead node's slice: replicated crash
    # hit-rate >= unreplicated, and the unreplicated timeline dips.
    assert replicated.hit_rate >= unreplicated.hit_rate
    assert result.trough("crash, unreplicated") <= result.trough("crash, R=2") - 0.02


def test_rolling_restart_is_covered_by_replication(benchmark, settings):
    """Crash + warm rejoin of every node in turn: replication covers each
    downtime window, so the whole restart stays near the baseline; without
    replication every restart cold-starts a slice."""
    result = run_once(benchmark, churn, "rolling-restart", settings=settings)
    print()
    print(result.format_table())

    baseline = result.runs["baseline"]
    replicated = result.runs["replicated"]
    unreplicated = result.runs["unreplicated"]

    # Two epochs per restarted node: the crash eviction and the rejoin.
    restarted = len(result.events) // 2
    assert replicated.membership_epochs == 2 * restarted
    assert unreplicated.membership_epochs == 2 * restarted
    # The warm rejoins actually migrated entries back onto the restarts.
    assert replicated.entries_migrated > 0

    assert replicated.hit_rate >= baseline.hit_rate - 0.02
    assert result.trough("replicated") >= result.trough("baseline") - 0.02
    assert replicated.hit_rate >= unreplicated.hit_rate
    assert result.trough("unreplicated") <= result.trough("replicated") - 0.02


def test_chaos_openloop_smoke_respawns_the_victim_with_no_violations(benchmark):
    """The supervised run brings the SIGKILLed node back and no hit ever
    served another key's value; the unsupervised run respawns nothing.
    Counts only: recovery seconds and spike width are machine-sensitive and
    only printed."""
    result = run_once(benchmark, chaos_openloop, smoke=True)
    print()
    print(result.format_table())

    supervised = result.run_named("supervisor on")
    assert supervised.respawns >= 1
    assert supervised.consistency_violations == 0
    assert result.run_named("supervisor off").respawns == 0
