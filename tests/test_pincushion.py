"""Tests for the pincushion (pinned-snapshot registry)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import ManualClock
from repro.pincushion.pincushion import Pincushion
from tests.helpers import assert_pin_invariant


@pytest.fixture
def clock():
    return ManualClock()


@pytest.fixture
def pincushion(clock):
    return Pincushion(clock=clock, expiry_seconds=60.0)


class TestRegistration:
    def test_register_and_query(self, pincushion):
        pincushion.register(5, wallclock=0.0)
        assert pincushion.pinned_ids == [5]
        assert pincushion.snapshot(5).wallclock == 0.0

    def test_register_same_snapshot_twice_bumps_usage(self, pincushion):
        pincushion.register(5, wallclock=0.0)
        pincushion.register(5, wallclock=0.0)
        assert len(pincushion) == 1
        assert pincushion.snapshot(5).in_use == 2

    def test_register_without_use(self, pincushion):
        pincushion.register(5, wallclock=0.0, in_use=False)
        assert pincushion.snapshot(5).in_use == 0


class TestFreshness:
    def test_fresh_snapshots_filters_by_staleness(self, pincushion, clock):
        pincushion.register(1, wallclock=0.0, in_use=False)
        clock.advance(100.0)
        pincushion.register(2, wallclock=95.0, in_use=False)
        fresh = pincushion.fresh_snapshots(staleness=30.0, mark_in_use=False)
        assert [s.snapshot_id for s in fresh] == [2]

    def test_fresh_snapshots_sorted_ascending(self, pincushion):
        pincushion.register(9, wallclock=0.0, in_use=False)
        pincushion.register(3, wallclock=0.0, in_use=False)
        fresh = pincushion.fresh_snapshots(staleness=30.0, mark_in_use=False)
        assert [s.snapshot_id for s in fresh] == [3, 9]

    def test_fresh_snapshots_marks_in_use(self, pincushion):
        pincushion.register(1, wallclock=0.0, in_use=False)
        pincushion.fresh_snapshots(staleness=30.0)
        assert pincushion.snapshot(1).in_use == 1

    def test_release_balances_in_use(self, pincushion):
        pincushion.register(1, wallclock=0.0, in_use=False)
        fresh = pincushion.fresh_snapshots(staleness=30.0)
        pincushion.release(fresh)
        assert pincushion.snapshot(1).in_use == 0

    def test_release_never_goes_negative(self, pincushion):
        pincushion.register(1, wallclock=0.0, in_use=False)
        pincushion.release([pincushion.snapshot(1)])
        assert pincushion.snapshot(1).in_use == 0


class TestExpiry:
    def test_old_unused_snapshots_expire(self, pincushion, clock):
        unpinned = []
        pincushion._unpin_callback = unpinned.append
        pincushion.register(1, wallclock=0.0, in_use=False)
        clock.advance(120.0)
        expired = pincushion.expire_old_snapshots()
        assert expired == [1]
        assert unpinned == [1]
        assert len(pincushion) == 0

    def test_in_use_snapshots_never_expire(self, pincushion, clock):
        pincushion.register(1, wallclock=0.0)  # in use
        clock.advance(1000.0)
        assert pincushion.expire_old_snapshots() == []
        assert len(pincushion) == 1

    def test_recent_snapshots_not_expired(self, pincushion, clock):
        pincushion.register(1, wallclock=0.0, in_use=False)
        clock.advance(10.0)
        assert pincushion.expire_old_snapshots() == []

    def test_custom_threshold(self, pincushion, clock):
        pincushion.register(1, wallclock=0.0, in_use=False)
        clock.advance(10.0)
        assert pincushion.expire_old_snapshots(older_than=5.0) == [1]


class TestStats:
    def test_counters(self, pincushion, clock):
        pincushion.register(1, wallclock=0.0, in_use=False)
        pincushion.fresh_snapshots(staleness=30.0)
        pincushion.release([pincushion.snapshot(1)])
        clock.advance(500.0)
        pincushion.expire_old_snapshots()
        assert pincushion.stats.registrations == 1
        assert pincushion.stats.fresh_requests == 1
        assert pincushion.stats.releases == 1
        assert pincushion.stats.expirations == 1


# ----------------------------------------------------------------------
# The table in id order, against the definitions
# ----------------------------------------------------------------------
pin_steps = st.one_of(
    st.tuples(
        st.just("register"),
        st.tuples(
            st.integers(min_value=0, max_value=12),  # any id order, refreshes included
            st.sampled_from([-40.0, -10.0, -1.0, 0.0]),  # seen current then, relative to now
            st.booleans(),
        ),
    ),
    st.tuples(st.just("begin"), st.sampled_from([0.0, 5.0, 30.0, 100.0])),
    st.tuples(st.just("finish"), st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("advance"), st.sampled_from([0.5, 7.0, 45.0])),
    st.tuples(st.just("expire"), st.sampled_from([None, 0.0, 20.0])),
)


@given(st.lists(pin_steps, max_size=40))
@settings(max_examples=300, deadline=None)
def test_order_marks_and_expiry_match_their_definitions(steps):
    """Registrations in any id and wall-clock order: ``fresh_snapshots`` is
    the filter on wall clock in ascending ids, every mark taken is dropped,
    a pin in use is never expired, and the pin invariant holds throughout."""
    clock = ManualClock(start=1000.0)
    database_pins = {}  # what Database.pin_latest / unpin would hold

    def unpin(snapshot_id):
        database_pins[snapshot_id] -= 1
        if not database_pins[snapshot_id]:
            del database_pins[snapshot_id]

    pincushion = Pincushion(clock=clock, unpin_callback=unpin, expiry_seconds=60.0)
    deployment = SimpleNamespace(
        pincushion=pincushion, database=SimpleNamespace(pinned_snapshots=database_pins)
    )
    table = {}  # snapshot id -> [wall clock, marks]: the definition
    held = []  # the rows each open transaction must hand back

    def finish(rows):
        pincushion.release(rows)
        for row in rows:
            table[row.snapshot_id][1] -= 1

    for kind, argument in steps:
        if kind == "register":
            snapshot_id, seen_ago, in_use = argument
            database_pins[snapshot_id] = database_pins.get(snapshot_id, 0) + 1
            created = pincushion.register(snapshot_id, clock.now() + seen_ago, in_use=in_use)
            assert created == (snapshot_id not in table)
            if not created:
                unpin(snapshot_id)  # the entry already owns the one pin
            row = table.setdefault(snapshot_id, [clock.now() + seen_ago, 0])
            row[0] = max(row[0], clock.now() + seen_ago)
            if in_use:
                row[1] += 1
                held.append([pincushion.snapshot(snapshot_id)])
        elif kind == "begin":
            fresh = pincushion.fresh_snapshots(argument)
            cutoff = clock.now() - argument
            expected = sorted(i for i, (wallclock, _) in table.items() if wallclock >= cutoff)
            assert [row.snapshot_id for row in fresh] == expected
            for snapshot_id in expected:
                table[snapshot_id][1] += 1
            held.append(fresh)
        elif kind == "finish":
            if held:
                finish(held.pop(argument % len(held)))
        elif kind == "advance":
            clock.advance(argument)
        else:
            threshold = 60.0 if argument is None else argument
            cutoff = clock.now() - threshold
            expected = sorted(
                i for i, (wallclock, marks) in table.items() if not marks and wallclock < cutoff
            )
            assert pincushion.expire_old_snapshots(argument) == expected
            for snapshot_id in expected:
                del table[snapshot_id]
        assert pincushion.pinned_ids == sorted(table)
        for snapshot_id, (wallclock, marks) in table.items():
            row = pincushion.snapshot(snapshot_id)
            assert (row.wallclock, row.in_use) == (wallclock, marks)
        assert_pin_invariant(deployment)
    while held:
        finish(held.pop())
    assert all(marks == 0 for _, marks in table.values())
    clock.advance(61.0)
    assert pincushion.expire_old_snapshots() == sorted(table)
    assert pincushion.pinned_ids == [] and database_pins == {}
