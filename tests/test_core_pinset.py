"""Tests for pin sets and the lazy timestamp selection invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import EmptyPinSetError
from repro.core.pinset import STAR, PinSet
from repro.interval import Interval


class TestConstruction:
    def test_initial_contents(self):
        pins = PinSet([3, 5], star=True)
        assert pins.timestamps == frozenset({3, 5})
        assert pins.has_star
        assert len(pins) == 3

    def test_star_only_is_allowed(self):
        pins = PinSet([], star=True)
        assert pins.has_star
        assert pins.bounds() is None

    def test_completely_empty_rejected(self):
        with pytest.raises(EmptyPinSetError):
            PinSet([], star=False)

    def test_contains(self):
        pins = PinSet([3], star=True)
        assert 3 in pins
        assert STAR in pins
        assert 4 not in pins


class TestBoundsAndSelection:
    def test_bounds_excludes_star(self):
        pins = PinSet([3, 9, 5], star=True)
        assert pins.bounds() == (3, 9)

    def test_most_recent(self):
        assert PinSet([3, 9, 5]).most_recent() == 9
        assert PinSet([], star=True).most_recent() is None

    def test_sorted_timestamps(self):
        assert PinSet([5, 1, 3]).sorted_timestamps() == [1, 3, 5]


class TestMutation:
    def test_restrict_keeps_only_matching_timestamps(self):
        pins = PinSet([1, 5, 9], star=True)
        pins.restrict(Interval(4, 10))
        assert pins.timestamps == frozenset({5, 9})
        assert not pins.has_star

    def test_restrict_to_empty_raises(self):
        pins = PinSet([1, 2], star=True)
        with pytest.raises(EmptyPinSetError):
            pins.restrict(Interval(10, 20))

    def test_would_survive(self):
        pins = PinSet([1, 5], star=True)
        assert pins.would_survive(Interval(4, 9))
        assert not pins.would_survive(Interval(10, 20))

    def test_choose_reifies_star(self):
        pins = PinSet([3], star=True)
        pins.choose(7)
        assert pins.timestamps == frozenset({7})
        assert not pins.has_star

    def test_choose_collapses_to_a_member(self):
        pins = PinSet([1, 5, 9], star=False)
        pins.choose(5)
        assert pins.timestamps == frozenset({5})
        assert pins.bounds() == (5, 5)

    def test_choose_outside_the_set_without_star_raises(self):
        pins = PinSet([1, 5], star=False)
        with pytest.raises(EmptyPinSetError):
            pins.choose(7)
        assert pins.timestamps == frozenset({1, 5})

    def test_remove_star_with_timestamps(self):
        pins = PinSet([4], star=True)
        pins.remove_star()
        assert not pins.has_star

    def test_remove_star_when_only_star_raises(self):
        pins = PinSet([], star=True)
        with pytest.raises(EmptyPinSetError):
            pins.remove_star()

    def test_copy_is_independent(self):
        pins = PinSet([1, 2], star=True)
        clone = pins.copy()
        clone.restrict(Interval(2, 5))
        assert pins.timestamps == frozenset({1, 2})
        assert pins.has_star


# ----------------------------------------------------------------------
# Property tests mirroring the paper's Invariants 1 and 2 (section 6.2.1)
# ----------------------------------------------------------------------
timestamps = st.integers(min_value=0, max_value=60)
interval_strategy = st.builds(
    lambda lo, span: Interval(lo, None if span is None else lo + span),
    timestamps,
    st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
)


class TestPinSetProperties:
    @given(st.sets(timestamps, min_size=1, max_size=8), st.lists(interval_strategy, max_size=12))
    @settings(max_examples=200)
    def test_invariant_1_all_survivors_consistent_with_observations(self, pins, observations):
        """After restricting by each observed interval, every remaining
        timestamp lies inside every interval that was applied."""
        pin_set = PinSet(pins, star=True)
        applied = []
        for interval in observations:
            if pin_set.would_survive(interval):
                pin_set.restrict(interval)
                applied.append(interval)
        for timestamp in pin_set.timestamps:
            assert all(interval.contains(timestamp) for interval in applied)

    @given(st.sets(timestamps, min_size=1, max_size=8), st.lists(interval_strategy, max_size=12))
    @settings(max_examples=200)
    def test_invariant_2_pin_set_never_empty(self, pins, observations):
        """Skipping restrictions that would empty the set (treated as cache
        misses by the library) keeps the pin set non-empty forever."""
        pin_set = PinSet(pins, star=True)
        for interval in observations:
            if pin_set.would_survive(interval):
                pin_set.restrict(interval)
            assert not pin_set.empty
            assert len(pin_set) >= 1
