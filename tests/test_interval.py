"""Unit and property tests for validity intervals and interval sets."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interval import Interval, IntervalSet


# ----------------------------------------------------------------------
# Interval basics
# ----------------------------------------------------------------------
class TestIntervalBasics:
    def test_contains_inside(self):
        assert Interval(3, 7).contains(3)
        assert Interval(3, 7).contains(6)

    def test_contains_excludes_upper_bound(self):
        assert not Interval(3, 7).contains(7)

    def test_contains_excludes_below(self):
        assert not Interval(3, 7).contains(2)

    def test_unbounded_contains_large_values(self):
        assert Interval(5).contains(10**12)

    def test_unbounded_flag(self):
        assert Interval(5).unbounded
        assert not Interval(5, 9).unbounded

    def test_empty_interval(self):
        assert Interval(4, 4).empty
        assert not Interval(4, 5).empty
        assert not Interval(4).empty

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(5, 3)
        # The codec builds intervals without the constructor and checks too.
        packed = bytearray()
        Interval(3, 5).pack_into(packed)
        assert Interval.unpack_from(bytes(packed), 0) == (Interval(3, 5), len(packed))
        inverted = bytes(packed[:1]) + struct.pack("<qq", 5, 3)
        with pytest.raises(ValueError):
            Interval.unpack_from(inverted, 0)

    def test_equality_and_hash(self):
        assert Interval(1, 2) == Interval(1, 2)
        assert hash(Interval(1, None)) == hash(Interval(1, None))
        assert Interval(1, 2) != Interval(1, 3)
        assert Interval(1) != Interval(1, 2)
        # Immutable by convention, not frozen: equal values still hash
        # equal, so intervals work as dict keys and set members.
        for interval in (Interval(1, 2), Interval(1)):
            twin = Interval(interval.lo, interval.hi)
            assert twin is not interval and hash(twin) == hash(interval)
            assert {interval: "v"}[twin] == "v"
            assert twin in {interval}
        assert len({Interval(1, 2), Interval(1, 2), Interval(1), Interval(1, None)}) == 2


class TestIntervalIntersection:
    def test_overlapping(self):
        assert Interval(1, 5).intersect(Interval(3, 8)) == Interval(3, 5)

    def test_disjoint_is_empty(self):
        assert Interval(1, 3).intersect(Interval(5, 9)).empty

    def test_adjacent_is_empty(self):
        assert Interval(1, 3).intersect(Interval(3, 6)).empty

    def test_unbounded_with_bounded(self):
        assert Interval(2).intersect(Interval(4, 9)) == Interval(4, 9)

    def test_both_unbounded(self):
        assert Interval(2).intersect(Interval(5)) == Interval(5)

    def test_intersects_predicate(self):
        assert Interval(1, 5).intersects(Interval(4, 9))
        assert not Interval(1, 4).intersects(Interval(4, 9))

    def test_contains_interval(self):
        assert Interval(1, 10).contains_interval(Interval(3, 7))
        assert Interval(1).contains_interval(Interval(3, 7))
        assert not Interval(3, 7).contains_interval(Interval(1, 10))
        assert not Interval(3, 7).contains_interval(Interval(5))


class TestIntervalTruncateSubtract:
    def test_truncate_unbounded(self):
        assert Interval(3).truncate(9) == Interval(3, 9)

    def test_truncate_does_not_extend(self):
        assert Interval(3, 5).truncate(9) == Interval(3, 5)

    def test_truncate_below_lower_bound_yields_empty(self):
        result = Interval(5).truncate(2)
        assert result.empty or result.hi == result.lo

    def test_subtract_middle_splits(self):
        pieces = Interval(0, 10).subtract(Interval(3, 6))
        assert pieces == [Interval(0, 3), Interval(6, 10)]

    def test_subtract_disjoint_returns_self(self):
        assert Interval(0, 3).subtract(Interval(5, 7)) == [Interval(0, 3)]

    def test_subtract_covering_returns_nothing(self):
        assert Interval(3, 5).subtract(Interval(0, 10)) == []

    def test_subtract_from_unbounded(self):
        pieces = Interval(0).subtract(Interval(4, 6))
        assert pieces == [Interval(0, 4), Interval(6, None)]

    def test_union_hull(self):
        assert Interval(1, 3).union_hull(Interval(5, 9)) == Interval(1, 9)
        assert Interval(1, 3).union_hull(Interval(5)).unbounded


# ----------------------------------------------------------------------
# IntervalSet
# ----------------------------------------------------------------------
class TestIntervalSet:
    def test_add_and_contains(self):
        s = IntervalSet([Interval(1, 3), Interval(7, 9)])
        assert s.contains(2)
        assert s.contains(8)
        assert not s.contains(5)

    def test_add_merges_overlapping(self):
        s = IntervalSet([Interval(1, 5), Interval(4, 9)])
        assert len(s) == 1
        assert s.intervals[0] == Interval(1, 9)

    def test_add_merges_adjacent(self):
        s = IntervalSet([Interval(1, 4), Interval(4, 7)])
        assert len(s) == 1

    def test_empty_intervals_ignored(self):
        s = IntervalSet([Interval(3, 3)])
        assert len(s) == 0
        assert not s

    def test_subtract_from(self):
        s = IntervalSet([Interval(2, 4), Interval(6, 8)])
        pieces = s.subtract_from(Interval(0, 10))
        assert pieces == [Interval(0, 2), Interval(4, 6), Interval(8, 10)]

    def test_piece_containing(self):
        s = IntervalSet([Interval(2, 4), Interval(6, 8)])
        assert s.piece_containing(Interval(0, 10), 5) == Interval(4, 6)
        assert s.piece_containing(Interval(0, 10), 0) == Interval(0, 2)

    def test_piece_containing_missing_timestamp_raises(self):
        s = IntervalSet([Interval(2, 4)])
        with pytest.raises(ValueError):
            s.piece_containing(Interval(0, 10), 3)

    def test_intersects(self):
        s = IntervalSet([Interval(5, 9)])
        assert s.intersects(Interval(8, 12))
        assert not s.intersects(Interval(1, 5))


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
timestamps = st.integers(min_value=0, max_value=200)


def intervals(draw) -> Interval:
    lo = draw(timestamps)
    unbounded = draw(st.booleans())
    if unbounded:
        return Interval(lo, None)
    hi = draw(st.integers(min_value=lo, max_value=220))
    return Interval(lo, hi)


interval_strategy = st.builds(
    lambda lo, span: Interval(lo, None if span is None else lo + span),
    timestamps,
    st.one_of(st.none(), st.integers(min_value=0, max_value=50)),
)


class TestIntervalProperties:
    @given(interval_strategy, interval_strategy, timestamps)
    def test_intersection_membership(self, a, b, t):
        """t is in a∩b exactly when it is in both a and b."""
        assert a.intersect(b).contains(t) == (a.contains(t) and b.contains(t))

    @given(interval_strategy, interval_strategy)
    def test_intersection_commutes(self, a, b):
        assert a.intersect(b) == b.intersect(a)

    @given(interval_strategy, interval_strategy)
    def test_intersects_is_a_non_empty_intersection(self, a, b):
        """``intersects`` compares bounds in place; this is what it means."""
        assert a.intersects(b) == (not a.intersect(b).empty)

    @given(interval_strategy, interval_strategy, timestamps)
    def test_subtract_membership(self, a, b, t):
        """t is in a-b exactly when it is in a and not in b."""
        in_difference = any(piece.contains(t) for piece in a.subtract(b))
        assert in_difference == (a.contains(t) and not b.contains(t))

    @given(st.lists(interval_strategy, max_size=8), interval_strategy, timestamps)
    @settings(max_examples=200)
    def test_interval_set_subtraction_membership(self, masks, source, t):
        mask_set = IntervalSet(masks)
        pieces = mask_set.subtract_from(source)
        in_pieces = any(piece.contains(t) for piece in pieces)
        assert in_pieces == (source.contains(t) and not mask_set.contains(t))

    @given(st.lists(interval_strategy, max_size=10))
    def test_interval_set_members_disjoint_and_sorted(self, members):
        s = IntervalSet(members)
        stored = s.intervals
        for first, second in zip(stored, stored[1:]):
            assert first.lo <= second.lo
            # Members are disjoint and non-adjacent (adjacent ones merge), so
            # only the last member may be unbounded and each earlier member
            # must end strictly before the next begins.
            assert first.hi is not None
            assert first.hi < second.lo

    @given(interval_strategy, timestamps)
    def test_truncate_never_grows(self, interval, t):
        truncated = interval.truncate(t)
        assert truncated.lo == interval.lo
        if interval.hi is not None:
            assert truncated.hi is not None and truncated.hi <= interval.hi
