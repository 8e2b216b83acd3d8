"""Tests for consistent hashing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hashring import ConsistentHashRing


class TestBasics:
    def test_single_node_gets_everything(self):
        ring = ConsistentHashRing(["only"])
        assert all(ring.node_for(f"key{i}") == "only" for i in range(50))

    def test_empty_ring_raises(self):
        with pytest.raises(LookupError):
            ConsistentHashRing().node_for("k")

    def test_lookup_is_deterministic(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        assert ring.node_for("some-key") == ring.node_for("some-key")

    def test_add_node_idempotent(self):
        ring = ConsistentHashRing(["a"])
        ring.add_node("a")
        assert len(ring) == 1

    def test_remove_node(self):
        ring = ConsistentHashRing(["a", "b"])
        ring.remove_node("a")
        assert ring.nodes == ["b"]
        assert all(ring.node_for(f"key{i}") == "b" for i in range(20))

    def test_remove_missing_node_is_noop(self):
        ring = ConsistentHashRing(["a"])
        ring.remove_node("zzz")
        assert len(ring) == 1

    def test_invalid_virtual_nodes(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(virtual_nodes=0)


class TestDistribution:
    def test_keys_spread_over_nodes(self):
        ring = ConsistentHashRing([f"n{i}" for i in range(4)], virtual_nodes=200)
        keys = [f"key-{i}" for i in range(4000)]
        counts = ring.distribution(keys)
        assert set(counts) == {f"n{i}" for i in range(4)}
        for count in counts.values():
            # With 200 virtual nodes the load imbalance should be modest.
            assert 0.5 * 1000 < count < 1.7 * 1000

    def test_node_removal_only_remaps_its_keys(self):
        """Consistent hashing: removing a node must not move keys between
        surviving nodes."""
        ring = ConsistentHashRing(["a", "b", "c"], virtual_nodes=100)
        keys = [f"key-{i}" for i in range(1000)]
        before = {key: ring.node_for(key) for key in keys}
        ring.remove_node("b")
        for key in keys:
            after = ring.node_for(key)
            if before[key] != "b":
                assert after == before[key]
            else:
                assert after in {"a", "c"}

    def test_node_addition_only_steals_keys(self):
        ring = ConsistentHashRing(["a", "b"], virtual_nodes=100)
        keys = [f"key-{i}" for i in range(1000)]
        before = {key: ring.node_for(key) for key in keys}
        ring.add_node("c")
        moved_to_existing = sum(
            1
            for key in keys
            if ring.node_for(key) != before[key] and ring.node_for(key) != "c"
        )
        assert moved_to_existing == 0


class TestMinimalDisruption:
    """The consistent-hashing selling point: changing one of n nodes remaps
    only ~1/n of the keys (vs. ~all of them under modulo hashing)."""

    KEYS = [f"key-{i}" for i in range(4000)]

    def test_adding_one_of_n_nodes_remaps_about_one_nth(self):
        for n in (3, 5, 8):
            ring = ConsistentHashRing([f"n{i}" for i in range(n)], virtual_nodes=150)
            before = {key: ring.node_for(key) for key in self.KEYS}
            ring.add_node("newcomer")
            moved = sum(1 for key in self.KEYS if ring.node_for(key) != before[key])
            expected = len(self.KEYS) / (n + 1)
            assert 0.4 * expected < moved < 1.8 * expected, f"n={n}: moved {moved}"

    def test_removing_one_of_n_nodes_remaps_about_one_nth(self):
        for n in (3, 5, 8):
            ring = ConsistentHashRing([f"n{i}" for i in range(n)], virtual_nodes=150)
            before = {key: ring.node_for(key) for key in self.KEYS}
            ring.remove_node("n0")
            moved = sum(1 for key in self.KEYS if ring.node_for(key) != before[key])
            expected = len(self.KEYS) / n
            assert 0.4 * expected < moved < 1.8 * expected, f"n={n}: moved {moved}"
            # And the moved keys are exactly the victim's.
            assert all(
                before[key] == "n0" for key in self.KEYS if ring.node_for(key) != before[key]
            )

    def test_remove_restores_the_exact_prior_ring(self):
        """Regression for the bisect-based removal: adding then removing a
        node must leave the ring bit-identical to never having added it."""
        reference = ConsistentHashRing(["a", "b", "c"])
        ring = ConsistentHashRing(["a", "b", "c"])
        ring.add_node("d")
        ring.remove_node("d")
        assert ring._points == reference._points
        assert ring._ring == reference._ring
        assert ring.nodes == reference.nodes


class TestWeights:
    def test_weighted_node_owns_a_proportional_share(self):
        ring = ConsistentHashRing(virtual_nodes=150)
        ring.add_node("light")
        ring.add_node("heavy", weight=3.0)
        keys = [f"key-{i}" for i in range(4000)]
        share = ring.distribution(keys)["heavy"] / len(keys)
        assert 0.6 < share < 0.9  # expectation 0.75

    def test_weight_of_and_validation(self):
        ring = ConsistentHashRing(virtual_nodes=100)
        ring.add_node("a", weight=0.5)
        assert ring.weight_of("a") == 0.5
        with pytest.raises(ValueError):
            ring.add_node("b", weight=0)

    def test_weighted_remove_deletes_all_points(self):
        ring = ConsistentHashRing(["a"], virtual_nodes=100)
        ring.add_node("heavy", weight=2.5)
        ring.remove_node("heavy")
        assert all(owner == "a" for _point, owner in ring._ring)
        assert len(ring._points) == 100


class TestOwnershipRanges:
    def test_owned_ranges_cover_exactly_the_nodes_keys(self):
        from repro.cache.hashring import _hash, range_contains

        ring = ConsistentHashRing(["a", "b", "c"], virtual_nodes=50)
        ranges = {node: ring.owned_ranges(node) for node in ring.nodes}
        for i in range(500):
            key = f"key-{i}"
            owner = ring.node_for(key)
            point = _hash(key)
            for node, arcs in ranges.items():
                contained = any(range_contains(lo, hi, point) for lo, hi in arcs)
                assert contained == (node == owner)

    def test_owned_ranges_unknown_node_raises(self):
        with pytest.raises(KeyError):
            ConsistentHashRing(["a"]).owned_ranges("zzz")

    def test_a_copy_owns_exactly_the_ranges_of_its_original(self):
        ring = ConsistentHashRing(["a", "b"])
        clone = ring.copy()
        for node in ring.nodes:
            assert clone.owned_ranges(node) == ring.owned_ranges(node)
            assert clone.replica_ranges(node, 2) == ring.replica_ranges(node, 2)

    def test_copy_is_independent(self):
        ring = ConsistentHashRing(["a", "b"])
        clone = ring.copy()
        clone.add_node("c")
        assert "c" in clone and "c" not in ring


class TestProperties:
    @given(st.text(min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_every_key_maps_to_a_member(self, key):
        ring = ConsistentHashRing(["a", "b", "c"])
        assert ring.node_for(key) in {"a", "b", "c"}

    @given(st.lists(st.text(min_size=1, max_size=10), min_size=1, max_size=20, unique=True))
    @settings(max_examples=50)
    def test_mapping_independent_of_insertion_order(self, node_names):
        forward = ConsistentHashRing(node_names)
        backward = ConsistentHashRing(list(reversed(node_names)))
        for i in range(50):
            key = f"key-{i}"
            assert forward.node_for(key) == backward.node_for(key)


# ----------------------------------------------------------------------
# Replication: successor lists and replica ranges
# ----------------------------------------------------------------------
#: Random weighted node sets: name -> weight.  Small virtual-node counts
#: keep the O(points^2) replica_ranges checks fast without changing the
#: properties under test.
weighted_nodes = st.dictionaries(
    st.sampled_from([f"n{i}" for i in range(10)]),
    st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    min_size=1,
    max_size=7,
)

KEYS = [f"key-{i}" for i in range(40)]


def build_weighted(nodes, virtual_nodes=8):
    ring = ConsistentHashRing(virtual_nodes=virtual_nodes)
    for name in sorted(nodes):
        ring.add_node(name, weight=nodes[name])
    return ring


class TestSuccessorProperties:
    @given(weighted_nodes, st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_successors_are_distinct_members_primary_first(self, nodes, r):
        ring = build_weighted(nodes)
        for key in KEYS:
            replicas = ring.successors(key, r)
            assert len(replicas) == min(r, len(ring))
            assert len(set(replicas)) == len(replicas)
            assert all(node in ring for node in replicas)
            assert replicas[0] == ring.node_for(key)

    @given(weighted_nodes, st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_join_changes_replica_sets_minimally(self, nodes, r):
        """Adding a node inserts it at one position of each key's
        distinct-owner walk: the new replica set is a subset of the old one
        plus the newcomer, and at most one old replica is displaced."""
        ring = build_weighted(nodes)
        before = {key: ring.successors(key, r) for key in KEYS}
        ring.add_node("newcomer")
        for key in KEYS:
            old, new = before[key], ring.successors(key, r)
            assert set(new) <= set(old) | {"newcomer"}
            assert len(set(old) - set(new)) <= 1
            # Surviving replicas keep their relative order.
            survivors = [node for node in new if node != "newcomer"]
            assert survivors == [node for node in old if node in set(survivors)]

    @given(weighted_nodes, st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_leave_promotes_the_next_successor_only(self, nodes, r):
        ring = build_weighted(nodes)
        victim = sorted(nodes)[0]
        before = {key: ring.successors(key, r) for key in KEYS}
        ring.remove_node(victim)
        if not len(ring):
            with pytest.raises(LookupError):
                ring.successors(KEYS[0], r)
            return
        for key in KEYS:
            old, new = before[key], ring.successors(key, r)
            expected_len = min(r, len(ring))
            assert len(new) == expected_len
            # Everyone but the victim keeps replica status; at most one node
            # (the next distinct successor) is promoted in.
            kept = [node for node in old if node != victim]
            assert kept == list(new[: len(kept)])
            assert len(set(new) - set(kept)) <= 1

    @given(weighted_nodes, st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_replica_ranges_partition_the_ring_exactly(self, nodes, r):
        """Every hash-space point lies in exactly min(r, n) nodes'
        replica ranges — the nodes of its successor list — and each node's
        own arcs never overlap."""
        from repro.cache.hashring import _hash, range_contains

        ring = build_weighted(nodes)
        ranges = {node: ring.replica_ranges(node, r) for node in ring.nodes}
        for key in KEYS:
            point = _hash(key)
            owners = set(ring.successors(key, r))
            for node, arcs in ranges.items():
                contained = any(range_contains(lo, hi, point) for lo, hi in arcs)
                assert contained == (node in owners), (key, node)
        if len(ring) > 1:
            for node, arcs in ranges.items():
                # Arcs of one node are disjoint: each ring point starts at
                # most one arc, and arcs span distinct inter-point gaps.
                assert len({hi for _lo, hi in arcs}) == len(arcs)

    def test_replica_ranges_r1_equals_owned_ranges(self):
        ring = ConsistentHashRing(["a", "b", "c"], virtual_nodes=50)
        for node in ring.nodes:
            assert ring.replica_ranges(node, 1) == ring.owned_ranges(node)

    def test_successors_validation(self):
        ring = ConsistentHashRing(["a"])
        with pytest.raises(ValueError):
            ring.successors("k", 0)
        with pytest.raises(LookupError):
            ConsistentHashRing().successors("k", 2)
        with pytest.raises(KeyError):
            ring.replica_ranges("zzz", 2)


# ----------------------------------------------------------------------
# Precomputed routing tables against a walk of the ring written here
# ----------------------------------------------------------------------
class TestRoutingTablesAgainstBruteForce:
    """The ring answers ``successors`` from tables it rebuilds on membership
    changes.  The oracle below keeps its own point list and walks it
    clockwise per key, through seeded join/leave sequences."""

    VIRTUAL_NODES = 40

    @staticmethod
    def _oracle_points(members):
        from repro.cache.hashring import _hash

        return sorted(
            (_hash(f"{node}#{replica}"), node)
            for node, replicas in members.items()
            for replica in range(replicas)
        )

    @staticmethod
    def _walk(points, start, r):
        """First ``r`` distinct owners clockwise from the first point > start."""
        owners = []
        later = [owner for point, owner in points if point > start]
        for owner in later + [owner for _point, owner in points]:
            if owner not in owners:
                owners.append(owner)
            if len(owners) == r:
                break
        return owners

    def _check(self, ring, members, rng):
        from repro.cache.hashring import _hash

        points = self._oracle_points(members)
        keys = [f"key-{rng.randrange(10**9)}" for _ in range(500)]
        if not members:
            for r in (1, 2, 3):
                with pytest.raises(LookupError):
                    ring.successors(keys[0], r)
            with pytest.raises(LookupError):
                ring.node_for(keys[0])
            return
        for r in (1, 2, 3):
            for key in keys:
                expected = self._walk(points, _hash(key), r)
                assert list(ring.successors(key, r)) == expected, (key, r)
                assert list(ring.successors_for_point(_hash(key), r)) == expected
        for key in keys[:50]:
            assert ring.node_for(key) == self._walk(points, _hash(key), 1)[0]
            # Asking for more replicas than nodes returns every node once.
            everyone = ring.successors(key, len(members) + 2)
            assert sorted(everyone) == sorted(members)
        # A key hashing exactly onto a point routes to that point's successor.
        for point, _owner in points[:20]:
            assert list(ring.successors_for_point(point, 2)) == self._walk(points, point, 2)
        for node in members:
            arcs = [
                (points[index - 1][0], point)
                for index, (point, owner) in enumerate(points)
                if owner == node
            ]
            assert ring.owned_ranges(node) == arcs

    @pytest.mark.parametrize("seed", range(6))
    def test_successors_equal_a_clockwise_walk_after_every_membership_step(self, seed):
        import random

        rng = random.Random(seed)
        ring = ConsistentHashRing(virtual_nodes=self.VIRTUAL_NODES)
        members = {}
        self._check(ring, members, rng)
        for _step in range(14):
            absent = [f"n{i}" for i in range(6) if f"n{i}" not in members]
            if absent and (not members or rng.random() < 0.6):
                node, weight = rng.choice(absent), rng.choice([0.5, 1.0, 1.0, 2.5])
                ring.add_node(node, weight=weight)
                members[node] = max(1, round(self.VIRTUAL_NODES * weight))
            else:
                node = rng.choice(sorted(members))
                ring.remove_node(node)
                del members[node]
            assert sorted(ring.nodes) == sorted(members)
            self._check(ring, members, rng)

    def test_staged_copy_routes_every_combined_point_like_a_clockwise_walk(self):
        import random

        rng = random.Random(11)
        old = ConsistentHashRing(["a", "b", "c"], virtual_nodes=self.VIRTUAL_NODES)
        old.successors("warm", 2)  # tables built before the copy must not leak into it
        new = old.copy()
        new.add_node("d", weight=2.0)
        new.remove_node("b")
        members = {name: self.VIRTUAL_NODES for name in "abc"}
        old_points = self._oracle_points(members)
        new_points = self._oracle_points({"a": 40, "c": 40, "d": 80})
        combined = sorted({point for point, _ in old_points} | {point for point, _ in new_points})
        for point in combined:
            assert old.node_for_point(point) == self._walk(old_points, point, 1)[0]
            assert new.node_for_point(point) == self._walk(new_points, point, 1)[0]
        # The staged copy left the original ring (and its tables) alone.
        self._check(old, members, rng)

    def test_replica_tuples_are_shared_not_per_key(self):
        """Bounded by ring size: keys landing before the same virtual point
        get the same tuple object, and distinct replica sets are interned."""
        ring = ConsistentHashRing(["a", "b", "c"], virtual_nodes=self.VIRTUAL_NODES)
        answers = [ring.successors(f"key-{i}", 2) for i in range(5000)]  # all kept alive
        assert len({id(answer) for answer in answers}) <= 6  # ordered pairs of three nodes
