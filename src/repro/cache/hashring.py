"""Consistent hashing of cache keys onto cache nodes.

The paper partitions data among cache nodes with consistent hashing (as in
DHTs), but assumes the deployment is small enough that every application node
knows the full server list and can map a key to its node directly.  This is
that scheme: a hash ring with virtual nodes for balance, plus successor
lookup for a key.

Beyond plain key routing the ring answers *ownership-range* queries, which is
what the membership subsystem (:mod:`repro.cache.membership`) needs to plan a
live migration: :meth:`ConsistentHashRing.owned_ranges` lists the hash-space
arcs a node is responsible for.

**Replication.**  For R-way replication the ring also answers *successor
list* queries, the classic DHT construction: the replica set of a key is the
first R **distinct physical nodes** encountered walking the ring clockwise
from the key's hash point (virtual points of a node already in the list are
skipped).  :meth:`ConsistentHashRing.successors` returns that list (the
primary first), and :meth:`ConsistentHashRing.replica_ranges` inverts it
into the arcs a node replicates, which are the arcs the membership mover
names when a node joins or leaves.  Successor lists are minimally disruptive by construction: adding a node
inserts it at one position of each key's distinct-owner walk (displacing at
most the last replica), and removing one promotes the next distinct owner.

**Routing cost.**  The successor list of every virtual point is computed
once per membership change (per replication factor asked for), so routing a
key is one hash, one bisect and one index.  The tables are bounded by the
ring size (about ``virtual_nodes`` points per node) — there is no per-key
state.  A membership change replaces the point list and drops the tables
rather than editing them, so a reader racing it sees the old ring or the new
one, never a mixture, and needs no lock.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence, Tuple

#: What routing reads: the ring's points, and the successor list of the
#: point a key lands before (one more entry than points: the wrap-around).
_Routes = Tuple[List[int], List[Tuple[str, ...]]]

__all__ = [
    "ConsistentHashRing",
    "range_contains",
    "HASH_SPACE",
]

#: Size of the hash space: points are 64-bit unsigned integers.
HASH_SPACE = 2**64


def _hash(data: str) -> int:
    """Stable 64-bit hash of a string (first 8 bytes of its SHA-1)."""
    digest = hashlib.sha1(data.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def range_contains(lo: int, hi: int, point: int) -> bool:
    """True if ``point`` lies in the (possibly wrapping) arc ``[lo, hi)``.

    ``lo == hi`` denotes the full circle (a single-point ring owns
    everything).
    """
    if lo == hi:
        return True
    if lo < hi:
        return lo <= point < hi
    return point >= lo or point < hi


class ConsistentHashRing:
    """A consistent-hash ring mapping keys to node names."""

    def __init__(self, nodes: Sequence[str] = (), virtual_nodes: int = 100) -> None:
        if virtual_nodes < 1:
            raise ValueError("virtual_nodes must be positive")
        self._virtual_nodes = virtual_nodes
        self._ring: List[Tuple[int, str]] = []
        self._points: List[int] = []
        #: Member node names, in joining order (a dict as an ordered set).
        self._nodes: Dict[str, None] = {}
        #: replication factor -> routing tables of the current ``_ring``.
        self._routes: Dict[int, _Routes] = {}
        for node in nodes:
            self.add_node(node)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_node(self, node: str) -> None:
        """Add a node and its ``virtual_nodes`` points to the ring."""
        if node in self._nodes:
            return
        self._nodes[node] = None
        ring, points = list(self._ring), list(self._points)
        for replica in range(self._virtual_nodes):
            point = _hash(f"{node}#{replica}")
            index = bisect.bisect(points, point)
            points.insert(index, point)
            ring.insert(index, (point, node))
        self._publish(ring, points)

    def remove_node(self, node: str) -> None:
        """Remove a node; its keys fall to their ring successors.

        Only the victim's virtual points are deleted (located by bisect),
        rather than rebuilding the whole ring: O(vnodes * log points) instead
        of O(nodes * vnodes).
        """
        if node not in self._nodes:
            return
        del self._nodes[node]
        ring, points = list(self._ring), list(self._points)
        for replica in range(self._virtual_nodes):
            point = _hash(f"{node}#{replica}")
            index = bisect.bisect_left(points, point)
            # Several nodes could collide on one point; scan the equal run
            # for the entry that belongs to the victim.
            while index < len(ring) and points[index] == point:
                if ring[index][1] == node:
                    del points[index]
                    del ring[index]
                    break
                index += 1
        self._publish(ring, points)

    def _publish(self, ring: List[Tuple[int, str]], points: List[int]) -> None:
        """Switch to a new point list.  Published lists are never edited,
        and the tables are dropped after the switch, so whichever table
        dict a reader holds, what it finds there or builds into it belongs
        to one whole ring."""
        self._ring, self._points = ring, points
        self._routes = {}

    def copy(self) -> "ConsistentHashRing":
        """An independent copy (used to stage a membership change)."""
        clone = ConsistentHashRing(virtual_nodes=self._virtual_nodes)
        clone._ring, clone._points = self._ring, self._points  # never edited in place
        clone._nodes = dict(self._nodes)
        return clone

    @property
    def nodes(self) -> List[str]:
        """Current member node names."""
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def node_for(self, key: str) -> str:
        """Return the node responsible for ``key``."""
        return self.node_for_point(_hash(key))

    def node_for_point(self, point: int) -> str:
        """Return the node owning a raw hash-space ``point`` (its successor)."""
        return self.successors_for_point(point, 1)[0]

    def successors(self, key: str, r: int) -> Tuple[str, ...]:
        """The first ``r`` distinct nodes clockwise from ``key``'s point.

        This is the key's replica set under R-way replication: the primary
        (``node_for``) first, then the next distinct physical nodes on the
        ring.  Fewer than ``r`` nodes are returned when the ring is smaller
        than ``r``.  The tuple is the ring's own, shared by every key that
        lands before the same virtual point.
        """
        points, table = self._routes.get(r) or self._build_routes(r)
        return table[bisect.bisect(points, _hash(key))]

    def successors_for_point(self, point: int, r: int) -> Tuple[str, ...]:
        """Successor list of a raw hash-space point (see :meth:`successors`)."""
        points, table = self._routes.get(r) or self._build_routes(r)
        return table[bisect.bisect(points, point)]

    def _build_routes(self, r: int) -> _Routes:
        """Walk clockwise from every virtual point, collecting distinct
        owners: once per membership change and factor, not once per key."""
        if r < 1:
            raise ValueError("replication factor must be positive")
        routes, ring = self._routes, self._ring  # in this order: see _publish
        if not ring:
            raise LookupError("hash ring has no nodes")
        count = len(ring)
        wanted = min(r, len({owner for _, owner in ring}))
        shared: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        table = []
        for index in range(count):
            owners: List[str] = []
            while len(owners) < wanted:
                owner = ring[index % count][1]
                if owner not in owners:
                    owners.append(owner)
                index += 1
            replicas = tuple(owners)
            table.append(shared.setdefault(replicas, replicas))
        table.append(table[0])  # a key past the last point wraps to the first
        routes[r] = built = ([point for point, _ in ring], table)
        return built

    def distribution(self, keys: Sequence[str]) -> Dict[str, int]:
        """Count how many of ``keys`` map to each node (for balance tests)."""
        counts: Dict[str, int] = {node: 0 for node in self._nodes}
        for key in keys:
            counts[self.node_for(key)] += 1
        return counts

    # ------------------------------------------------------------------
    # Ownership ranges
    # ------------------------------------------------------------------
    def owned_ranges(self, node: str) -> List[Tuple[int, int]]:
        """The hash-space arcs ``[lo, hi)`` that route to ``node``.

        Each virtual point owns the arc from its predecessor point (inclusive,
        since a key hashing exactly onto a point routes to the point's
        successor) up to itself (exclusive).  Arcs may wrap; ``lo == hi``
        denotes the full circle of a single-point ring.
        """
        if node not in self._nodes:
            raise KeyError(node)
        ranges: List[Tuple[int, int]] = []
        count = len(self._ring)
        for index, (point, owner) in enumerate(self._ring):
            if owner == node:
                predecessor = self._points[(index - 1) % count]
                ranges.append((predecessor, point))
        return ranges

    def replica_ranges(self, node: str, r: int) -> List[Tuple[int, int]]:
        """The arcs ``[lo, hi)`` for which ``node`` is one of the ``r`` replicas.

        With ``r == 1`` this equals :meth:`owned_ranges`.  Across all member
        nodes the returned arcs cover every point of the hash space exactly
        ``min(r, len(ring))`` times — each arc belongs to precisely the nodes
        of its successor list — which is what makes them usable as a
        replica-placement *partition* of the ring.
        """
        if node not in self._nodes:
            raise KeyError(node)
        ranges: List[Tuple[int, int]] = []
        points, table = self._routes.get(r) or self._build_routes(r)
        for index, point in enumerate(points):
            if node in table[index]:
                ranges.append((points[index - 1], point))
        return ranges
