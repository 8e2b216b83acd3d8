"""A cached entry costs its bytes, not its bookkeeping.

A node charges an entry its key, its pickled value and a fixed 64 bytes, the
way memcached sizes an item.  What the node's Python structures hold beside
the key and value — the entry record, its version list, its tags, the tag
index, the LRU order, the ever-stored set — should stay near that charge.
Asserted as *shape*, by counting under ``tracemalloc`` (deterministic, no
clock): the bytes one ``CacheServer`` holds per stored entry after a fixed
mix of puts, keys, values and tag objects excluded (they are made before the
count starts).
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro._compat import DATACLASS_SLOTS
from repro.cache.server import CacheServer
from repro.db.invalidation import InvalidationTag
from repro.interval import Interval

KEYS = 4000
#: Every fourth key also reads a shared tag (one of 10 regions), every 25th
#: key is a bounded version with no tags; the rest carry one precise tag.
SHARED_EVERY = 4
BOUNDED_EVERY = 25
REGIONS = 10

#: Bytes held per entry (CPython 3.11), keys, values and tag objects
#: excluded.  The commit before this test measured 856: a frozenset of tags
#: per entry (207 B more than a tuple), a one-key set per precise tag in the
#: tag index (208 B more than the bare key) and a per-table key index that
#: only a wildcard invalidation read (41 B).  Tags kept as a tuple, a tag's
#: lone key kept bare and that index deleted, it measures 440.  The bound is
#: that count plus 8 % headroom, so no one slice of the old shape, not even
#: the smallest, fits back under it.
MAX_BYTES_PER_ENTRY = 475


def _plan():
    """``(key, value, lo, hi, tags)`` per put, made before the count."""
    regions = [InvalidationTag.key("users", "region", r) for r in range(REGIONS)]
    plan = []
    for i in range(KEYS):
        key = f"item:{i:06d}"
        value = f"value of item {i}"
        if i % BOUNDED_EVERY == 0:
            plan.append((key, value, i, i + 5, ()))
            continue
        tags = [InvalidationTag.key("items", "id", i)]
        if i % SHARED_EVERY == 0:
            tags.append(regions[i % REGIONS])
        plan.append((key, value, i, None, tags))
    return plan


def _held_bytes_per_entry() -> float:
    plan = _plan()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        server = CacheServer(name="shape", capacity_bytes=1 << 30)
        for key, value, lo, hi, tags in plan:
            # What a put carries once decoded at the node: a fresh interval
            # and a fresh collection of the tags (a frozenset, as the
            # client sent it before the tags crossed as a tuple).
            assert server.put(key, value, Interval(lo, hi), frozenset(tags))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert server.entry_count == KEYS and server.stats.lru_evictions == 0
    return held / KEYS


# Before 3.10 an entry record and its interval each carry a ``__dict__``,
# which is the interpreter's shape, not the node's.
@pytest.mark.skipif(not DATACLASS_SLOTS, reason="the bound is for slotted records (3.10+)")
def test_an_entry_holds_little_beside_its_key_and_value():
    per_entry = _held_bytes_per_entry()
    print(f"held per entry: {per_entry:.0f} B (bound {MAX_BYTES_PER_ENTRY})")
    assert per_entry <= MAX_BYTES_PER_ENTRY
