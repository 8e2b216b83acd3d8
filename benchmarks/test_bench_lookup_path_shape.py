"""A cacheable call costs the lookup, not the plumbing.

On a healthy cluster a cache hit runs what the paper's library does — derive
the key, hash it to a node, send one lookup, intersect one interval with the
pin set — and none of the machinery that exists for failing nodes.  Asserted
as *shape*, by counting under ``sys.setprofile`` (deterministic, no clock):
which functions a hit enters, how often the ring hashes, and how many Python
function calls one hit makes; and that a batch of hits asks each node once.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from repro.cache import hashring
from repro.cache.cluster import CacheCluster
from repro.cache.server import CacheServer
from repro.comm.transport import InProcessTransport
from repro.core import api
from repro.db.query import Eq, Select
from repro.db.schema import TableSchema
from repro.deployment import TxCacheDeployment
from repro.pincushion.pincushion import Pincushion

ROWS = 50
HITS = 1000

#: Python-level calls per hit (``'call'`` events, CPython 3.11), from the
#: cacheable wrapper down to ``CacheServer`` and back, all hits inside one
#: read-only transaction.  The commit before failure handling left the
#: healthy path measured 68 with this same test, the one after it 42, and
#: comparing interval bounds in place on the node took it to 34.  Since the
#: hot-path records are plain (not frozen) dataclasses, the client reads
#: the pin-set ends in place, the cluster calls the transport without the
#: failover scaffolding and the node refreshes its LRU with ``move_to_end``
#: it measures 22 (3.9.18: 22, 3.12.1, which inlines comprehensions: 21),
#: and 21 once a hit no longer stamps the entry with the clock.
#: The bound is the count plus 25 % headroom, so a layer of plumbing
#: creeping back in fails here without a Python point release doing so.
CALLS_PER_HIT_MEASURED = 21
CALLS_PER_HIT_BOUND = CALLS_PER_HIT_MEASURED * 1.25

#: Python-level calls of a whole one-hit read-only transaction — ``with
#: client.read_only(): get_price(i)``, the shape of most read-only RUBiS
#: pages — counted the same way: BEGIN-RO, one hit, COMMIT.  50 before the
#: changes above and COMMIT finishing in place (3.9.18: 50, 3.12.1: 46);
#: 35 after (3.9.18: 35, 3.12.1: 32), and 34 without the hit's clock stamp.
CALLS_PER_TRANSACTION_MEASURED = 34
CALLS_PER_TRANSACTION_BOUND = CALLS_PER_TRANSACTION_MEASURED * 1.25


def _profiled(action):
    """Run ``action``; return (Python calls by code object, C calls by function)."""
    python_calls: Counter = Counter()
    c_calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            python_calls[frame.f_code] += 1
        elif event == "c_call":
            c_calls[arg] += 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return python_calls, c_calls


def test_a_hit_on_a_healthy_cluster_runs_only_the_lookup():
    deployment = TxCacheDeployment(cache_nodes=2, transport="inprocess")
    try:
        deployment.database.create_table(
            TableSchema.build("items", ["id", "price"], primary_key="id")
        )
        deployment.database.bulk_load("items", [{"id": i, "price": i} for i in range(ROWS)])
        client = deployment.client()

        def price_of(item_id):
            return client.query(Select("items", Eq("id", item_id))).rows[0]["price"]

        get_price = client.make_cacheable(price_of, name="shape.get_price")

        def miss_every_item():
            with client.read_only():
                for item_id in range(ROWS):
                    assert get_price(item_id) == item_id

        python_calls, _ = _profiled(miss_every_item)
        assert client.stats.misses == ROWS and client.stats.hits == 0
        # A miss is two routed operations, a lookup and a put: two hashes.
        assert python_calls[hashring._hash.__code__] == 2 * ROWS
        deployment.advance(0.1)

        def hit_a_thousand_times():
            for i in range(HITS):
                assert get_price(i % ROWS) == i % ROWS

        client.begin_ro()
        python_calls, c_calls = _profiled(hit_a_thousand_times)
        client.commit()
        assert client.stats.hits == HITS and client.stats.misses == ROWS
        assert client.stats.cache_rpcs == HITS + 2 * ROWS

        # Nothing that exists for failing nodes ran: no clock read for a
        # budget, no attribute looked up by name, no sleep.
        assert c_calls[time.monotonic] == 0
        assert c_calls[getattr] == 0
        assert c_calls[time.sleep] == 0
        health = deployment.cache.health
        assert health == type(health)()
        # Routing is one hash per routed operation.
        assert python_calls[hashring._hash.__code__] == HITS
        calls_per_hit = sum(python_calls.values()) / HITS
        print(f"\nPython function calls per cache hit: {calls_per_hit:.1f}")
        assert calls_per_hit <= CALLS_PER_HIT_BOUND, (
            f"{calls_per_hit:.1f} calls per hit; measured {CALLS_PER_HIT_MEASURED} "
            "when this bound was set:\n"
            + "\n".join(
                f"  {count / HITS:5.1f}  {code.co_filename.rsplit('/', 1)[-1]}:{code.co_name}"
                for code, count in python_calls.most_common()
            )
        )
    finally:
        deployment.shutdown()


def test_a_one_hit_transaction_is_begin_the_lookup_and_commit():
    """BEGIN-RO, one hit and COMMIT: each layer's boundary once, one ring
    hash, nothing of failure handling, and a bounded number of calls."""
    deployment = TxCacheDeployment(cache_nodes=2, transport="inprocess")
    try:
        deployment.database.create_table(
            TableSchema.build("items", ["id", "price"], primary_key="id")
        )
        deployment.database.bulk_load("items", [{"id": i, "price": i} for i in range(ROWS)])
        client = deployment.client()

        def price_of(item_id):
            return client.query(Select("items", Eq("id", item_id))).rows[0]["price"]

        get_price = client.make_cacheable(price_of, name="shape.get_price")
        with client.read_only():
            assert get_price(7) == 7
        deployment.advance(0.1)

        def one_hit_transaction():
            with client.read_only():
                assert get_price(7) == 7

        one_hit_transaction()  # a warm pincushion, as in a running workload
        hits, misses = client.stats.hits, client.stats.misses
        python_calls, c_calls = _profiled(one_hit_transaction)
        assert client.stats.hits == hits + 1 and client.stats.misses == misses

        assert c_calls[time.monotonic] == 0
        assert c_calls[getattr] == 0
        assert c_calls[time.sleep] == 0
        assert python_calls[hashring._hash.__code__] == 1
        # Every layer boundary the perf tracer wraps is still crossed, once.
        for method in (
            api.TxCacheClient.begin_ro,
            api.TxCacheClient.commit,
            Pincushion.fresh_snapshots,
            Pincushion.release,
            CacheCluster.multi_lookup,
            InProcessTransport.multi_lookup,
            CacheServer.multi_lookup,
        ):
            assert python_calls[method.__code__] == 1, method.__qualname__
        calls = sum(python_calls.values())
        print(f"\nPython function calls per one-hit transaction: {calls}")
        assert calls <= CALLS_PER_TRANSACTION_BOUND, (
            f"{calls} calls; measured {CALLS_PER_TRANSACTION_MEASURED} "
            "when this bound was set:\n"
            + "\n".join(
                f"  {count:3d}  {code.co_filename.rsplit('/', 1)[-1]}:{code.co_name}"
                for code, count in python_calls.most_common()
            )
        )
    finally:
        deployment.shutdown()


def test_a_batch_asks_each_node_once():
    """``call_all`` of ``ROWS`` hits over two nodes: one ``multi_lookup``
    per node, one ring hash per key, two round trips counted.  A batch of
    one enters exactly the functions a plain call does."""
    deployment = TxCacheDeployment(cache_nodes=2, transport="inprocess")
    try:
        deployment.database.create_table(
            TableSchema.build("items", ["id", "price"], primary_key="id")
        )
        deployment.database.bulk_load("items", [{"id": i, "price": i} for i in range(ROWS)])
        client = deployment.client()

        def price_of(item_id):
            return client.query(Select("items", Eq("id", item_id))).rows[0]["price"]

        get_price = client.make_cacheable(price_of, name="shape.get_price")
        with client.read_only():
            for item_id in range(ROWS):
                get_price(item_id)
        deployment.advance(0.1)
        transports = deployment.cache.transports
        keys_by_node = Counter(
            deployment.cache.replicas_for(get_price.__txcache_key_maker__((i,), {}))[0]
            for i in range(ROWS)
        )
        assert sorted(keys_by_node) == sorted(transports)  # the keys span both

        client.begin_ro()
        sent = {name: t.op_counts["multi_lookup"] for name, t in transports.items()}
        rpcs, hits = client.stats.cache_rpcs, client.stats.hits
        calls = [(get_price, (i,)) for i in range(ROWS)]
        values = []
        python_calls, _ = _profiled(lambda: values.extend(client.call_all(calls)))
        assert values == list(range(ROWS))
        assert client.stats.hits - hits == ROWS
        asked = {name: t.op_counts["multi_lookup"] - sent[name] for name, t in transports.items()}
        assert asked == {name: 1 for name in transports}
        assert python_calls[hashring._hash.__code__] == ROWS
        assert client.stats.cache_rpcs - rpcs == 2

        # Beside the driving lambda, a batch of one enters only call_all and
        # its plain loop before the calls a single hit makes.
        single, _ = _profiled(lambda: get_price(7))
        batch_of_one, _ = _profiled(lambda: client.call_all([(get_price, (7,))]))
        client.commit()
        loop = {(api.__file__, "call_all"), (api.__file__, "<listcomp>")}
        assert _below_the_test(batch_of_one, skip=loop) == _below_the_test(single)
    finally:
        deployment.shutdown()


def _below_the_test(python_calls: Counter, skip=frozenset()) -> Counter:
    """Python calls by (file, function), leaving out this file's and ``skip``."""
    return Counter(
        {
            (code.co_filename, code.co_name): count
            for code, count in python_calls.items()
            if code.co_filename != __file__ and (code.co_filename, code.co_name) not in skip
        }
    )
