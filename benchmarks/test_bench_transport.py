"""Transport overhead: in-process calls vs real networked cache servers.

Two claims are checked here:

* **Simulated results are transport-invariant.**  The benchmark figures are
  derived from the cost model over *what happened* (queries, hits, misses),
  not from Python wall-clock time, so running the same configuration with
  ``transport="socket"`` must reproduce the in-process throughput and hit
  rate exactly.  This is what guarantees the transport refactor cannot
  regress the Figure 5 results (which run in-process with zero RPC cost).
* **Real overhead is visible and batching pays.**  A microbenchmark reports
  the wall-clock cost of cache operations over TCP relative to in-process
  calls, and that a batched ``multi_lookup`` round trip amortizes it.
"""

from __future__ import annotations

import pickle
import time

import pytest

from benchmarks.conftest import run_once
from repro.apps.rubis.datagen import IN_MEMORY_CONFIG
from repro.bench.costmodel import CostParameters
from repro.bench.driver import BenchmarkConfig, run_benchmark
from repro.cache.cluster import CacheCluster
from repro.cache.entry import EntryRecord, LookupRequest, LookupResult, ValueBlob
from repro.comm import wire
from repro.db.invalidation import InvalidationTag
from repro.interval import Interval

#: A deliberately small configuration: the socket run replays every cache
#: operation as a real RPC, so this keeps the benchmark in seconds.
def _config(transport: str, rpc_cost_seconds: float = 0.0) -> BenchmarkConfig:
    return BenchmarkConfig(
        database_config=IN_MEMORY_CONFIG,
        cache_size_bytes=512 * 1024,
        scale=400,
        sessions=8,
        warmup_interactions=200,
        measure_interactions=400,
        transport=transport,
        cost_parameters=CostParameters(rpc_cost_seconds=rpc_cost_seconds),
        label=f"transport-{transport}",
        seed=3,
    )


def test_socket_transport_reproduces_in_process_results(benchmark):
    """Same workload, same figures, whichever transport serves the cache."""

    def run_pair():
        return run_benchmark(_config("inprocess")), run_benchmark(_config("socket"))

    inprocess, socket_result = run_once(benchmark, run_pair)
    print(
        f"\nin-process: {inprocess.summary()}"
        f"\nsocket:     {socket_result.summary()}"
    )
    assert socket_result.peak_throughput == pytest.approx(inprocess.peak_throughput)
    assert socket_result.hit_rate == pytest.approx(inprocess.hit_rate)
    assert socket_result.miss_counts == inprocess.miss_counts
    assert socket_result.bottleneck == inprocess.bottleneck


def test_rpc_cost_model_charges_batched_round_trips_once(benchmark):
    """A nonzero rpc_cost_seconds lowers throughput; batching bounds the hit.

    Every cacheable call issues at most two round trips (one lookup, one
    put on a miss), so the throughput penalty of pricing
    RPCs stays well below what per-key charging would produce."""

    def run_pair():
        return (
            run_benchmark(_config("inprocess")),
            run_benchmark(_config("inprocess", rpc_cost_seconds=2e-3)),
        )

    free, priced = run_once(benchmark, run_pair)
    print(
        f"\nrpc cost 0:    {free.summary()}"
        f"\nrpc cost 2ms:  {priced.summary()}"
    )
    # Pricing RPCs makes the web tier (which blocks on them) the bottleneck
    # and costs throughput...
    assert priced.peak_throughput < free.peak_throughput
    assert priced.bottleneck == "web"
    # ...but the same workload executed (only the charge differs), and
    # batching keeps the penalty bounded: at most two round trips per
    # cacheable call, not one per key examined.
    assert priced.hit_rate == pytest.approx(free.hit_rate)
    assert priced.peak_throughput > free.peak_throughput * 0.2


def test_wire_overhead_microbenchmark(benchmark):
    """Report the per-op wall cost of TCP framing vs direct calls."""
    OPS = 2000

    def timed_trace(kind: str):
        cluster = CacheCluster(
            node_count=2, capacity_bytes_per_node=4 * 1024 * 1024,
            transport=kind,
        )
        try:
            start = time.perf_counter()
            for i in range(OPS):
                cluster.put(f"key-{i % 500}", {"i": i}, Interval(0, i + 1))
            for i in range(OPS):
                cluster.lookup(f"key-{i % 500}", 0, i)
            singles = time.perf_counter() - start
            start = time.perf_counter()
            for i in range(0, OPS, 10):
                cluster.multi_lookup(
                    [LookupRequest(f"key-{(i + j) % 500}", 0, i) for j in range(10)]
                )
            batched = time.perf_counter() - start
            return singles, batched
        finally:
            cluster.close()

    def best_of(rounds, kind):
        # Min over repeats: the standard microbenchmark noise filter, so a
        # scheduler hiccup during one trace cannot flip the comparisons.
        times = [timed_trace(kind) for _ in range(rounds)]
        return tuple(min(values) for values in zip(*times))

    def run_both():
        return best_of(2, "inprocess"), best_of(2, "socket")

    (in_singles, in_batched), (sock_singles, sock_batched) = run_once(benchmark, run_both)
    per_op_overhead = (sock_singles - in_singles) / (2 * OPS)
    print(
        f"\nin-process:  {2 * OPS} ops in {in_singles * 1e3:7.1f} ms, "
        f"{OPS // 10} batched lookups in {in_batched * 1e3:7.1f} ms"
        f"\nsocket:      {2 * OPS} ops in {sock_singles * 1e3:7.1f} ms, "
        f"{OPS // 10} batched lookups in {sock_batched * 1e3:7.1f} ms"
        f"\nper-op socket overhead: {per_op_overhead * 1e6:7.1f} us"
    )
    # The networked path costs more per operation...
    assert sock_singles > in_singles
    # ...and batching 10 keys per frame beats 10 single round trips.
    assert sock_batched < sock_singles


def test_codec_framing_microbenchmark(benchmark, wire_counters):
    """Frames/sec and bytes copied, small-lookup vs large-install payloads.

    The framing copies no payload bytes in userspace — no header is
    concatenated onto a body — so ``WIRE_COUNTERS.bytes_copied`` stays zero
    even for the multi-megabyte install payloads of a migration.
    """
    small_payload = ([LookupRequest(f"key-{i}", 0, 40) for i in range(4)],)
    small_response = [
        LookupResult(hit=True, key=f"key-{i}", value={"row": i}, interval=Interval(0, 40))
        for i in range(4)
    ]
    large_payload = (  # the largest batch one frame may carry, 2 MB of it
        [
            EntryRecord(
                key=f"key-{i}", value=ValueBlob.pack({"payload": "x" * 2048}), interval=Interval(0)
            )
            for i in range(wire.MAX_BATCH_ITEMS)
        ],
    )
    lookup, install = wire.OPCODES["multi_lookup"], wire.OPCODES["install_entries"]

    def round_trips(encode, decode, payload, rounds):
        start = time.perf_counter()
        for _ in range(rounds):
            buffers = encode(payload)
            body = b"".join(bytes(b) for b in buffers[1:])  # test-side reassembly
            decode(body)
        return rounds / (time.perf_counter() - start)

    def run():
        mux_small = round_trips(
            lambda p: wire.encode_binary_mux_frame(7, lookup, p),
            lambda body: wire.decode_binary_args(lookup, body),
            small_payload,
            3000,
        )
        mux_response = round_trips(
            lambda p: wire.encode_binary_mux_frame(7, wire.OP_OK, p),
            wire.decode_binary_body,
            small_response,
            3000,
        )
        mux_large = round_trips(
            lambda p: wire.encode_binary_mux_frame(7, install, p),
            lambda body: wire.decode_binary_args(install, body),
            large_payload,
            30,
        )
        copied = wire.WIRE_COUNTERS.bytes_copied
        return mux_small, mux_response, mux_large, copied

    mux_small, mux_response, mux_large, copied = run_once(benchmark, run)
    large_bytes = sum(
        len(bytes(b))
        for b in wire.encode_binary_mux_frame(7, install, large_payload)
    )
    print(
        f"\nsmall lookup frame:  {mux_small:9,.0f}/s"
        f"\nsmall result frame:  {mux_response:9,.0f}/s"
        f"\nlarge install frame: {mux_large:9,.0f}/s  ({large_bytes / 1e6:.1f} MB/frame)"
        f"\nencoder bytes copied: {copied} (payload copies eliminated)"
    )
    # The encoders never copy payload bytes: WIRE_COUNTERS only tracks
    # encoder/sender-side copies (the b"".join above is test-side decode
    # plumbing and is not counted).
    assert copied == 0


# ----------------------------------------------------------------------
# The binary codec
# ----------------------------------------------------------------------
#: The lookup shapes the binary codec was built for: (name, request args,
#: response) — a scalar hit, a row-dict hit (one users row), and a miss.  A
#: hit's value is the blob the node holds (SocketTransport pickled it).
def _lookup_shapes():
    return [
        (
            "scalar-hit",
            ("user:12345", 0, 40),
            LookupResult(
                True,
                "user:12345",
                value=ValueBlob.pack(1234.5),
                interval=Interval(3, 40),
                raw_interval=Interval(3, None),
                tags=frozenset({InvalidationTag("users", "id", 12345)}),
                key_ever_stored=True,
            ),
        ),
        (
            "row-dict-hit",
            ("users:pk:123", 0, 40),
            LookupResult(
                True,
                "users:pk:123",
                value=ValueBlob.pack(
                    {"id": 123, "name": "user123", "region": 2, "score": 123.0}
                ),
                interval=Interval(11, 40),
                raw_interval=Interval(11, None),
                tags=frozenset({InvalidationTag("users", "id", 123)}),
                key_ever_stored=True,
            ),
        ),
        (
            "miss",
            ("users:pk:999", 0, 40),
            LookupResult(
                False, "users:pk:999", key_ever_stored=True, fresh_version_exists=True
            ),
        ),
    ]


def test_binary_codec_lookup_round_trips(benchmark, wire_counters):
    """One lookup round trip (encode request + decode request + encode
    response + decode response) through the binary codec, beside pickle on
    the same shapes (printed, not compared), and what a node spends encoding
    a hit does not depend on what is inside the value."""
    ROUNDS = 4000

    def timed_binary(request, response):
        # Exactly what crosses the wire: a lookup is a batch of one, its
        # request and its one-result response both tagged bodies.
        encode, decode = wire.encode_binary_body, wire.decode_binary_body
        enc_args, dec_args = wire.encode_binary_args, wire.decode_binary_args
        opcode = wire.OPCODES["multi_lookup"]
        request_body = bytes(enc_args(opcode, request))
        response_body = bytes(encode(response))
        start = time.perf_counter()
        for _ in range(ROUNDS):
            enc_args(opcode, request)
            encode(response)
            dec_args(opcode, request_body)
            decode(response_body)
        return (time.perf_counter() - start) / ROUNDS

    def timed_pickle(request, response):
        protocol = pickle.HIGHEST_PROTOCOL
        dumps, loads = pickle.dumps, pickle.loads
        request_body = dumps(request, protocol)
        response_body = dumps(response, protocol)
        start = time.perf_counter()
        for _ in range(ROUNDS):
            dumps(request, protocol)
            dumps(response, protocol)
            loads(request_body)
            loads(response_body)
        return (time.perf_counter() - start) / ROUNDS

    def timed_hit_encode(rows):
        # The node's share of a hit: encode a result whose value it holds
        # as a blob of ``rows`` row dicts.
        value = ValueBlob.pack([{"id": i, "name": f"user{i}", "bid": i * 1.5} for i in range(rows)])
        hit = LookupResult(
            True, "items:page", value=value, interval=Interval(3, 40), key_ever_stored=True
        )
        encode = wire.encode_binary_body
        start = time.perf_counter()
        for _ in range(ROUNDS):
            encode(hit)
        return (time.perf_counter() - start) / ROUNDS

    def run():
        shapes = {}
        for name, (key, lo, hi), response in _lookup_shapes():
            request, response = ([LookupRequest(key, lo, hi)],), [response]
            binary = min(timed_binary(request, response) for _ in range(3))
            pickled = min(timed_pickle(request, response) for _ in range(3))
            shapes[name] = (binary, pickled)
        hit_encode = {rows: min(timed_hit_encode(rows) for _ in range(3)) for rows in (5, 100)}
        return shapes, hit_encode

    shapes, hit_encode = run_once(benchmark, run)
    for name, (binary, pickled) in shapes.items():
        print(
            f"\n{name:13s} binary {binary * 1e9:7.0f} ns  "
            f"pickle {pickled * 1e9:7.0f} ns  ({pickled / binary:.2f}x)",
            end="",
        )
    total_binary = sum(b for b, _ in shapes.values())
    total_pickle = sum(p for _, p in shapes.values())
    aggregate = total_pickle / total_binary
    print(f"\naggregate speedup: {aggregate:.2f}x")
    print(
        f"node-side hit encode: {hit_encode[5] * 1e9:.0f} ns for a 5-row value, "
        f"{hit_encode[100] * 1e9:.0f} ns for a 100-row value"
    )
    # Per-decode round trips must not re-copy bodies through the counters.
    assert wire_counters.bytes_copied == 0
    # Twenty times the rows must not show in the node's encode time
    # (a walk of the value would cost ~20x; the copy of a few KiB does not).
    assert hit_encode[100] < 4 * hit_encode[5], hit_encode


def _put_shapes():
    """Representative put requests: what a miss-filling client stores (the
    value already a blob, as ``SocketTransport.put`` sends it)."""
    shapes = [
        (
            "small-row",
            (
                "users:pk:42",
                {"id": 42, "name": "alice", "region": "eu"},
                Interval(10, 20),
                frozenset({InvalidationTag("users", "id", 42)}),
            ),
        ),
        (
            "page-row",
            (
                "pages:pk:7",
                {"id": 7, "payload": "x" * 128, "hits": 0},
                Interval(3, None),
                frozenset(),
            ),
        ),
        (
            "multi-tag",
            (
                "items:region:eu",
                {"id": 9, "price": 13.5, "region": "eu"},
                Interval(100, 250),
                frozenset(
                    {
                        InvalidationTag("items", "region", "eu"),
                        InvalidationTag("items", None, None),
                    }
                ),
            ),
        ),
    ]
    return [
        (name, (key, ValueBlob.pack(value), interval, tags))
        for name, (key, value, interval, tags) in shapes
    ]


def test_put_body_is_smaller_than_pickle_and_round_trips():
    """A ``put`` body — the miss-fill op, the hot write — is the tagged
    encoding of its argument tuple like every other request.  On every
    representative shape it decodes to the same arguments and is smaller
    than the same arguments pickled: the value is a byte run either way,
    and the key, interval and tags cost less tagged than pickled."""
    opcode = wire.OPCODES["put"]
    for name, args in _put_shapes():
        body = bytes(wire.encode_binary_args(opcode, args))
        pickled = pickle.dumps(args, pickle.HIGHEST_PROTOCOL)
        print(f"\n{name:13s} tagged {len(body):4d} B  pickle {len(pickled):4d} B", end="")
        assert body == bytes(wire.encode_binary_body(args))
        assert wire.decode_binary_args(opcode, body) == args
        assert len(body) < len(pickled), name
