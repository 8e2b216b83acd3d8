"""Spans around the public calls into each layer, recorded from outside.

``Tracer.install`` replaces methods on the program's classes with wrappers
that record one span per call — ``(name, start, end, parent, interaction)``
— while the measured window runs.  Nothing inside ``src/`` knows; a target
that no longer exists is skipped with a warning and counted in
``trace.missing_targets``, so code can be deleted without editing this file.
A layer's self time is its spans' durations minus their child spans'.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import sys
import threading
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from workloads import (
    BLOCK,
    Run,
    Window,
    interactions_per_second,
    percentile,
    process_cpu_seconds,
)

#: (span name, module, class, method).  The span name's prefix is its layer.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("core.begin_ro", "repro.core.api", "TxCacheClient", "begin_ro"),
    ("core.begin_rw", "repro.core.api", "TxCacheClient", "begin_rw"),
    ("core.commit", "repro.core.api", "TxCacheClient", "commit"),
    ("core.abort", "repro.core.api", "TxCacheClient", "abort"),
    ("core.query", "repro.core.api", "TxCacheClient", "query"),
    ("core.insert", "repro.core.api", "TxCacheClient", "insert"),
    ("core.update", "repro.core.api", "TxCacheClient", "update"),
    ("core.delete", "repro.core.api", "TxCacheClient", "delete"),
    ("cluster.multi_lookup", "repro.cache.cluster", "CacheCluster", "multi_lookup"),
    ("cluster.put", "repro.cache.cluster", "CacheCluster", "put"),
    ("cluster.evict_stale", "repro.cache.cluster", "CacheCluster", "evict_stale"),
    ("transport.multi_lookup", "repro.comm.transport", "InProcessTransport", "multi_lookup"),
    ("transport.put", "repro.comm.transport", "InProcessTransport", "put"),
    ("transport.invalidate", "repro.comm.transport", "InProcessTransport", "process_invalidation"),
    ("transport.invalidate", "repro.comm.transport", "InProcessTransport", "process_invalidations"),
    ("transport.note_timestamp", "repro.comm.transport", "InProcessTransport", "note_timestamp"),
    ("transport.evict_stale", "repro.comm.transport", "InProcessTransport", "evict_stale"),
    ("transport.multi_lookup", "repro.cache.netserver", "SocketTransport", "multi_lookup"),
    ("transport.put", "repro.cache.netserver", "SocketTransport", "put"),
    ("transport.invalidate", "repro.cache.netserver", "SocketTransport", "process_invalidation"),
    ("transport.invalidate", "repro.cache.netserver", "SocketTransport", "process_invalidations"),
    ("transport.note_timestamp", "repro.cache.netserver", "SocketTransport", "note_timestamp"),
    ("transport.evict_stale", "repro.cache.netserver", "SocketTransport", "evict_stale"),
    ("server.multi_lookup", "repro.cache.server", "CacheServer", "multi_lookup"),
    ("server.put", "repro.cache.server", "CacheServer", "put"),
    ("server.invalidate", "repro.cache.server", "CacheServer", "process_invalidation"),
    ("server.note_timestamp", "repro.cache.server", "CacheServer", "note_timestamp"),
    ("server.evict_stale", "repro.cache.server", "CacheServer", "evict_stale"),
    ("db.begin_ro", "repro.db.database", "Database", "begin_ro"),
    ("db.begin_rw", "repro.db.database", "Database", "begin_rw"),
    ("db.pin_latest", "repro.db.database", "Database", "pin_latest"),
    ("db.unpin", "repro.db.database", "Database", "unpin"),
    ("db.vacuum", "repro.db.database", "Database", "vacuum"),
    ("db.ro_query", "repro.db.transactions", "ReadOnlyTransaction", "query"),
    ("db.rw_stmt", "repro.db.transactions", "ReadWriteTransaction", "query"),
    ("db.rw_stmt", "repro.db.transactions", "ReadWriteTransaction", "insert"),
    ("db.rw_stmt", "repro.db.transactions", "ReadWriteTransaction", "update"),
    ("db.rw_stmt", "repro.db.transactions", "ReadWriteTransaction", "delete"),
    ("db.rw_commit", "repro.db.transactions", "ReadWriteTransaction", "commit"),
    ("bus.publish", "repro.comm.multicast", "InvalidationBus", "publish"),
    ("bus.enqueue", "repro.comm.multicast", "InvalidationBus", "enqueue"),
    ("bus.deliver", "repro.comm.multicast", "InvalidationBus", "deliver_pending"),
    ("pincushion.fresh_snapshots", "repro.pincushion.pincushion", "Pincushion", "fresh_snapshots"),
    ("pincushion.register", "repro.pincushion.pincushion", "Pincushion", "register"),
    ("pincushion.release", "repro.pincushion.pincushion", "Pincushion", "release"),
    ("pincushion.expire", "repro.pincushion.pincushion", "Pincushion", "expire_old_snapshots"),
    ("housekeeping.run", "repro.deployment", "TxCacheDeployment", "housekeeping"),
)

#: Socket round trips whose payloads are kept for the codec replay.
WIRE_SAMPLE = 2000
LAYERS = (
    "app", "core", "cluster", "transport", "server", "db", "bus", "pincushion", "housekeeping",
)


def _counters(stats) -> Dict[str, int]:
    """The integer fields of a ``*Stats`` dataclass ({} if it is gone)."""
    if not dataclasses.is_dataclass(stats):
        return {}
    return {
        f.name: getattr(stats, f.name)
        for f in dataclasses.fields(stats)
        if isinstance(getattr(stats, f.name), int)
    }


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        # One entry per span in each column.  Typed arrays, not tuples: a
        # million live tuples make every collection of the cyclic GC scan
        # them, which doubled the traced run's time.
        self.name_ids = array("h")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.interactions = array("l")
        self.failed = bytearray()
        self.missing: List[str] = []
        self.wire_calls: List[Tuple[str, tuple, object]] = []
        self._stack: List[int] = []
        self._recording = False
        self._interaction = -1
        self._thread = threading.get_ident()
        self._first = 0
        self._before: Dict[str, Dict[str, int]] = {}
        self._miss_types_before: dict = {}
        self._node_cpu_before = 0.0

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id: int, parent: int) -> int:
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(parent)
        self.interactions.append(self._interaction)
        self.failed.append(0)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        return index

    def wrap(self, function: Callable, name: str, keep_payload: bool = False) -> Callable:
        name_id = self._name_id(name)
        stack, ends, now = self._stack, self.ends, time.perf_counter
        ident, wire_calls = threading.get_ident, self.wire_calls

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self._recording or ident() != self._thread:
                return function(*args, **kwargs)
            index = self._open(name_id, stack[-1] if stack else -1)
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                ends[index] = now()
                self.failed[index] = 1
                stack.pop()
                raise
            ends[index] = now()
            stack.pop()
            if keep_payload and len(wire_calls) < WIRE_SAMPLE:
                wire_calls.append((function.__name__, args[1:], result))
            return result

        return traced

    def install(self) -> None:
        for name, module_name, class_name, method in TARGETS:
            try:
                owner = getattr(importlib.import_module(module_name), class_name)
                function = owner.__dict__[method]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{class_name}.{method}")
                print(f"trace: {self.missing[-1]} is gone; skipped", file=sys.stderr)
                continue
            keep = class_name == "SocketTransport" and method in ("multi_lookup", "put")
            setattr(owner, method, self.wrap(function, name, keep_payload=keep))
        try:
            from repro.core.api import TxCacheClient

            make_cacheable = TxCacheClient.make_cacheable
        except (ImportError, AttributeError):
            self.missing.append("repro.core.api:TxCacheClient.make_cacheable")
            return

        def traced_make_cacheable(client, fn, name=None):
            body = self.wrap(fn, "app.cacheable_body")
            return self.wrap(make_cacheable(client, body, name=name), "core.cacheable")

        TxCacheClient.make_cacheable = traced_make_cacheable

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stat_sources(self, run: Run) -> Dict[str, object]:
        deployment = run.deployment
        database = deployment.database
        sources = {
            "client": getattr(run.client, "stats", None),
            "database": getattr(database, "stats", None),
            "executor": getattr(getattr(database, "executor", None), "stats", None),
        }
        try:
            sources["server"] = deployment.cache.aggregate_stats()
        except Exception as exc:  # noqa: BLE001 - a deleted stats op is not a failure
            print(f"trace: cache.aggregate_stats failed: {exc!r}", file=sys.stderr)
        return sources

    def start(self, run: Run, first: int) -> None:
        self._first = first
        self._before = {k: _counters(v) for k, v in self._stat_sources(run).items()}
        self._miss_types_before = dict(getattr(run.client.stats, "misses_by_type", {}))
        self._node_cpu_before = sum(process_cpu_seconds(p) for p in run.node_pids())
        self._recording = True

    def stop(self) -> None:
        self._recording = False

    def begin_root(self, name: str, interaction: int) -> None:
        self._interaction = interaction
        self._stack.append(self._open(self._name_id(name), -1))

    def end_root(self) -> None:
        self.ends[self._stack.pop()] = time.perf_counter()

    def _span_cost(self) -> float:
        """Seconds one wrapped call costs beyond the call itself."""

        def nothing() -> None:
            return None

        traced = self.wrap(nothing, "trace.probe")
        kept = len(self.starts)
        self._recording = True
        rounds = 20000
        started = time.perf_counter()
        for _ in range(rounds):
            traced()
        middle = time.perf_counter()
        for _ in range(rounds):
            nothing()
        ended = time.perf_counter()
        self._recording = False
        for column in (self.name_ids, self.starts, self.ends, self.parents,
                       self.interactions, self.failed):  # fmt: skip
            del column[kept:]
        return max(0.0, ((middle - started) - (ended - middle)) / rounds)

    # ------------------------------------------------------------------
    # Per-layer metrics
    # ------------------------------------------------------------------
    def layer_metrics(
        self, run: Run, window: Window, cpu_seconds: float, node_peak_rss_mb: float
    ) -> dict:
        after = {k: _counters(v) for k, v in self._stat_sources(run).items()}

        def delta(source: str, field: str) -> int:
            return after.get(source, {}).get(field, 0) - self._before.get(source, {}).get(field, 0)

        # Calibrated duration and self time of every span, by name.
        slowdowns = window.slowdowns
        durations: Dict[str, List[float]] = defaultdict(list)
        self_seconds: Dict[str, float] = defaultdict(float)
        failed_calls: Dict[str, int] = defaultdict(int)
        spans = len(self.starts)
        child_seconds = [0.0] * spans
        for index in range(spans - 1, -1, -1):
            parent = self.parents[index]
            block = (self.interactions[index] - self._first) // BLOCK
            duration = (self.ends[index] - self.starts[index]) / slowdowns[block]
            name = self.names[self.name_ids[index]]
            durations[name].append(duration)
            # Children come after their parent, so theirs are summed already.
            self_seconds[name.split(".")[0]] += duration - child_seconds[index]
            if parent >= 0:
                child_seconds[parent] += duration
            if self.failed[index]:
                failed_calls[name] += 1

        def layer_calls(layer: str) -> int:
            return sum(len(v) for n, v in durations.items() if n.startswith(layer + "."))

        def p(name: str, fraction: float, scale: float = 1e6) -> float:
            return percentile(durations.get(name, []), fraction) * scale

        miss_types = {
            getattr(kind, "value", str(kind)): count - self._miss_types_before.get(kind, 0)
            for kind, count in getattr(run.client.stats, "misses_by_type", {}).items()
        }
        ops = window.attempted
        slowdown = window.wall_raw / window.wall
        total_self = sum(self_seconds.values())
        cluster_calls = layer_calls("cluster")
        rows = delta("executor", "rows_returned")
        cache = run.deployment.cache
        entry_count, used_bytes = cache_contents(cache)
        encode_us, decode_us, wire_bytes = self._replay_codec()
        m: Dict[str, Tuple[float, str]] = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self_seconds.get(layer, 0.0), "s")
        m.update({
            "app.interactions": (len(durations.get("app.interaction", [])), "count"),
            "app.failed": (window.failed, "count"),
            "app.ro_p99_ms": (percentile(window.ro_latencies, 0.99) * 1e3, "ms"),
            "app.rw_p50_ms": (percentile(window.rw_latencies, 0.50) * 1e3, "ms"),
            "app.rw_p99_ms": (percentile(window.rw_latencies, 0.99) * 1e3, "ms"),
            "core.begin_ro_us": (p("core.begin_ro", 0.5), "us"),
            "core.commit_us": (p("core.commit", 0.5), "us"),
            "core.cacheable_calls": (delta("client", "cacheable_calls"), "count"),
            "core.hits": (delta("client", "hits"), "count"),
            "core.misses": (delta("client", "misses"), "count"),
            "core.miss_compulsory": (miss_types.get("compulsory", 0), "count"),
            "core.miss_stale_or_capacity": (miss_types.get("stale_or_capacity", 0), "count"),
            "core.miss_consistency": (miss_types.get("consistency", 0), "count"),
            "core.miss_degraded": (miss_types.get("degraded", 0), "count"),
            "core.cache_rpcs_per_interaction": (delta("client", "cache_rpcs") / ops, "count"),
            "cluster.calls": (cluster_calls, "count"),
            "cluster.self_us_per_call": (
                self_seconds.get("cluster", 0.0) / cluster_calls * 1e6 if cluster_calls else 0.0,
                "us",
            ),
            "transport.calls": (layer_calls("transport"), "count"),
            "transport.failed_calls": (
                sum(c for n, c in failed_calls.items() if n.startswith("transport.")),
                "count",
            ),
            "transport.multi_lookup_us_p50": (p("transport.multi_lookup", 0.5), "us"),
            "transport.multi_lookup_us_p99": (p("transport.multi_lookup", 0.99), "us"),
            "transport.put_us_p50": (p("transport.put", 0.5), "us"),
            "transport.invalidate_us_p50": (p("transport.invalidate", 0.5), "us"),
            "wire.encode_us_per_rpc": (encode_us, "us"),
            "wire.decode_us_per_rpc": (decode_us, "us"),
            "wire.bytes_per_rpc": (wire_bytes, "bytes"),
            "server.lookup_us_p50": (p("server.multi_lookup", 0.5), "us"),
            "server.put_us_p50": (p("server.put", 0.5), "us"),
            "server.invalidate_us_p50": (p("server.invalidate", 0.5), "us"),
            "server.invalidate_us_p99": (p("server.invalidate", 0.99), "us"),
            "server.entries_invalidated": (delta("server", "entries_invalidated"), "count"),
            "server.lru_evictions": (delta("server", "lru_evictions"), "count"),
            "server.stale_evictions": (delta("server", "stale_evictions"), "count"),
            "server.entry_count_end": (entry_count, "count"),
            "server.used_bytes_end": (used_bytes, "bytes"),
            "node.cpu_s": (
                sum(process_cpu_seconds(pid) for pid in run.node_pids()) - self._node_cpu_before,
                "s",
            ),
            "node.rss_mb": (node_peak_rss_mb, "MB"),
            "db.queries": (delta("executor", "queries"), "count"),
            "db.ro_query_us_p50": (p("db.ro_query", 0.5), "us"),
            "db.ro_query_us_p99": (p("db.ro_query", 0.99), "us"),
            "db.rw_stmt_us_p50": (p("db.rw_stmt", 0.5), "us"),
            "db.rw_commit_us_p50": (p("db.rw_commit", 0.5), "us"),
            "db.tuples_examined_per_row_returned": (
                delta("executor", "tuples_examined") / rows if rows else 0.0,
                "count",
            ),
            "db.versions_vacuumed": (delta("database", "versions_vacuumed"), "count"),
            "bus.publishes": (len(durations.get("bus.enqueue", [])), "count"),
            "bus.publish_us_p50": (p("bus.deliver", 0.5), "us"),
            "pincushion.calls": (layer_calls("pincushion"), "count"),
            "pincushion.pins_created": (delta("client", "pins_created"), "count"),
            "housekeeping.runs": (len(durations.get("housekeeping.run", [])), "count"),
            "housekeeping.max_pause_ms": (
                max(durations.get("housekeeping.run", [0.0])) * 1e3,
                "ms",
            ),
            "trace.spans": (spans, "count"),
            "trace.missing_targets": (len(self.missing), "count"),
            "trace.overhead_pct": (
                100 * spans * self._span_cost() / window.wall_raw,
                "%",
            ),
            "trace.reconcile_pct": (100 * abs(window.wall - total_self) / window.wall, "%"),
            # Compare with the untraced interactions_per_s for the real overhead.
            "run.interactions_per_s": (interactions_per_second(window), "1/s"),
            "run.wall_s": (window.wall_raw, "s"),
            "run.slowdown": (slowdown, "ratio"),
            "run.cpu_ms_per_interaction": (cpu_seconds / slowdown / ops * 1e3, "ms"),
        })
        return m

    def _replay_codec(self) -> Tuple[float, float, float]:
        """Encode and decode the kept socket calls through the codec alone."""
        if not self.wire_calls:
            return 0.0, 0.0, 0.0
        try:
            from repro.comm import wire

            opcodes = {op: wire.OPCODES[op] for op in ("multi_lookup", "put")}
            encoded = []
            started = time.perf_counter()
            for op, args, result in self.wire_calls:
                if op == "multi_lookup":
                    args = (list(args[0]),)
                encoded.append(
                    (opcodes[op], wire.encode_binary_args(opcodes[op], args),
                     wire.encode_binary_body(result))
                )
            encode_seconds = time.perf_counter() - started
            # The codec takes bytes off a socket, not the encoder's bytearray.
            encoded = [(op, bytes(request), bytes(response)) for op, request, response in encoded]
            started = time.perf_counter()
            for opcode, request, response in encoded:
                wire.decode_binary_args(opcode, request)
                wire.decode_binary_body(response)
            decode_seconds = time.perf_counter() - started
        except Exception as exc:  # noqa: BLE001 - a deleted codec is not a failure
            self.missing.append("repro.comm.wire binary codec")
            print(f"trace: codec replay failed: {exc!r}", file=sys.stderr)
            return 0.0, 0.0, 0.0
        calls = len(encoded)
        size = sum(len(request) + len(response) for _, request, response in encoded)
        return encode_seconds / calls * 1e6, decode_seconds / calls * 1e6, size / calls

    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """One self-contained JSON record per span, one per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for index in range(len(self.starts)):
                handle.write(json.dumps({
                    "span": index, "name": self.names[self.name_ids[index]],
                    "start": self.starts[index], "end": self.ends[index],
                    "parent": self.parents[index],
                    "interaction": self.interactions[index],
                    "failed": bool(self.failed[index]),
                }) + "\n")


def cache_contents(cache) -> Tuple[int, int]:
    """(entries, bytes) held across the cluster, over the wire if need be."""
    if cache.servers:
        return cache.entry_count, cache.used_bytes
    entries = size = 0
    try:
        for transport in cache.transports.values():
            for key in transport.keys():
                for entry in transport.versions_of(key):
                    entries += 1
                    size += entry.size
    except Exception as exc:  # noqa: BLE001 - introspection ops may be deleted
        print(f"trace: remote cache contents unavailable: {exc!r}", file=sys.stderr)
    return entries, size
