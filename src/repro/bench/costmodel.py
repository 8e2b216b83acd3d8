"""Cost model: translating executed work into machine time.

The workload really runs against the TxCache stack, so the *what* (which
queries execute, which cache lookups hit, which entries get invalidated) is
genuine.  What a pure-Python reproduction cannot measure directly is the
*how long* on the paper's hardware — a PostgreSQL server, PHP web servers,
and memcached-class cache nodes on a gigabit LAN.  The cost model assigns
each unit of work a service time:

* **database**: a fixed CPU cost per query plus a per-tuple-examined cost;
  in the disk-bound configuration, result rows that miss a simulated LRU
  buffer cache additionally pay a random-I/O cost.  This reproduces the
  paper's observation that the disk-bound workload is bottlenecked by the
  long tail of rarely accessed rows while hot rows are effectively free.
* **web server**: a per-interaction cost plus a per-cacheable-call cost
  (serialization, templating); cache hits avoid the recomputation cost,
  matching the paper's observed ~15% web CPU reduction.
* **cache server**: a small per-request cost (the paper attributes most of
  it to kernel TCP overhead).

Peak throughput is then ``nodes / demand`` on the bottleneck tier, i.e. the
saturation throughput of a closed-loop system as the client population grows.
The default constants are calibrated so the no-caching baselines land near
the paper's (928 req/s in-memory, 136 req/s disk-bound); only the *shape* of
the curves is meaningful, as the paper's absolute numbers depend on 2010-era
hardware.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from repro.db.executor import QueryResult
from repro.db.query import Aggregate, Query, Select

__all__ = ["CostParameters", "ClusterSpec", "BufferCache", "CostModel", "InteractionCost"]


@dataclass(frozen=True)
class CostParameters:
    """Service-time constants (seconds) for the simulated cluster."""

    # Database costs.
    db_cost_per_query: float = 350e-6
    db_cost_per_tuple: float = 4e-6
    db_cost_per_disk_read: float = 6e-3
    db_cost_per_update_txn: float = 900e-6
    #: fraction of rows that fit the buffer cache in the disk-bound config.
    buffer_cache_fraction: float = 0.12
    # Web-server costs.
    web_cost_per_interaction: float = 500e-6
    web_cost_per_cacheable_call: float = 120e-6
    web_cost_per_db_query: float = 40e-6
    #: fraction of the recomputation cost still paid on a cache hit
    #: (deserialization of the cached value).
    web_hit_cost_fraction: float = 0.25
    # Cache-server costs.
    cache_cost_per_request: float = 70e-6
    #: Client-side cost of one cache round trip (marshalling + kernel TCP).
    #: Charged per RPC, so a batched multi-key lookup is charged once — this
    #: is what makes batching pay off in a networked topology.  The default
    #: of zero models the original in-process wiring.
    rpc_cost_seconds: float = 0.0


@dataclass(frozen=True)
class ClusterSpec:
    """How many machines serve each tier (paper: 10 machines total)."""

    db_nodes: int = 1
    web_nodes: int = 7
    cache_nodes: int = 2

    @staticmethod
    def in_memory_default() -> "ClusterSpec":
        """Paper's in-memory setup: 1 DB, 7 web servers, 2 cache nodes."""
        return ClusterSpec(db_nodes=1, web_nodes=7, cache_nodes=2)

    @staticmethod
    def disk_bound_default() -> "ClusterSpec":
        """Paper's disk-bound setup: 1 DB, 8 combined web+cache hosts."""
        return ClusterSpec(db_nodes=1, web_nodes=8, cache_nodes=8)


class BufferCache:
    """An LRU model of the database server's buffer cache (row granularity)."""

    def __init__(self, capacity_rows: int) -> None:
        self.capacity_rows = max(1, capacity_rows)
        self._rows: "OrderedDict[tuple, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, table: str, row_key: object) -> bool:
        """Touch one row; returns True on a buffer-cache hit."""
        key = (table, row_key)
        if key in self._rows:
            self._rows.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        self._rows[key] = None
        if len(self._rows) > self.capacity_rows:
            self._rows.popitem(last=False)
        return False

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class InteractionCost:
    """Accumulated demand of one interaction, per tier (seconds)."""

    db: float = 0.0
    web: float = 0.0
    cache: float = 0.0

    def add(self, other: "InteractionCost") -> None:
        self.db += other.db
        self.web += other.web
        self.cache += other.cache


class CostModel:
    """Accumulates per-tier demand as the workload executes.

    The model is attached to a deployment: it observes every database query
    through the executor's observer hook and is informed of cache traffic and
    interaction boundaries by the benchmark driver.
    """

    def __init__(
        self,
        parameters: Optional[CostParameters] = None,
        disk_bound: bool = False,
        total_rows: int = 0,
    ) -> None:
        self.parameters = parameters or CostParameters()
        self.disk_bound = disk_bound
        self.buffer_cache: Optional[BufferCache] = None
        if disk_bound:
            capacity = int(total_rows * self.parameters.buffer_cache_fraction)
            self.buffer_cache = BufferCache(capacity_rows=max(64, capacity))
        #: demand accumulated for the interaction currently executing.
        self.current = InteractionCost()
        #: total demand over the measurement window.
        self.total = InteractionCost()
        self.interactions = 0

    # ------------------------------------------------------------------
    # Database-side accounting (executor observer)
    # ------------------------------------------------------------------
    def observe_query(self, query: Query, result: QueryResult) -> None:
        """Charge one database query (called from the executor hook)."""
        params = self.parameters
        cost = params.db_cost_per_query + params.db_cost_per_tuple * result.examined
        if self.buffer_cache is not None:
            table = self._table_of(query)
            for row in result.rows:
                row_key = row.get("id", id(row))
                if not self.buffer_cache.access(table, row_key):
                    cost += params.db_cost_per_disk_read
        self.current.db += cost
        self.current.web += params.web_cost_per_db_query

    def charge_update_transaction(self) -> None:
        """Charge the database for one read/write transaction's commit work."""
        self.current.db += self.parameters.db_cost_per_update_txn

    # ------------------------------------------------------------------
    # Web/cache-side accounting (driver callbacks)
    # ------------------------------------------------------------------
    def charge_cacheable_call(self, hit: bool) -> None:
        """Charge the web server for one cacheable call and the cache node
        for the lookup (plus the insertion on a miss)."""
        params = self.parameters
        if hit:
            self.current.web += params.web_cost_per_cacheable_call * params.web_hit_cost_fraction
            self.current.cache += params.cache_cost_per_request
        else:
            self.current.web += params.web_cost_per_cacheable_call
            self.current.cache += 2 * params.cache_cost_per_request

    def charge_cache_rpcs(self, count: int) -> None:
        """Charge the network cost of ``count`` cache round trips.

        The web tier pays (the application server blocks on the RPC); a
        batched operation counts as one round trip however many keys it
        carries, so the charge rewards batching.
        """
        if count:
            self.current.web += self.parameters.rpc_cost_seconds * count

    def charge_bypassed_call(self) -> None:
        """Charge a cacheable call that bypassed the cache (RW transaction or
        the no-caching baseline): full recomputation cost, no cache traffic."""
        self.current.web += self.parameters.web_cost_per_cacheable_call

    def begin_interaction(self) -> None:
        """Start accounting for a new interaction."""
        self.current = InteractionCost()
        self.current.web += self.parameters.web_cost_per_interaction

    def end_interaction(self) -> InteractionCost:
        """Close the current interaction and fold it into the totals."""
        finished = self.current
        self.total.add(finished)
        self.interactions += 1
        self.current = InteractionCost()
        return finished

    # ------------------------------------------------------------------
    # Derived figures
    # ------------------------------------------------------------------
    def demand_per_interaction(self) -> InteractionCost:
        """Average per-interaction demand over the measurement window."""
        if not self.interactions:
            return InteractionCost()
        return InteractionCost(
            db=self.total.db / self.interactions,
            web=self.total.web / self.interactions,
            cache=self.total.cache / self.interactions,
        )

    def peak_throughput(self, cluster: ClusterSpec) -> float:
        """Saturation throughput (requests/second) given the cluster sizing."""
        demand = self.demand_per_interaction()
        per_tier = {
            "db": demand.db / cluster.db_nodes if demand.db else 0.0,
            "web": demand.web / cluster.web_nodes if demand.web else 0.0,
            "cache": demand.cache / cluster.cache_nodes if demand.cache else 0.0,
        }
        bottleneck = max(per_tier.values())
        return 1.0 / bottleneck if bottleneck > 0 else float("inf")

    def bottleneck(self, cluster: ClusterSpec) -> str:
        """Name of the tier limiting throughput."""
        demand = self.demand_per_interaction()
        per_tier = {
            "db": demand.db / cluster.db_nodes,
            "web": demand.web / cluster.web_nodes,
            "cache": demand.cache / cluster.cache_nodes,
        }
        return max(per_tier, key=per_tier.get)

    def utilization_shares(self, cluster: ClusterSpec) -> Dict[str, float]:
        """Per-tier demand normalized by the bottleneck tier's demand."""
        demand = self.demand_per_interaction()
        per_tier = {
            "db": demand.db / cluster.db_nodes,
            "web": demand.web / cluster.web_nodes,
            "cache": demand.cache / cluster.cache_nodes,
        }
        peak = max(per_tier.values()) or 1.0
        return {tier: value / peak for tier, value in per_tier.items()}

    def reset(self) -> None:
        """Clear accumulated demand (used after warmup)."""
        self.total = InteractionCost()
        self.current = InteractionCost()
        self.interactions = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _table_of(query: Query) -> str:
        if isinstance(query, Select):
            return query.table
        if isinstance(query, Aggregate):
            return query.source.table
        return "<unknown>"
