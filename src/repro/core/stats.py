"""Client-side statistics, including cache-miss classification.

The paper's Figure 8 breaks cache misses down by type, borrowing the CPU
cache taxonomy:

* **compulsory** — the object was never in the cache;
* **staleness** — the object was invalidated and its staleness limit has
  been exceeded;
* **capacity** — the object was previously evicted;
* **consistency** — some sufficiently fresh version of the object was
  available, but it was inconsistent with data the transaction had already
  read.

Like the paper's cache server, the reproduction cannot always distinguish
staleness from capacity misses (an evicted entry and an expired entry look
identical to a later lookup), so those two are reported together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict

__all__ = ["MissType", "ClientStats"]


class MissType(Enum):
    """Classification of one cache miss (paper section 8.3).

    ``DEGRADED`` extends the paper's taxonomy for the elastic deployment:
    the responsible cache node was unreachable, so the library treated the
    lookup as a miss rather than failing the transaction.  Keeping these out
    of the other buckets stops a dead node from polluting the compulsory
    counts of Figure 8.  With R-way replication a lookup degrades only when
    *every* replica of the key is unreachable — a single node crash in a
    replicated tier produces no DEGRADED misses at all (reads fail over).
    """

    COMPULSORY = "compulsory"
    STALE_OR_CAPACITY = "stale_or_capacity"
    CONSISTENCY = "consistency"
    DEGRADED = "degraded"


@dataclass
class ClientStats:
    """Counters maintained by one TxCache client library instance."""

    ro_transactions: int = 0
    rw_transactions: int = 0
    commits: int = 0
    aborts: int = 0
    cacheable_calls: int = 0
    hits: int = 0
    misses: int = 0
    misses_by_type: Dict[MissType, int] = field(
        default_factory=lambda: {miss_type: 0 for miss_type in MissType}
    )
    db_queries: int = 0
    pins_created: int = 0
    cache_bypassed_calls: int = 0
    #: Cache round trips issued (a lookup counts once, a ``call_all`` batch
    #: once per node it went to, a put once per replica); the cost model
    #: charges network cost per round trip.
    cache_rpcs: int = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_hit(self) -> None:
        self.cacheable_calls += 1
        self.hits += 1

    def record_miss(self, miss_type: MissType) -> None:
        self.cacheable_calls += 1
        self.misses += 1
        self.misses_by_type[miss_type] += 1

    def record_bypass(self) -> None:
        """A cacheable call that bypassed the cache (read/write transaction)."""
        self.cacheable_calls += 1
        self.cache_bypassed_calls += 1

    # ------------------------------------------------------------------
    # Derived figures
    # ------------------------------------------------------------------
    @property
    def lookups(self) -> int:
        """Cacheable calls that consulted the cache."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Cache hit rate over cacheable calls that consulted the cache."""
        return self.hits / self.lookups if self.lookups else 0.0

    def miss_fractions(self) -> Dict[MissType, float]:
        """Each miss type as a fraction of total misses (Figure 8's rows)."""
        if not self.misses:
            return {miss_type: 0.0 for miss_type in MissType}
        return {
            miss_type: count / self.misses
            for miss_type, count in self.misses_by_type.items()
        }

    def reset(self) -> None:
        """Zero every counter."""
        self.ro_transactions = 0
        self.rw_transactions = 0
        self.commits = 0
        self.aborts = 0
        self.cacheable_calls = 0
        self.hits = 0
        self.misses = 0
        self.misses_by_type = {miss_type: 0 for miss_type in MissType}
        self.db_queries = 0
        self.pins_created = 0
        self.cache_bypassed_calls = 0
        self.cache_rpcs = 0

    def merge(self, other: "ClientStats") -> "ClientStats":
        """Add another client's counters into this one; returns ``self``.

        Mirrors :meth:`repro.cache.server.CacheServerStats.merge` so
        multi-client aggregation composes the same way (``total += stats``).
        """
        self.ro_transactions += other.ro_transactions
        self.rw_transactions += other.rw_transactions
        self.commits += other.commits
        self.aborts += other.aborts
        self.cacheable_calls += other.cacheable_calls
        self.hits += other.hits
        self.misses += other.misses
        for miss_type in MissType:
            self.misses_by_type[miss_type] += other.misses_by_type[miss_type]
        self.db_queries += other.db_queries
        self.pins_created += other.pins_created
        self.cache_bypassed_calls += other.cache_bypassed_calls
        self.cache_rpcs += other.cache_rpcs
        return self

    def __iadd__(self, other: "ClientStats") -> "ClientStats":
        return self.merge(other)
