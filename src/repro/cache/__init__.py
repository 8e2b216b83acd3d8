"""Versioned cache substrate: cache servers, consistent hashing, cluster.

Cache nodes can be reached in-process (zero overhead) or as real networked
servers over TCP (:mod:`repro.cache.netserver`); the cluster routes through
either via the :class:`repro.comm.transport.CacheTransport` abstraction.
The networked runtime (``netserver``, ``procnode``, ``supervisor``) is not
imported here: it loads when a deployment asks for it, and the transport
failure classes live in :mod:`repro.comm.transport`.  The cache tier is
elastic: :mod:`repro.cache.membership` versions the node set into epochs,
live-migrates keys on planned joins/leaves, and records failure-driven
evictions performed by the cluster's failure-aware routing, the one
failure detector under every transport.
"""

from repro.cache.cluster import CacheCluster, ClusterHealthStats
from repro.cache.entry import CacheEntry, EntryRecord, LookupRequest, LookupResult
from repro.cache.hashring import ConsistentHashRing
from repro.cache.membership import ClusterMembership, EpochRecord, MembershipStats
from repro.cache.server import CacheServer, CacheServerStats

__all__ = [
    "CacheCluster",
    "ClusterHealthStats",
    "CacheEntry",
    "EntryRecord",
    "LookupRequest",
    "LookupResult",
    "ConsistentHashRing",
    "ClusterMembership",
    "EpochRecord",
    "MembershipStats",
    "CacheServer",
    "CacheServerStats",
]
