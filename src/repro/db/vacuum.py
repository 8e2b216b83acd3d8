"""Version reclamation (the "vacuum cleaner").

The paper relies on PostgreSQL's no-overwrite storage manager: old tuple
versions stay around until an asynchronous vacuum process removes them, which
is exactly what lets pinned snapshots keep reading the past cheaply.  This
module reproduces the reclamation step: a tuple version may be removed once
no retained snapshot — neither a pinned snapshot nor the latest state — can
see it any more.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database

__all__ = ["vacuum_database", "vacuum_horizon"]


def vacuum_horizon(database: "Database") -> int:
    """Oldest timestamp any retained snapshot might still read.

    This is the minimum of the pinned snapshot timestamps and the latest
    committed timestamp; versions dead at or before this point are safe to
    remove.
    """
    pinned = database.pinned_snapshots
    horizon = database.latest_timestamp
    if pinned:
        horizon = min(horizon, min(pinned))
    return horizon


def vacuum_database(database: "Database") -> Tuple[int, int]:
    """Remove versions invisible to every retained snapshot.

    A version is visible at ``ts`` only if ``xmax > ts``, so one superseded
    at or before the horizon is invisible to the horizon and to everything
    newer, and nothing older than the horizon is retained.  Commits queue
    the versions they supersede on ``database.superseded`` in ``xmax``
    order, so the dead ones are a prefix of that queue and a run costs what
    it removes, not what the tables hold.

    Returns ``(removed_count, horizon)``.
    """
    horizon = vacuum_horizon(database)
    superseded = database.superseded
    removed = 0
    while superseded and superseded[0][1].xmax <= horizon:
        table, version = superseded.popleft()
        table.remove_version(version)
        removed += 1
    return removed, horizon
