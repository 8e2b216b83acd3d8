"""Small version-compatibility shims.

``DATACLASS_SLOTS`` lets the hot-path value types (intervals, cache entry
and lookup records, tuple versions) opt into ``__slots__`` layout where
the interpreter supports it: ``@dataclass(slots=True)`` needs Python 3.10,
and the oldest interpreter in CI is 3.9.  Slotted instances skip the
per-instance ``__dict__`` (less memory, faster attribute access), which the
wire microbenchmark measures on the frame codec path.  ``Interval``,
``LookupRequest`` and ``LookupResult`` are not ``frozen`` as well: their
immutability is a convention (nothing assigns to a field after
construction), because a frozen dataclass pays one ``object.__setattr__``
per field and every cache hit builds all three.  The database's
``QueryResult`` and access paths follow the same rule: every statement
builds one of each.
"""

from __future__ import annotations

import sys

__all__ = ["DATACLASS_SLOTS"]

DATACLASS_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}
