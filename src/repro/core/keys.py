"""Cache-key derivation for cacheable functions.

The TxCache library, not the application, chooses cache keys: the key is a
stable serialization of the cacheable function's identity and its arguments
(paper section 6.1).  This removes a whole class of memcached bugs the paper
catalogues, where hand-chosen keys were insufficiently descriptive and two
different objects overwrote each other.

Keys also incorporate a fingerprint of the function's code object when it is
available, so that deploying a new version of a function naturally stops
matching entries computed by the old version (the paper suggests hashing the
function's code for exactly this reason).
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Optional, Tuple

__all__ = ["cache_key", "key_maker", "stable_repr", "function_fingerprint"]


def stable_repr(value: Any) -> str:
    """A deterministic textual form of an argument value.

    Dictionaries and sets are rendered with sorted keys/elements so that two
    logically equal arguments always produce the same key.  Nested containers
    are handled recursively.
    """
    kind = type(value)
    # What almost every argument is, answered before the ladder below (which
    # gives the same text; subclasses and ``bool`` still go through it).
    if kind is int or kind is str:
        return repr(value)
    if kind is tuple:
        return "(" + ", ".join(map(stable_repr, value)) + ")"
    if isinstance(value, dict):
        items = ", ".join(
            f"{stable_repr(k)}: {stable_repr(v)}" for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))
        )
        return "{" + items + "}"
    if isinstance(value, (set, frozenset)):
        items = ", ".join(sorted(stable_repr(v) for v in value))
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        open_, close = ("[", "]") if isinstance(value, list) else ("(", ")")
        return open_ + ", ".join(stable_repr(v) for v in value) + close
    if isinstance(value, float) and value.is_integer():
        # Avoid 1.0 vs 1 producing different keys for numerically equal args.
        return repr(int(value))
    return repr(value)


def function_fingerprint(fn: Callable[..., Any]) -> str:
    """A short fingerprint of a function's identity and implementation."""
    name = getattr(fn, "__qualname__", getattr(fn, "__name__", repr(fn)))
    module = getattr(fn, "__module__", "")
    code = getattr(fn, "__code__", None)
    if code is not None:
        payload = code.co_code + repr(code.co_consts).encode()
        digest = hashlib.sha1(payload).hexdigest()[:8]
    else:
        digest = "builtin"
    return f"{module}.{name}@{digest}"


def key_maker(fn_or_name: Callable[..., Any] | str) -> Callable[[Tuple[Any, ...], dict], str]:
    """The key derivation of one cacheable function: ``make(args, kwargs)``.

    Everything that depends only on the function — fingerprinting its code,
    the readable prefix — is done here, once; a call pays for rendering and
    hashing its arguments.  ``fn_or_name`` may be the function itself
    (preferred — its code fingerprint becomes part of the key) or an
    explicit name supplied by the application.
    """
    if callable(fn_or_name):
        identity = function_fingerprint(fn_or_name)
    else:
        identity = str(fn_or_name)
    # Keep a readable prefix for debugging plus a hash for uniqueness.
    readable = identity.split(".")[-1][:40] + ":"
    identity += "|"

    def make(args: Tuple[Any, ...], kwargs: dict) -> str:
        raw = identity + stable_repr(args) + "|" + (stable_repr(kwargs) if kwargs else "")
        return readable + hashlib.sha1(raw.encode()).hexdigest()[:16]

    return make


def cache_key(
    fn_or_name: Callable[..., Any] | str,
    args: Tuple[Any, ...] = (),
    kwargs: Optional[dict] = None,
) -> str:
    """Derive the cache key for one call to a cacheable function.

    The one-off form of :func:`key_maker`, which see.
    """
    return key_maker(fn_or_name)(tuple(args), kwargs or {})
