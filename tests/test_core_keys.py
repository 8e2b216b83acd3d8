"""Tests for cache-key derivation."""

from __future__ import annotations

from repro.core.keys import cache_key, function_fingerprint, stable_repr


def sample_function(a, b=2):
    return a + b


class TestStableRepr:
    def test_dict_key_order_does_not_matter(self):
        assert stable_repr({"a": 1, "b": 2}) == stable_repr({"b": 2, "a": 1})

    def test_set_order_does_not_matter(self):
        assert stable_repr({3, 1, 2}) == stable_repr({2, 3, 1})

    def test_lists_and_tuples_distinguished(self):
        assert stable_repr([1, 2]) != stable_repr((1, 2))

    def test_nested_structures(self):
        a = {"x": [1, {"y": 2}]}
        b = {"x": [1, {"y": 2}]}
        assert stable_repr(a) == stable_repr(b)

    def test_integral_floats_normalized(self):
        assert stable_repr(1.0) == stable_repr(1)
        assert stable_repr(1.5) != stable_repr(1)


class TestCacheKey:
    def test_same_call_same_key(self):
        assert cache_key(sample_function, (1,), {"b": 3}) == cache_key(
            sample_function, (1,), {"b": 3}
        )

    def test_different_args_different_keys(self):
        assert cache_key(sample_function, (1,)) != cache_key(sample_function, (2,))

    def test_different_kwargs_different_keys(self):
        assert cache_key(sample_function, (1,), {"b": 3}) != cache_key(
            sample_function, (1,), {"b": 4}
        )

    def test_different_functions_different_keys(self):
        def other(a, b=2):
            return a - b

        assert cache_key(sample_function, (1,)) != cache_key(other, (1,))

    def test_explicit_name_identity(self):
        assert cache_key("app.get_user", (5,)) == cache_key("app.get_user", (5,))
        assert cache_key("app.get_user", (5,)) != cache_key("app.get_item", (5,))

    def test_key_contains_readable_prefix(self):
        key = cache_key("module.get_user", (5,))
        assert key.startswith("get_user:")

    def test_code_change_changes_key(self):
        """Keys incorporate the implementation fingerprint, so a changed
        function body no longer matches old entries (software-update safety)."""

        def version_one(a):
            return a + 1

        def version_two(a):
            return a + 2

        assert cache_key(version_one, (1,)) != cache_key(version_two, (1,))


class TestFunctionFingerprint:
    def test_fingerprint_stable_for_same_function(self):
        assert function_fingerprint(sample_function) == function_fingerprint(sample_function)

    def test_fingerprint_for_builtin(self):
        assert "builtin" in function_fingerprint(len)


# ----------------------------------------------------------------------
# Golden keys: a changed key silently empties every deployed cache
# ----------------------------------------------------------------------
#: One argument list per shape a key has to get right: ``int``, ``str``,
#: ``1.0`` beside ``1``, a non-integral float, ``bool`` (an ``int`` subclass
#: that must not take the exact-``int`` path), ``None``, nested tuple/list,
#: dict, sets, kwargs alone and beside positionals, and no arguments.
GOLDEN_CALLS = [
    ((7,), {}),
    (("alice",), {}),
    ((1.0,), {}),
    ((1,), {}),
    ((1.5,), {}),
    ((True,), {}),
    ((None,), {}),
    (((1, (2, "x")), [3, [4.0, "y"]]), {}),
    (({"b": 2, "a": [1, 2]},), {}),
    ((frozenset({3, 1, 2}), {"p", "q"}), {}),
    ((7,), {"detail": "brief"}),
    ((), {"item_id": 7, "detail": ("a", 2)}),
    ((), {}),
]

#: What the commit before key derivation moved into ``key_maker`` returned
#: for ``GOLDEN_CALLS``, for a named function and for an unnamed one without
#: a code object (whose fingerprint does not depend on the interpreter).
GOLDEN_NAMED = [
    "get_item:2da883e4597b9182",
    "get_item:ad3bffa645060939",
    "get_item:0a74e18c18b4e4d9",
    "get_item:0a74e18c18b4e4d9",
    "get_item:d0512ddebcbe723c",
    "get_item:5d2f98beb7854f81",
    "get_item:e0636ebaef7c9f95",
    "get_item:6532b3914af04970",
    "get_item:44bc90e32f65e861",
    "get_item:4dd41c4e094a7adf",
    "get_item:d75cb8293547725a",
    "get_item:0e4ed06ffadc0a7f",
    "get_item:61a4a650f9741a3a",
]
GOLDEN_BUILTIN = [
    "len@builtin:c1c4072068dd58b9",
    "len@builtin:c229548264c4a1c9",
    "len@builtin:3c63542035c93d9d",
    "len@builtin:3c63542035c93d9d",
    "len@builtin:0938cbedd04d0afe",
    "len@builtin:203fdca2e250150b",
    "len@builtin:530c2e3f81b7b613",
    "len@builtin:e4d47c347be25630",
    "len@builtin:246f6f4907220b3d",
    "len@builtin:49ae08f7d2db0091",
    "len@builtin:672d615732895ebe",
    "len@builtin:6a8ae522eabbe863",
    "len@builtin:c9d3efc04a32874f",
]


def _reference_stable_repr(value):
    """``stable_repr`` as it was before the exact-type fast path."""
    if isinstance(value, dict):
        items = ", ".join(
            f"{_reference_stable_repr(k)}: {_reference_stable_repr(v)}"
            for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))
        )
        return "{" + items + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(_reference_stable_repr(v) for v in value)) + "}"
    if isinstance(value, (list, tuple)):
        open_, close = ("[", "]") if isinstance(value, list) else ("(", ")")
        return open_ + ", ".join(_reference_stable_repr(v) for v in value) + close
    if isinstance(value, float) and value.is_integer():
        return repr(int(value))
    return repr(value)


def _reference_cache_key(fn_or_name, args, kwargs):
    """``cache_key`` as it was when it re-derived everything per call."""
    import hashlib

    if callable(fn_or_name):
        code = fn_or_name.__code__
        digest = hashlib.sha1(code.co_code + repr(code.co_consts).encode()).hexdigest()[:8]
        identity = f"{fn_or_name.__module__}.{fn_or_name.__qualname__}@{digest}"
    else:
        identity = str(fn_or_name)
    kwarg_part = _reference_stable_repr(kwargs) if kwargs else ""
    raw = f"{identity}|{_reference_stable_repr(tuple(args))}|{kwarg_part}"
    readable = identity.split(".")[-1][:40]
    return f"{readable}:{hashlib.sha1(raw.encode()).hexdigest()[:16]}"


class TestGoldenKeys:
    def test_named_function_keys_are_byte_identical(self):
        keys = [cache_key("rubis.get_item", args, kwargs) for args, kwargs in GOLDEN_CALLS]
        assert keys == GOLDEN_NAMED

    def test_unnamed_function_without_code_object_keys_are_byte_identical(self):
        keys = [cache_key(len, args, kwargs) for args, kwargs in GOLDEN_CALLS]
        assert keys == GOLDEN_BUILTIN

    def test_unnamed_function_keys_match_the_per_call_derivation(self):
        # The fingerprint hashes the interpreter's bytecode, so the literal
        # differs between Python versions; the old derivation is the oracle.
        for args, kwargs in GOLDEN_CALLS:
            assert cache_key(sample_function, args, kwargs) == _reference_cache_key(
                sample_function, args, kwargs
            )
            assert cache_key("app.f", args, kwargs) == _reference_cache_key("app.f", args, kwargs)

    def test_cacheable_wrappers_store_under_those_keys(self):
        """The keys a client really uses — derived once per wrapper — are
        the ones ``cache_key`` gives, for a named and an unnamed function."""
        from tests.helpers import build_deployment

        deployment, client = build_deployment()

        def lookup_user(user_id, detail="full"):
            return (user_id, detail)

        named = client.make_cacheable(lookup_user, name="app.lookup_user")
        unnamed = client.make_cacheable(lookup_user)
        with client.read_only():
            named(3)
            named(4, detail="brief")
            unnamed(3)
            unnamed(1.0, detail=("a", [2]))
        stored = {key for server in deployment.cache.servers.values() for key in server.keys()}
        assert stored == {
            _reference_cache_key("app.lookup_user", (3,), {}),
            _reference_cache_key("app.lookup_user", (4,), {"detail": "brief"}),
            _reference_cache_key(lookup_user, (3,), {}),
            _reference_cache_key(lookup_user, (1.0,), {"detail": ("a", [2])}),
        }

    def test_unnamed_function_is_fingerprinted_once_per_wrapper(self, monkeypatch):
        from repro.core import keys
        from tests.helpers import build_deployment

        fingerprints = []
        real = keys.function_fingerprint
        monkeypatch.setattr(
            keys, "function_fingerprint", lambda fn: fingerprints.append(fn) or real(fn)
        )
        _deployment, client = build_deployment()
        unnamed = client.make_cacheable(sample_function)
        with client.read_only():
            for value in range(5):
                unnamed(value)
        assert fingerprints == [sample_function]
