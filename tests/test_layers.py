"""The line between the paper's system and this repository's runtime.

The paper's TxCache is a client library, cache servers, the pincushion and
a database with an invalidation stream (Figure 1).  The wire stack,
process-hosted nodes and the supervisor are the runtime this
repository adds around it.  ``LAYERS`` orders every module: a module's
module-level imports name no later layer, and the runtime (layer 5) loads
only when a deployment's options ask for it.  README "Architecture" prints
the same table.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent
README = SRC.parent.parent / "README.md"

#: Module (or ``package.*``: the package and every module in it) → (layer,
#: where the paper describes it).  A module with no row fails the test.
LAYERS = {
    "repro._compat": (0, "support"),
    "repro.clock": (0, "support"),
    "repro.interval": (0, "§4.1, §5.2"),
    "repro.comm.multicast": (0, "§4.2, Figure 1"),
    "repro.db.*": (1, "§5"),
    "repro.cache.entry": (2, "§4.1"),
    "repro.cache.hashring": (2, "§4"),
    "repro.cache.server": (2, "§4"),
    "repro.pincushion.*": (2, "§5.4"),
    "repro.comm.transport": (2, "Figure 1"),
    "repro.comm": (2, "package"),
    "repro.cache.cluster": (3, "§4"),
    "repro.core.*": (3, "§2, §6"),
    "repro.cache.membership": (4, "*extension*"),
    "repro.deployment": (4, "Figure 1"),
    "repro.cache": (4, "package"),
    "repro": (4, "package"),
    "repro.comm.wire": (5, "*extension*"),
    "repro.cache.netserver": (5, "*extension*"),
    "repro.cache.procnode": (5, "*extension*"),
    "repro.cache.supervisor": (5, "*extension*"),
    "repro.apps.*": (6, "§8"),
    "repro.bench.*": (6, "§8"),
}

#: What an in-process deployment must never load.
RUNTIME = (
    "repro.comm.wire",
    "repro.cache.netserver",
    "repro.cache.procnode",
    "repro.cache.supervisor",
    "socket",
    "selectors",
)


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


MODULES = {_module_name(path): path for path in sorted(SRC.rglob("*.py"))}


def _layer(module: str) -> int:
    if module in LAYERS:
        return LAYERS[module][0]
    package = module
    while package:
        if package + ".*" in LAYERS:
            return LAYERS[package + ".*"][0]
        package = package.rpartition(".")[0]
    raise AssertionError(f"{module} has no row in LAYERS")


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return getattr(test, "id", getattr(test, "attr", None)) == "TYPE_CHECKING"


def _module_level_imports(tree: ast.Module, package: str):
    """The ``repro`` modules a module imports at import time: every import
    outside function bodies and ``if TYPE_CHECKING:`` blocks."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0] if node.level > 1 else package
                base = f"{anchor}.{base}" if base else anchor
            for alias in node.names:
                submodule = f"{base}.{alias.name}"
                yield submodule if submodule in MODULES else base
        elif isinstance(node, ast.If) and _is_type_checking(node):
            pending.extend(node.orelse)
        elif isinstance(node, (ast.If, ast.Try, ast.With, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                pending.extend(getattr(node, field, []))
        elif isinstance(node, ast.ExceptHandler):
            pending.extend(node.body)


def test_every_module_has_a_layer():
    for module in MODULES:
        _layer(module)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_a_module_imports_no_later_layer_at_import_time(module):
    path = MODULES[module]
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    own = _layer(module)
    later = sorted(
        (imported, _layer(imported))
        for imported in set(_module_level_imports(ast.parse(path.read_text()), package))
        if imported.startswith("repro") and _layer(imported) > own
    )
    assert not later, f"{module} (layer {own}) imports {later}"


def test_the_readme_prints_the_layer_table():
    rows = re.findall(r"^\| `([\w.*]+)` \| (\d) \| (.+?) \|$", README.read_text(), re.M)
    assert {module: (int(layer), paper) for module, layer, paper in rows} == LAYERS


_SCENARIO = r"""
import json, sys
import repro
from repro.db.query import Eq, Select
from repro.db.schema import TableSchema

deployment = repro.TxCacheDeployment(replication_factor=2)
database = deployment.database
database.create_table(TableSchema.build("users", ["id", "name"], primary_key="id"))
database.bulk_load("users", [{"id": i, "name": f"user{i}"} for i in range(40)])
client = deployment.client()

@client.cacheable(name="name_of")
def name_of(user_id):
    return client.query(Select("users", Eq("id", user_id))).rows[0]["name"]

def read_all():
    with client.read_only(staleness=30.0):
        return [name_of(i) for i in range(40)]

assert read_all() == read_all()
with client.read_write():
    client.update("users", Eq("id", 3), {"name": "renamed"})
deployment.advance(1.0)
deployment.add_cache_node()
deployment.housekeeping()
read_all()
deployment.remove_cache_node("cache0")
deployment.cache.fail_node("cache1")
for _ in range(5):
    deployment.advance(1.0)
    deployment.housekeeping()
read_all()
deployment.shutdown()
print(json.dumps(sorted(name for name in RUNTIME if name in sys.modules)))
"""


def test_an_in_process_deployment_loads_no_wire_runtime():
    script = _SCENARIO.replace("RUNTIME", repr(RUNTIME))
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []
