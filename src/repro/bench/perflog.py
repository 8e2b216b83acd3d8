"""Persisted benchmark numbers (the perf trajectory across PRs).

The benchmarks don't just assert their speedups — they record the
measured numbers in ``BENCH_*.json`` files at the repository root so the
performance trajectory is tracked in version control.  Each benchmark
owns one *section* of a file (codec, RPC round trip, multiprocess
throughput, the open-loop figure sweeps); a section is a **timestamped
entry list**, and re-running a benchmark *appends* a new entry instead of
overwriting the old one, so the files accumulate a trajectory across PRs
rather than losing history on every rerun.  Schema v2::

    {
      "schema_version": 2,
      "sections": {
        "codec": {"entries": [{"recorded_at": "2026-...Z", "data": {...}},
                              ...]},
        ...
      }
    }

Legacy v1 files (a flat ``{section: data}`` mapping) are migrated on
load: each existing section becomes the first entry of its entry list.
The original measurement time was never recorded, so migrated entries
get a **backfilled** ``recorded_at`` (the file's mtime — an upper bound
on when the measurement happened) and carry ``"migrated": true`` so a
reader can tell a backfilled timestamp from a measured one; nothing in
the document is ever timestamped ``null``.  Entry lists are bounded
(``history_limit``, oldest dropped first) so the committed files stay
reviewable.

Files are written atomically (temp file + ``os.replace``) because the
benchmark suites may run under ``pytest -n``-style parallelism; last
writer wins per append, which is fine for measurements.

Recording is opt-in: ``record_*`` writes to an explicit ``path`` argument or
into ``REPRO_BENCH_DIR`` (created if missing) and does nothing when neither
is given, so a test run leaves the committed files alone.  To add an entry
to the committed trajectory, run the benchmark with ``REPRO_BENCH_DIR`` set
to the repository root.
"""

from __future__ import annotations

import datetime
import json
import os
import tempfile
from typing import Any, Dict, List, Optional

__all__ = [
    "BENCH_FIGURES_FILENAME",
    "BENCH_WIRE_FILENAME",
    "SCHEMA_VERSION",
    "benchmark_path",
    "latest",
    "load_benchmark",
    "record_benchmark",
    "record_figures_benchmark",
    "record_wire_benchmark",
    "validate_figures_document",
    "validate_recovery_section",
    "wire_benchmark_path",
]

SCHEMA_VERSION = 2

BENCH_WIRE_FILENAME = "BENCH_wire.json"
BENCH_FIGURES_FILENAME = "BENCH_figures.json"

#: Entries kept per section; the oldest fall off so committed files stay small.
DEFAULT_HISTORY_LIMIT = 20

#: Sections a figures document must carry, and what each entry must report.
FIGURE_SECTIONS = ("figure5", "figure6", "figure7", "figure8")
FIGURE_ENTRY_KEYS = ("configuration", "offered_rate", "achieved_goodput", "p50_ms", "p95_ms", "p99_ms")
RECOVERY_RUN_KEYS = (
    "label", "achieved_goodput", "p99_ms", "baseline_hit_rate",
    "recovery_seconds", "restored", "p99_spike_seconds",
    "consistency_violations", "degraded_lookups", "respawns",
)


def benchmark_path(filename: str, path: Optional[str] = None) -> str:
    """Resolve where a ``BENCH_*.json`` file lives.

    Precedence: explicit ``path`` argument, then the ``REPRO_BENCH_DIR``
    environment variable, then the repository root (three directories up
    from this file: ``src/repro/bench/`` -> repo).
    """
    if path is not None:
        return path
    env_dir = os.environ.get("REPRO_BENCH_DIR")
    if env_dir:
        return os.path.join(env_dir, filename)
    here = os.path.dirname(os.path.abspath(__file__))
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(repo_root, filename)


def wire_benchmark_path(path: Optional[str] = None) -> str:
    """Where ``BENCH_wire.json`` lives (see :func:`benchmark_path`)."""
    return benchmark_path(BENCH_WIRE_FILENAME, path)


def _migrate(loaded: Any) -> Dict[str, Any]:
    """Normalize any on-disk form to a v2 document (never raises)."""
    if not isinstance(loaded, dict):
        return {"schema_version": SCHEMA_VERSION, "sections": {}}
    if loaded.get("schema_version") == SCHEMA_VERSION and isinstance(
        loaded.get("sections"), dict
    ):
        return loaded
    # v1: a flat {section: data} mapping with no schema marker.  Wrap each
    # section's data as the first history entry; the timestamp is
    # backfilled by the caller (load_benchmark), which knows the file.
    sections: Dict[str, Any] = {}
    for section, data in loaded.items():
        if section == "schema_version":
            continue
        sections[section] = {"entries": [{"recorded_at": None, "data": data}]}
    return {"schema_version": SCHEMA_VERSION, "sections": sections}


def _backfill_timestamps(document: Dict[str, Any], recorded_at: str) -> Dict[str, Any]:
    """Replace any ``recorded_at: None`` with a backfilled timestamp.

    Entries migrated from v1 (and v2 files written before this fix) carry
    no measurement time.  They are stamped with ``recorded_at`` — the
    file's mtime, an upper bound on when the measurement happened — plus
    ``"migrated": true`` so a backfilled timestamp is never mistaken for
    a measured one.  The backfill persists on the next append.
    """
    for section_doc in document.get("sections", {}).values():
        if not isinstance(section_doc, dict):
            continue
        for entry in section_doc.get("entries", []):
            if isinstance(entry, dict) and entry.get("recorded_at") is None:
                entry["recorded_at"] = recorded_at
                entry["migrated"] = True
    return document


def load_benchmark(filename: str, path: Optional[str] = None) -> Dict[str, Any]:
    """Load a ``BENCH_*.json`` document, migrated to schema v2.

    A missing or unreadable file yields an empty v2 document — the
    benchmarks that append to it must not crash on first run.
    """
    target = benchmark_path(filename, path)
    try:
        with open(target, "r", encoding="utf-8") as handle:
            loaded = json.load(handle)
    except (OSError, ValueError):
        loaded = None
    try:
        mtime = os.path.getmtime(target)
        fallback = (
            datetime.datetime.fromtimestamp(mtime, datetime.timezone.utc)
            .replace(microsecond=0)
            .isoformat()
            .replace("+00:00", "Z")
        )
    except OSError:
        fallback = _utc_now_iso()
    return _backfill_timestamps(_migrate(loaded), fallback)


def latest(document: Dict[str, Any], section: str) -> Optional[Dict[str, Any]]:
    """The newest entry's ``data`` for ``section``, or ``None``."""
    entries = document.get("sections", {}).get(section, {}).get("entries", [])
    return entries[-1]["data"] if entries else None


def _utc_now_iso() -> str:
    return (
        datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0)
        .isoformat()
        .replace("+00:00", "Z")
    )


def _atomic_write(target: str, document: Dict[str, Any]) -> None:
    directory = os.path.dirname(target) or "."
    fd, tmp_path = tempfile.mkstemp(prefix=".bench_", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_path, target)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def record_benchmark(
    section: str,
    data: Dict[str, Any],
    *,
    filename: str,
    path: Optional[str] = None,
    history_limit: int = DEFAULT_HISTORY_LIMIT,
) -> Optional[str]:
    """Append a timestamped entry to ``section`` of a ``BENCH_*`` file.

    Read-migrate-append-write with an atomic replace; other sections and
    the section's prior entries are preserved (bounded by
    ``history_limit``, oldest dropped).  Returns the path written, or
    ``None`` when neither ``path`` nor ``REPRO_BENCH_DIR`` says where to
    record (nothing is written then).
    """
    if path is None and not os.environ.get("REPRO_BENCH_DIR"):
        return None
    target = benchmark_path(filename, path)
    os.makedirs(os.path.dirname(target) or ".", exist_ok=True)
    document = load_benchmark(filename, path)
    section_doc = document["sections"].setdefault(section, {"entries": []})
    entries: List[Dict[str, Any]] = section_doc.setdefault("entries", [])
    entries.append({"recorded_at": _utc_now_iso(), "data": data})
    if history_limit > 0 and len(entries) > history_limit:
        del entries[: len(entries) - history_limit]
    _atomic_write(target, document)
    return target


def record_wire_benchmark(
    section: str, data: Dict[str, Any], path: Optional[str] = None
) -> Optional[str]:
    """Append ``data`` to ``section`` of ``BENCH_wire.json`` (see above)."""
    return record_benchmark(section, data, filename=BENCH_WIRE_FILENAME, path=path)


def record_figures_benchmark(
    section: str, data: Dict[str, Any], path: Optional[str] = None
) -> Optional[str]:
    """Append ``data`` to ``section`` of ``BENCH_figures.json``."""
    return record_benchmark(section, data, filename=BENCH_FIGURES_FILENAME, path=path)


def validate_figures_document(document: Dict[str, Any]) -> List[str]:
    """Schema-check a figures document; returns problems (empty = valid).

    A valid document is schema v2 and carries every figure section
    (``figure5`` … ``figure8``); each section's newest entry holds a list
    of measured points under ``"points"``, and every point reports the
    configuration plus offered rate, achieved goodput, and p50/p95/p99
    (milliseconds) — the acceptance currency of the open-loop re-measurement.
    """
    problems: List[str] = []
    if document.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            f"schema_version is {document.get('schema_version')!r}, expected {SCHEMA_VERSION}"
        )
    sections = document.get("sections")
    if not isinstance(sections, dict):
        return problems + ["document has no sections mapping"]
    for section in FIGURE_SECTIONS:
        data = latest(document, section)
        if data is None:
            problems.append(f"missing section {section!r}")
            continue
        points = data.get("points")
        if not isinstance(points, list) or not points:
            problems.append(f"section {section!r}: no measured points")
            continue
        for position, point in enumerate(points):
            if not isinstance(point, dict):
                problems.append(f"section {section!r} point {position}: not an object")
                continue
            for key in FIGURE_ENTRY_KEYS:
                if key not in point:
                    problems.append(f"section {section!r} point {position}: missing {key!r}")
    return problems


def validate_recovery_section(document: Dict[str, Any]) -> List[str]:
    """Schema-check the chaos-recovery section; returns problems.

    A valid ``recovery`` section's newest entry describes one
    :func:`repro.bench.experiments.chaos_openloop` measurement: the kill
    configuration plus one run per scenario (supervisor off and on), each
    reporting goodput, tail latency, the pre-kill hit-rate baseline, the
    time to restore it, and the safety counters (consistency violations,
    degraded reads) the acceptance gates on.
    """
    problems: List[str] = []
    data = latest(document, "recovery")
    if data is None:
        return ["missing section 'recovery'"]
    for key in ("offered_rate", "kill_at_seconds", "bin_seconds", "transport"):
        if key not in data:
            problems.append(f"section 'recovery': missing {key!r}")
    runs = data.get("runs")
    if not isinstance(runs, list) or not runs:
        return problems + ["section 'recovery': no runs"]
    labels = set()
    for position, run in enumerate(runs):
        if not isinstance(run, dict):
            problems.append(f"section 'recovery' run {position}: not an object")
            continue
        labels.add(run.get("label"))
        for key in RECOVERY_RUN_KEYS:
            if key not in run:
                problems.append(
                    f"section 'recovery' run {position}: missing {key!r}"
                )
    for required in ("supervisor off", "supervisor on"):
        if required not in labels:
            problems.append(f"section 'recovery': missing run {required!r}")
    return problems
