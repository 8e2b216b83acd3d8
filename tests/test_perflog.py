"""Merge-and-append benchmark persistence (the BENCH_*.json trajectory).

The v1 format overwrote a section on every rerun, so the committed files
only ever held the latest measurement.  v2 keeps a timestamped entry list
per section; these tests pin the append semantics, the v1 migration, the
corrupt-file recovery, the history bound, and the figures-document schema
validator CI runs against the open-loop smoke output.
"""

from __future__ import annotations

import json
import os

from repro.bench import perflog
from repro.bench.perflog import (
    BENCH_FIGURES_FILENAME,
    SCHEMA_VERSION,
    latest,
    load_benchmark,
    record_benchmark,
    record_figures_benchmark,
    record_wire_benchmark,
    validate_figures_document,
    wire_benchmark_path,
)


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestRecordBenchmark:
    def test_first_write_creates_v2_document(self, tmp_path):
        target = str(tmp_path / "BENCH_test.json")
        record_benchmark("codec", {"speedup": 2.5}, filename="BENCH_test.json", path=target)
        document = read_json(target)
        assert document["schema_version"] == SCHEMA_VERSION
        entries = document["sections"]["codec"]["entries"]
        assert len(entries) == 1
        assert entries[0]["data"] == {"speedup": 2.5}
        assert entries[0]["recorded_at"].endswith("Z")

    def test_rerun_appends_instead_of_overwriting(self, tmp_path):
        target = str(tmp_path / "BENCH_test.json")
        record_benchmark("codec", {"speedup": 2.5}, filename="BENCH_test.json", path=target)
        record_benchmark("codec", {"speedup": 2.7}, filename="BENCH_test.json", path=target)
        entries = read_json(target)["sections"]["codec"]["entries"]
        assert [entry["data"]["speedup"] for entry in entries] == [2.5, 2.7]

    def test_sections_are_independent(self, tmp_path):
        target = str(tmp_path / "BENCH_test.json")
        record_benchmark("codec", {"a": 1}, filename="BENCH_test.json", path=target)
        record_benchmark("rpc", {"b": 2}, filename="BENCH_test.json", path=target)
        document = read_json(target)
        assert latest(document, "codec") == {"a": 1}
        assert latest(document, "rpc") == {"b": 2}

    def test_history_limit_drops_oldest(self, tmp_path):
        target = str(tmp_path / "BENCH_test.json")
        for run in range(5):
            record_benchmark(
                "codec",
                {"run": run},
                filename="BENCH_test.json",
                path=target,
                history_limit=3,
            )
        entries = read_json(target)["sections"]["codec"]["entries"]
        assert [entry["data"]["run"] for entry in entries] == [2, 3, 4]

    def test_v1_file_migrates_with_history_preserved(self, tmp_path):
        target = str(tmp_path / "BENCH_wire.json")
        with open(target, "w", encoding="utf-8") as handle:
            json.dump({"codec": {"speedup": 2.0}, "rpc": {"us": 150}}, handle)
        record_wire_benchmark("codec", {"speedup": 2.6}, path=target)
        document = read_json(target)
        assert document["schema_version"] == SCHEMA_VERSION
        codec_entries = document["sections"]["codec"]["entries"]
        # The v1 measurement became the first entry — backfilled with the
        # file's mtime (a v1 file cannot say when it was measured, the
        # filesystem can) and flagged migrated; the rerun appended rather
        # than erased it.
        assert codec_entries[0]["data"] == {"speedup": 2.0}
        assert codec_entries[0]["migrated"] is True
        assert codec_entries[0]["recorded_at"] is not None
        assert codec_entries[1]["data"] == {"speedup": 2.6}
        assert "migrated" not in codec_entries[1]
        assert latest(document, "rpc") == {"us": 150}

    def test_corrupt_file_starts_over(self, tmp_path):
        target = str(tmp_path / "BENCH_wire.json")
        with open(target, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        record_wire_benchmark("codec", {"speedup": 2.0}, path=target)
        assert latest(read_json(target), "codec") == {"speedup": 2.0}

    def test_load_missing_file_yields_empty_document(self, tmp_path):
        document = load_benchmark("BENCH_nope.json", path=str(tmp_path / "BENCH_nope.json"))
        assert document == {"schema_version": SCHEMA_VERSION, "sections": {}}
        assert latest(document, "anything") is None

    def test_env_var_redirects_output(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        assert wire_benchmark_path() == str(tmp_path / "BENCH_wire.json")
        path = record_figures_benchmark("figure5", {"points": []})
        assert path == str(tmp_path / BENCH_FIGURES_FILENAME)

    def test_env_var_directory_is_created(self, tmp_path, monkeypatch):
        target_dir = tmp_path / "not" / "there" / "yet"
        monkeypatch.setenv("REPRO_BENCH_DIR", str(target_dir))
        path = record_wire_benchmark("codec", {"speedup": 2.0})
        assert path == str(target_dir / "BENCH_wire.json")
        assert latest(read_json(path), "codec") == {"speedup": 2.0}

    def test_recording_is_a_no_op_when_nothing_says_where(self, monkeypatch):
        """A test run must leave the committed BENCH_*.json alone."""
        monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)
        committed = wire_benchmark_path()
        before = os.path.getmtime(committed) if os.path.exists(committed) else None
        assert record_wire_benchmark("codec", {"speedup": 2.0}) is None
        assert record_figures_benchmark("figure5", {"points": []}) is None
        after = os.path.getmtime(committed) if os.path.exists(committed) else None
        assert after == before

    def test_default_path_is_repo_root(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)
        path = wire_benchmark_path()
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(perflog.__file__)))
        repo_root = os.path.dirname(os.path.dirname(repo_root))
        assert path == os.path.join(repo_root, "BENCH_wire.json")


class TestValidateFiguresDocument:
    def _point(self, **overrides):
        point = {
            "configuration": "in-mem 512MB",
            "offered_rate": 1000.0,
            "achieved_goodput": 980.0,
            "p50_ms": 1.1,
            "p95_ms": 2.2,
            "p99_ms": 4.4,
        }
        point.update(overrides)
        return point

    def _valid_document(self, tmp_path):
        target = str(tmp_path / BENCH_FIGURES_FILENAME)
        for section in ("figure5", "figure6", "figure7", "figure8"):
            record_figures_benchmark(section, {"points": [self._point()]}, path=target)
        return load_benchmark(BENCH_FIGURES_FILENAME, path=target)

    def test_valid_document_passes(self, tmp_path):
        assert validate_figures_document(self._valid_document(tmp_path)) == []

    def test_missing_section_reported(self, tmp_path):
        document = self._valid_document(tmp_path)
        del document["sections"]["figure7"]
        problems = validate_figures_document(document)
        assert any("figure7" in problem for problem in problems)

    def test_missing_point_key_reported(self, tmp_path):
        target = str(tmp_path / BENCH_FIGURES_FILENAME)
        bad = self._point()
        del bad["p99_ms"]
        for section in ("figure5", "figure6", "figure7", "figure8"):
            record_figures_benchmark(section, {"points": [bad]}, path=target)
        problems = validate_figures_document(load_benchmark(BENCH_FIGURES_FILENAME, path=target))
        assert len(problems) == 4
        assert all("p99_ms" in problem for problem in problems)

    def test_empty_points_reported(self, tmp_path):
        target = str(tmp_path / BENCH_FIGURES_FILENAME)
        for section in ("figure5", "figure6", "figure7", "figure8"):
            record_figures_benchmark(section, {"points": []}, path=target)
        problems = validate_figures_document(load_benchmark(BENCH_FIGURES_FILENAME, path=target))
        assert all("no measured points" in problem for problem in problems)

    def test_wrong_schema_version_reported(self):
        problems = validate_figures_document({"schema_version": 1, "sections": {}})
        assert any("schema_version" in problem for problem in problems)

    def test_sectionless_document_reported(self):
        problems = validate_figures_document({"schema_version": SCHEMA_VERSION})
        assert problems == ["document has no sections mapping"]
