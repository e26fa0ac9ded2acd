"""The bench trajectory schema: entries, IO, the gate."""

import json

import pytest

from repro.bench.schema import (DEFAULT_TOLERANCE, ENTRY_SCHEMA,
                                TRAJECTORY_SCHEMA, BenchSchemaError,
                                append_entry, best_entry,
                                comparable_entries, compare_entry,
                                empty_trajectory, history_rows,
                                load_trajectory, make_entry,
                                validate_entry, write_trajectory)

CONFIG = {"tenants": 32, "duration": 2.0}


def entry(eps=100_000.0, config=CONFIG, signature=None, label="head",
          benchmark="kernel.scale32"):
    return make_entry(benchmark, dict(config) if config else None,
                      {"events_per_cpu_second": eps},
                      primary_metric="events_per_cpu_second",
                      egress_signature=signature, label=label)


class TestEntry:
    def test_make_entry_stamps_schema_and_validates(self):
        made = entry()
        assert made["schema"] == ENTRY_SCHEMA
        assert validate_entry(made) == []
        assert made["recorded"]

    def test_primary_metric_must_exist(self):
        with pytest.raises(BenchSchemaError):
            make_entry("b", None, {"x": 1.0}, primary_metric="missing")

    def test_non_numeric_metrics_rejected(self):
        with pytest.raises(BenchSchemaError):
            make_entry("b", None, {"x": "fast"})

    def test_none_metrics_allowed(self):
        made = make_entry("b", None, {"x": 1.0, "p50": None})
        assert validate_entry(made) == []

    def test_empty_metrics_rejected(self):
        with pytest.raises(BenchSchemaError):
            make_entry("b", None, {})


#: a pre-trajectory single-snapshot ``BENCH_kernel.json`` document
LEGACY_KERNEL_SNAPSHOT = {
    "benchmark": "kernel.scale32", "label": "calendar-queue",
    "config": {"tenants": 32},
    "events_per_cpu_second": 115_118.9, "events_fired": 230_000,
    "repeats": 2, "egress_signature": "856f" + "0" * 60,
    "deterministic": True,
    "trajectory": [{"label": "three-tier",
                    "events_per_cpu_second": 57_988.0}],
}


class TestMigration:
    """Only trajectory documents load; anything else is refused."""

    def test_unrecognised_snapshot_is_an_error(self, tmp_path):
        path = tmp_path / "BENCH_mystery.json"
        path.write_text(json.dumps({"mystery": True}))
        with pytest.raises(BenchSchemaError, match="BENCH_mystery"):
            load_trajectory(str(path))

    def test_committed_artifact_is_loadable(self):
        # the repo's own BENCH_kernel.json must always load
        from pathlib import Path
        path = Path(__file__).resolve().parents[2] / "BENCH_kernel.json"
        trajectory = load_trajectory(str(path))
        assert trajectory["schema"] == TRAJECTORY_SCHEMA
        assert trajectory["entries"]


class TestIO:
    def test_append_creates_migrates_and_appends(self, tmp_path):
        path = str(tmp_path / "BENCH_kernel.json")
        append_entry(path, entry(label="a"))
        append_entry(path, entry(label="b", eps=110_000.0))
        loaded = load_trajectory(path)
        assert [e["label"] for e in loaded["entries"]] == ["a", "b"]
        raw = open(path, encoding="utf-8").read()
        assert raw.endswith("\n")
        json.loads(raw)

    def test_snapshot_file_is_refused_and_left_untouched(self, tmp_path):
        path = tmp_path / "BENCH_kernel.json"
        raw = json.dumps(LEGACY_KERNEL_SNAPSHOT)
        path.write_text(raw)
        with pytest.raises(BenchSchemaError, match="BENCH_kernel"):
            load_trajectory(str(path))
        with pytest.raises(BenchSchemaError, match="BENCH_kernel"):
            append_entry(str(path), entry(label="new"))
        assert path.read_text() == raw

    def test_append_rejects_invalid_entry(self, tmp_path):
        with pytest.raises(BenchSchemaError):
            append_entry(str(tmp_path / "x.json"), {"schema": "wrong"})

    def test_load_missing_is_none(self, tmp_path):
        assert load_trajectory(str(tmp_path / "absent.json")) is None

    def test_load_garbage_is_an_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(BenchSchemaError):
            load_trajectory(str(path))


class TestGate:
    def trajectory(self, *entries):
        doc = empty_trajectory()
        doc["entries"].extend(entries)
        return doc

    def test_vacuous_pass_without_history(self):
        gate = compare_entry(entry(), self.trajectory())
        assert gate["ok"] and not gate["checked"]

    def test_within_tolerance_passes(self):
        gate = compare_entry(entry(eps=85_000.0),
                             self.trajectory(entry(label="base")))
        assert gate["ok"] and gate["checked"]

    def test_regression_beyond_tolerance_fails(self):
        gate = compare_entry(entry(eps=79_000.0),
                             self.trajectory(entry(label="base")))
        assert not gate["ok"]
        assert "regressed" in gate["problems"][0]

    def test_gate_uses_best_prior_not_latest(self):
        history = self.trajectory(entry(eps=120_000.0, label="fast"),
                                  entry(eps=60_000.0, label="slow"))
        gate = compare_entry(entry(eps=90_000.0), history)
        assert not gate["ok"]   # 90k < 0.8 * 120k

    def test_config_mismatch_is_not_comparable(self):
        other = entry(config={"tenants": 8, "duration": 2.0})
        gate = compare_entry(other, self.trajectory(entry()))
        assert gate["comparable"] == 0
        assert gate["ok"] and not gate["checked"]

    def test_signature_change_fails(self):
        history = self.trajectory(entry(signature="a" * 64))
        gate = compare_entry(entry(signature="b" * 64), history)
        assert not gate["ok"]
        assert "signature" in gate["problems"][0]

    def test_signature_match_passes(self):
        history = self.trajectory(entry(signature="a" * 64))
        gate = compare_entry(entry(signature="a" * 64), history)
        assert gate["ok"] and gate["checked"]

    def test_lower_is_better_direction(self):
        def latency(value, label="head"):
            return make_entry("x", None, {"p95": value},
                              primary_metric="p95",
                              higher_is_better=False, label=label)
        history = self.trajectory(latency(1.0, label="base"))
        assert compare_entry(latency(1.1), history)["ok"]
        assert not compare_entry(latency(1.5), history)["ok"]

    def test_best_entry_and_comparable_helpers(self):
        fast = entry(eps=120_000.0, label="fast")
        slow = entry(eps=60_000.0, label="slow")
        history = self.trajectory(fast, slow)
        candidate = entry(eps=100_000.0)
        priors = comparable_entries(history, candidate)
        assert len(priors) == 2
        assert best_entry(priors, "events_per_cpu_second") is fast

    def test_default_tolerance_is_twenty_percent(self):
        assert DEFAULT_TOLERANCE == 0.20


class TestHistoryRows:
    def test_rows_filter_and_format(self, tmp_path):
        doc = empty_trajectory()
        doc["entries"] = [entry(label="a"),
                          entry(label="b", benchmark="kernel.scale8")]
        rows = history_rows(doc)
        assert len(rows) == 2
        rows = history_rows(doc, benchmark="kernel.scale8")
        assert len(rows) == 1
        assert rows[0][0] == "b"
        write_trajectory(str(tmp_path / "t.json"), doc)
        assert load_trajectory(str(tmp_path / "t.json"))["entries"]
