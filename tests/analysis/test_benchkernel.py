"""Tests for the kernel benchmark harness and its trajectory entry."""

import json

import pytest

from repro.analysis.benchkernel import kernel_entry, run_kernel_bench
from repro.bench.schema import (TRAJECTORY_SCHEMA, append_entry,
                                load_trajectory)


def small_bench(**kwargs):
    params = dict(tenants=2, duration=0.2, seed=3, repeats=2)
    params.update(kwargs)
    return run_kernel_bench(**params)


class TestRunKernelBench:
    def test_small_cell_reports_all_fields(self):
        result = small_bench()
        assert result["benchmark"] == "kernel.scale2"
        assert result["deterministic"] is True
        assert result["events_per_cpu_second"] > 0
        assert result["events_fired"] > 0
        assert result["heap_high_water"] > 0
        assert len(result["runs"]) == 2
        # warm repeats are the same simulation: same DAG, same signature
        first, second = result["runs"]
        assert first["events_fired"] == second["events_fired"]
        assert first["egress_signature"] == second["egress_signature"]
        assert "repeats" not in result["config"]
        assert "profile" not in result

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError):
            run_kernel_bench(repeats=0)

    def test_profiled_repeat_attaches_summary_same_signature(self):
        result = small_bench(repeats=1, profile=True)
        profile = result["profile"]
        assert profile["events"] > 0
        assert profile["subsystems"]
        # total attribution: subsystem seconds sum to the cell total
        assert sum(profile["subsystems"].values()) == pytest.approx(
            profile["total_seconds"], rel=1e-6)
        # run_kernel_bench itself asserts signature equality; reaching
        # here means the profiled repeat was byte-identical
        assert result["deterministic"] is True


class TestKernelEntry:
    def test_entry_shape(self):
        result = small_bench()
        made = kernel_entry(result, label="v1")
        assert made["benchmark"] == "kernel.scale2"
        assert made["label"] == "v1"
        assert made["config"] == result["config"]
        assert made["primary_metric"] == "events_per_cpu_second"
        assert made["egress_signature"] == result["egress_signature"]
        assert made["metrics"]["events_fired"] == result["events_fired"]
        assert "profile" not in made

    def test_append_only_trajectory(self, tmp_path):
        path = str(tmp_path / "BENCH_kernel.json")
        first = small_bench()
        append_entry(path, kernel_entry(first, label="v1"))
        loaded = load_trajectory(path)
        assert loaded["schema"] == TRAJECTORY_SCHEMA
        assert [e["label"] for e in loaded["entries"]] == ["v1"]

        second = small_bench()
        append_entry(path, kernel_entry(second, label="v2"))
        loaded = load_trajectory(path)
        assert [e["label"] for e in loaded["entries"]] == ["v1", "v2"]
        assert loaded["entries"][0]["metrics"]["events_per_cpu_second"] \
            == first["events_per_cpu_second"]
        # the file is well-formed JSON ending in a newline (atomic writer)
        raw = open(path, encoding="utf-8").read()
        assert raw.endswith("\n")
        json.loads(raw)
