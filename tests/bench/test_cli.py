"""The benchmark registry and the ``repro bench`` CLI round trip."""

import json

import pytest

from repro.bench import (UnknownBenchmark, benchmark_names,
                         compare_entry, default_path, empty_trajectory,
                         load_trajectory, make_entry, run_benchmark,
                         write_trajectory)
from repro.cli import main

RUN_SMALL = ["--set", "duration=0.2", "--set", "seed=3",
             "--set", "repeats=1"]


class TestRegistry:
    def test_default_path_is_per_family(self):
        assert default_path("kernel.scale32") == "BENCH_kernel.json"
        assert default_path("chaos.storm") == "BENCH_chaos.json"
        assert default_path("mitigation.frontier") == \
            "BENCH_mitigation.json"

    def test_names_cover_registered_families(self):
        names = benchmark_names()
        assert "chaos.storm" in names
        assert "mitigation.frontier" in names
        assert "kernel.scale<N>" in names

    def test_unknown_benchmark_raises(self):
        with pytest.raises(UnknownBenchmark, match="kernel.scale"):
            run_benchmark("kernel.warp9")

    def test_kernel_scale_is_parameterised(self):
        entry = run_benchmark(
            "kernel.scale2", label="t",
            overrides={"duration": 0.2, "seed": 3, "repeats": 1})
        assert entry["schema"] == "repro.bench/1"
        assert entry["benchmark"] == "kernel.scale2"
        assert entry["config"]["tenants"] == 2
        assert "repeats" not in entry["config"]
        assert entry["primary_metric"] == "events_per_cpu_second"
        assert entry["metrics"]["events_per_cpu_second"] > 0
        assert len(entry["egress_signature"]) == 64
        assert "profile" not in entry

    def test_profiled_run_attaches_summary(self):
        entry = run_benchmark(
            "kernel.scale2", profile=True,
            overrides={"duration": 0.2, "seed": 3, "repeats": 1})
        profile = entry["profile"]
        assert profile["subsystems"]
        assert sum(profile["subsystems"].values()) == pytest.approx(
            profile["total_seconds"], rel=1e-6)


def run_cli(*argv):
    return main(list(argv))


class TestBenchRunCommand:
    def test_round_trip_appends_and_gates(self, tmp_path, capsys):
        path = str(tmp_path / "BENCH_kernel.json")
        assert run_cli("bench", "run", "--benchmark", "kernel.scale2",
                       *RUN_SMALL, "--output", path,
                       "--label", "first") == 0
        out = capsys.readouterr().out
        assert "events_per_cpu_second=" in out
        assert "PASS (vacuous)" in out
        assert run_cli("bench", "run", "--benchmark", "kernel.scale2",
                       *RUN_SMALL, "--output", path,
                       "--label", "second") == 0
        out = capsys.readouterr().out
        assert "gate: PASS" in out and "vacuous" not in out
        doc = json.loads(open(path, encoding="utf-8").read())
        assert doc["schema"] == "repro.bench.trajectory/1"
        assert [e["label"] for e in doc["entries"]] == \
            ["first", "second"]

    def test_no_write_leaves_no_file(self, tmp_path, capsys):
        path = tmp_path / "BENCH_kernel.json"
        run_cli("bench", "run", "--benchmark", "kernel.scale2",
                *RUN_SMALL, "--output", str(path), "--no-write")
        assert not path.exists()

    def test_gate_flag_fails_without_history(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("bench", "run", "--benchmark", "kernel.scale2",
                    *RUN_SMALL, "--output",
                    str(tmp_path / "b.json"), "--gate")
        assert err.value.code == 1
        assert "none found" in capsys.readouterr().out

    def test_profile_out_requires_profile(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="--profile"):
            run_cli("bench", "run", "--benchmark", "kernel.scale2",
                    *RUN_SMALL, "--output", str(tmp_path / "b.json"),
                    "--profile-out", str(tmp_path / "p.json"))

    def test_profile_out_writes_valid_speedscope(self, tmp_path, capsys):
        from repro.prof.export import validate_speedscope_file
        prof = tmp_path / "profile.speedscope.json"
        run_cli("bench", "run", "--benchmark", "kernel.scale2",
                *RUN_SMALL, "--output", str(tmp_path / "b.json"),
                "--profile", "--profile-out", str(prof))
        assert validate_speedscope_file(str(prof)) == []

    def test_json_mode_emits_entry_and_gate(self, tmp_path, capsys):
        run_cli("bench", "run", "--benchmark", "kernel.scale2",
                *RUN_SMALL, "--output", str(tmp_path / "b.json"),
                "--json")
        doc = json.loads(capsys.readouterr().out)
        assert doc["entry"]["benchmark"] == "kernel.scale2"
        assert doc["gate"]["ok"] is True

    def test_malformed_set_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="key=value"):
            run_cli("bench", "run", "--benchmark", "kernel.scale2",
                    "--set", "duration", "--output",
                    str(tmp_path / "b.json"))


def kernel_entry(eps, label, signature="a" * 64):
    return make_entry("kernel.scale32", {"tenants": 32},
                      {"events_per_cpu_second": eps},
                      primary_metric="events_per_cpu_second",
                      egress_signature=signature, label=label)


class TestBenchCompareCommand:
    def write(self, tmp_path, *entries):
        doc = empty_trajectory()
        doc["entries"].extend(entries)
        path = str(tmp_path / "BENCH_kernel.json")
        write_trajectory(path, doc)
        return path

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        path = self.write(tmp_path,
                          kernel_entry(100_000.0, "good"),
                          kernel_entry(70_000.0, "regressed"))
        with pytest.raises(SystemExit) as err:
            run_cli("bench", "compare", "--path", path)
        assert err.value.code == 1
        assert "regressed" in capsys.readouterr().out

    def test_healthy_trajectory_passes(self, tmp_path, capsys):
        path = self.write(tmp_path,
                          kernel_entry(100_000.0, "good"),
                          kernel_entry(95_000.0, "head"))
        assert run_cli("bench", "compare", "--path", path) == 0
        assert "gate: PASS" in capsys.readouterr().out

    def test_signature_change_exits_nonzero(self, tmp_path, capsys):
        path = self.write(
            tmp_path, kernel_entry(100_000.0, "good"),
            kernel_entry(100_000.0, "head", signature="b" * 64))
        with pytest.raises(SystemExit) as err:
            run_cli("bench", "compare", "--path", path)
        assert err.value.code == 1
        assert "signature changed" in capsys.readouterr().out

    def test_single_entry_is_vacuous_unless_gated(self, tmp_path,
                                                  capsys):
        path = self.write(tmp_path, kernel_entry(100_000.0, "only"))
        assert run_cli("bench", "compare", "--path", path) == 0
        with pytest.raises(SystemExit):
            run_cli("bench", "compare", "--path", path, "--gate")

    def test_benchmark_filter_selects_last_matching(self, tmp_path,
                                                    capsys):
        other = make_entry("kernel.scale8", {"tenants": 8},
                           {"events_per_cpu_second": 1.0},
                           primary_metric="events_per_cpu_second",
                           label="noise")
        path = self.write(tmp_path, kernel_entry(100_000.0, "good"),
                          kernel_entry(95_000.0, "head"), other)
        assert run_cli("bench", "compare", "--path", path,
                       "--benchmark", "kernel.scale32") == 0
        out = capsys.readouterr().out
        assert "[head]" in out

    def test_missing_trajectory_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no trajectory"):
            run_cli("bench", "compare", "--path",
                    str(tmp_path / "absent.json"))


class TestBenchHistoryAndMigrate:
    def test_history_lists_entries(self, tmp_path, capsys):
        doc = empty_trajectory()
        doc["entries"] = [kernel_entry(100_000.0, "good"),
                          kernel_entry(95_000.0, "head")]
        path = str(tmp_path / "t.json")
        write_trajectory(path, doc)
        run_cli("bench", "history", "--path", path)
        out = capsys.readouterr().out
        assert "2 entries" in out
        assert "good" in out and "head" in out

    def test_list_names_benchmarks(self, capsys):
        run_cli("bench", "list")
        out = capsys.readouterr().out
        assert "kernel.scale<N>" in out
        assert "BENCH_kernel.json" in out


@pytest.fixture
def stub_runs(monkeypatch):
    """Replace the chaos, mitigation and storage runners with instant
    fakes; returns the keyword arguments of every call."""
    import repro.analysis.chaos as chaos
    import repro.analysis.mitigation as mitigation
    import repro.analysis.storage as storage

    class EmptyReport:
        results = []
        wall_seconds = 0.0

    calls = []

    def fake_campaign(**kwargs):
        calls.append(kwargs)
        return chaos.summarize_chaos_campaign(EmptyReport())

    def fake_frontier(**kwargs):
        calls.append(kwargs)
        return mitigation.summarize_frontier(EmptyReport())

    def fake_cell(**kwargs):
        calls.append(kwargs)
        return dict(kwargs, ok=True)

    monkeypatch.setattr(chaos, "run_chaos_campaign", fake_campaign)
    monkeypatch.setattr(mitigation, "mitigation_frontier", fake_frontier)
    monkeypatch.setattr(storage, "run_storage_repair_cell", fake_cell)
    return calls


class TestEntryConfig:
    """A family's ``--output`` entries and its registry entries share
    one gate ``config``, built from every workload parameter."""

    @pytest.mark.parametrize("argv, bench_id, overrides", [
        (["chaos", "campaign", "--seeds", "3", "--seed-base", "57",
          "--scenarios", "single,multi", "--jobs", "2"],
         "chaos.storm",
         {"seeds": 3, "seed_base": 57, "scenarios": "single,multi",
          "duration": 6.0, "jobs": 2}),
        (["mitigate", "--policies", "stopwatch,none", "--attacks",
          "probe,theft", "--duration", "3.0", "--jobs", "2"],
         "mitigation.frontier",
         {"policies": "stopwatch,none", "attacks": "probe,theft",
          "jobs": 2}),
        (["storage", "--seed", "7", "--crash-at", "1.2", "--json"],
         "storage.repair", {"seed": 7, "crash_at": 1.2}),
    ])
    def test_cli_output_entry_matches_registry_config(
            self, stub_runs, tmp_path, capsys, argv, bench_id,
            overrides):
        path = str(tmp_path / "BENCH.json")
        assert run_cli(*argv, "--output", path, "--label", "ci") == 0
        (entry,) = load_trajectory(path)["entries"]
        registry = run_benchmark(bench_id, overrides=overrides)
        assert entry["benchmark"] == bench_id
        assert entry["config"] == registry["config"]
        # both paths derived the same seed list from seed_base
        assert stub_runs[0].get("seeds") == stub_runs[1].get("seeds")

    @pytest.mark.parametrize("bench_id, override", [
        ("chaos.storm", {"seed_base": 57}),
        ("mitigation.frontier", {"seed_base": 57}),
        ("mitigation.frontier", {"bins": 20}),
        ("mitigation.frontier", {"workload": "echo"}),
    ])
    def test_workload_parameters_split_comparability(
            self, stub_runs, bench_id, override):
        history = empty_trajectory()
        history["entries"].append(run_benchmark(bench_id))
        gate = compare_entry(run_benchmark(bench_id, overrides=override),
                             history)
        assert gate["comparable"] == 0

    def test_jobs_does_not_split_comparability(self, stub_runs):
        history = empty_trajectory()
        history["entries"].append(run_benchmark("chaos.storm"))
        gate = compare_entry(
            run_benchmark("chaos.storm", overrides={"jobs": 2}), history)
        assert gate["comparable"] == 1
