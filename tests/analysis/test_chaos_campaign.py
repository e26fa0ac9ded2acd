"""Randomized chaos campaign: cells, sweep plumbing, bench artifact."""

import json

import pytest

from repro.analysis.chaos import (
    CELL_SCENARIOS,
    cell_storm,
    chaos_entry,
    first_divergence,
    replay_divergence,
    run_chaos_cell,
    run_chaos_campaign,
    summarize_chaos_campaign,
)
from repro.bench.schema import append_entry

# small but real: one seed, one scenario, determinism replay on
CELL_KWARGS = {"seed": 13, "scenario": "single", "duration": 4.0,
               "rate": 1.0}


class TestChaosCell:
    def test_cell_passes_invariants_and_determinism(self):
        result = run_chaos_cell(**CELL_KWARGS)
        assert result["ok"]
        assert result["violations"] == []
        assert result["deterministic"] is True
        assert result["faults_injected"] >= 1
        assert result["sent"] > 0 and result["replies"] > 0

    def test_too_short_cell_rejected(self):
        with pytest.raises(ValueError):
            run_chaos_cell(seed=13, duration=1.0)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_chaos_cell(seed=13, scenario="bogus", duration=4.0)

    def test_storm_is_seed_deterministic(self):
        import repro.analysis.chaos as chaos
        from repro.sim import Simulator, Trace

        def storm(seed):
            sim = Simulator(seed=seed, trace=Trace(enabled=False))
            cloud, *_ = chaos._build_cell(sim, "single", 2.4)
            schedule = cell_storm(cloud, seed=seed, duration=2.4,
                                  rate=1.0, scenario="single")
            return [(e.time, e.fault, e.target) for e in schedule.events]

        assert storm(99) == storm(99)
        assert storm(99) != storm(100)


class TestDivergence:
    A = [(0.1, "fault.crash", ()), (0.2, "heal.complete", ())]

    def test_identical_signatures(self):
        assert first_divergence(self.A, list(self.A)) is None
        assert replay_divergence(self.A, list(self.A)) is None

    def test_first_differing_record(self):
        other = [self.A[0], (0.3, "heal.complete", ())]
        assert first_divergence(self.A, other) == (1, self.A[1], other[1])
        assert replay_divergence(self.A, other).startswith("record 1: ")

    def test_a_side_that_ran_out_reads_none(self):
        assert first_divergence(self.A, self.A[:1]) == (1, self.A[1], None)
        assert first_divergence(self.A[:1], self.A) == (1, None, self.A[1])
        assert replay_divergence(self.A, self.A[:1]) == \
            "lengths differ: 2 vs 1"


class TestCampaign:
    def test_inline_two_cell_sweep(self):
        # seeds chosen so their storms heal inside the shortened 4.0s
        # cell; the production default (6.0s) fits any storm tail
        summary = run_chaos_campaign(
            seeds=[13, 15], scenarios=("single",), duration=4.0,
            rate=1.0, jobs=1, check_determinism=False)
        assert summary["cells"] == 2
        assert summary["ok"]
        assert summary["violations"] == []
        assert summary["nondeterministic_cells"] == 0
        assert len(summary["results"]) == 2
        assert summary["wall_seconds"] >= 0.0

    def test_unknown_scenario_fails_the_campaign_not_the_process(self):
        summary = run_chaos_campaign(
            seeds=[13], scenarios=("bogus",), duration=4.0,
            check_determinism=False)
        assert not summary["ok"]
        assert summary["violations"]

    def test_all_scenarios_are_registered(self):
        assert set(CELL_SCENARIOS) == {"single", "multi", "sharded"}


class TestSummary:
    def fake_report(self):
        class Cell:
            def __init__(self, value):
                self.ok = True
                self.value = value
                self.status = "done"
                self.error = None
                self.label = "chaos_cell"

        rows = [
            {"seed": 1, "scenario": "single", "violations": [],
             "evacuations": 2, "rejoins": 0, "readmits": 1,
             "heal_failures": 0, "faults_injected": 3, "noops": 0,
             "recovery_times": [0.5, 0.9], "sent": 10, "replies": 10,
             "client_retries": 0, "deterministic": True},
            {"seed": 2, "scenario": "single",
             "violations": ["[liveness] starved"],
             "evacuations": 0, "rejoins": 1, "readmits": 0,
             "heal_failures": 1, "faults_injected": 2, "noops": 1,
             "recovery_times": [0.7], "sent": 8, "replies": 4,
             "client_retries": 2, "deterministic": True},
        ]

        class Report:
            results = [Cell(row) for row in rows]
            wall_seconds = 1.5

        return Report()

    def test_aggregation(self):
        summary = summarize_chaos_campaign(self.fake_report())
        assert summary["cells"] == 2
        assert not summary["ok"]
        assert summary["violations"] == \
            ["seed=2 single: [liveness] starved"]
        assert summary["evacuations"] == 2
        assert summary["rejoins"] == 1
        assert summary["readmits"] == 1
        assert summary["heal_failures"] == 1
        assert summary["recoveries"] == 3
        assert summary["recovery_p50"] == 0.7
        assert summary["sent"] == 18 and summary["replies"] == 14

    def test_bench_artifact_round_trip(self, tmp_path):
        summary = summarize_chaos_campaign(self.fake_report())
        path = str(tmp_path / "BENCH_chaos.json")
        params = {"seeds": 2, "seed_base": 101, "scenarios": ("single",),
                  "duration": 6.0, "rate": 1.2, "jobs": 2}
        append_entry(path, chaos_entry(summary, params, label="head"))
        first = json.loads(open(path, encoding="utf-8").read())
        assert first["schema"] == "repro.bench.trajectory/1"
        assert [e["label"] for e in first["entries"]] == ["head"]
        head = first["entries"][0]
        assert head["benchmark"] == "chaos.storm"
        assert head["primary_metric"] == "replies"
        assert head["config"] == {"seeds": 2, "seed_base": 101,
                                  "scenarios": ["single"],
                                  "duration": 6.0, "rate": 1.2}
        assert head["metrics"]["violations"] == 1
        assert head["metrics"]["replies"] == 14
        assert "results" not in head   # per-cell bulk stays out
        # append-only: a second write adds an entry, rewrites nothing
        append_entry(path, chaos_entry(summary, params, label="next"))
        second = json.loads(open(path, encoding="utf-8").read())
        assert [e["label"] for e in second["entries"]] == \
            ["head", "next"]
