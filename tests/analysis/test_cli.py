"""Tests for the command-line interface."""

import argparse
import json
from types import SimpleNamespace

import pytest

from repro.analysis.experiments import RENDERERS, RUNNERS
from repro.cli import FIGURES, build_parser, main

#: the arguments each subcommand needs to parse; all others take none
REQUIRED_ARGS = {"bench": ["list"], "campaign": ["status", "spec.toml"]}


def _subcommands(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestParser:
    def test_all_subcommands_registered(self, capsys):
        parser = build_parser()
        commands = _subcommands(parser)
        for command in commands:
            args = parser.parse_args(
                [command] + REQUIRED_ARGS.get(command, []))
            assert callable(args.fn)
        assert main(["list"]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert listed[0].split(": ")[1].split() == \
            [c for c in commands if c != "list"]
        assert listed[1].split(": ")[1].split() == sorted(RUNNERS)

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_size_list_parsing(self):
        args = build_parser().parse_args(["fig5", "--sizes", "10,20"])
        assert args.sizes == "10,20"


class TestExecution:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        assert "fig5" in capsys.readouterr().out

    def test_fig1_prints_table(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "w/o StopWatch" in out
        assert "0.99" in out

    def test_placement_prints_table(self, capsys):
        assert main(["placement"]) == 0
        assert "StopWatch VMs" in capsys.readouterr().out

    def test_fig8_prints_tables(self, capsys):
        assert main(["fig8"]) == 0
        out = capsys.readouterr().out
        assert "noise" in out
        assert "Protection-cost scaling" in out

    def test_fig5_small_run(self, capsys):
        assert main(["fig5", "--sizes", "5000"]) == 0
        assert "HTTP" in capsys.readouterr().out

    def test_trace_command_summarizes_and_exports(self, capsys, tmp_path):
        out = tmp_path / "run.jsonl"
        assert main(["trace", "--duration", "0.3", "--categories",
                     "vmm.deliver,ingress", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "vmm.deliver.net" in text
        assert "ingress.replicate" in text
        assert "vmm.emit" not in text          # filtered out
        assert out.exists() and out.read_text().count("\n") > 0

    def test_metrics_command_prints_percentiles(self, capsys):
        assert main(["metrics", "--duration", "0.3", "--profile",
                     "--top", "3"]) == 0
        text = capsys.readouterr().out
        assert "events_per_second" in text
        assert "delay.net" in text
        assert "p95" in text
        assert "Callback wall-time profile" in text


#: canned runner results, just enough for each figure's renderer
CANNED = {
    "fig1_observation_curves": [(0.9, 10, 50)],
    "fig4_empirical_detection": {"curve_baseline": [(0.9, 10)],
                                 "curve_stopwatch": [(0.9, 50)]},
    "fig5_file_download": [(1000, 0.01, 0.02, 0.01, 0.015)],
    "fig6_nfs": [(50, 0.01, 0.02, 2.0, 3.0, 2.5)],
    "fig7_parsec": [("ferret", 0.2, 0.3, 31, 0.171, 0.35, 31)],
    "fig8_noise_comparison": {
        "table": [SimpleNamespace(
            confidence=0.9, observations=10, noise_bound=1.0,
            stopwatch_delay_baseline=0.5, noise_delay_baseline=0.6)],
        "curve": [SimpleNamespace(target_observations=100,
                                  noise_bound=1.0, noise_delay=0.5,
                                  stopwatch_delay=0.4)]},
    "placement_utilization": [(9, 4, 12, 9, 12, 12.0)],
    "delta_offset_translation": {"net_delays": [0.01],
                                 "disk_delays": [0.012]},
    "covert_channel_ber": {"baseline": SimpleNamespace(bit_error_rate=0.0),
                           "stopwatch": SimpleNamespace(
                               bit_error_rate=0.5)},
    "collaborating_attackers": [SimpleNamespace(
        replicas=3, collaborator=False, observations_needed=lambda: 99)],
}

#: (argv, the runner keywords it must produce, the first printed line)
FIGURE_CASES = {
    "fig1": (["fig1"], {"victim_rate": 0.5},
             "Fig. 1: observations to detect victim (lambda'=0.5)"),
    "fig4": (["fig4", "--duration", "2"], {"duration": 2.0},
             "Fig. 4: empirical coresidence detection"),
    "fig5": (["fig5", "--sizes", "10,20"], {"sizes": [10, 20]},
             "Fig. 5: file-retrieval latency (ms)"),
    "fig6": (["fig6"], {"rates": [25, 50, 100, 200, 400], "duration": 8.0},
             "Fig. 6: NFS / nhfsstone"),
    "fig7": (["fig7", "--kernels", "ferret,dedup"],
             {"kernels": ["ferret", "dedup"], "scale": 1.0},
             "Fig. 7: PARSEC kernels"),
    "fig8": (["fig8", "--victim-rate", "0.25"], {"victim_rate": 0.25},
             "Fig. 8: StopWatch vs uniform noise (lambda'=0.25)"),
    "placement": (["placement"], {}, "Sec. VIII: placement utilisation"),
    "offsets": (["offsets"], {"duration": 10.0},
                "Sec. VII-A: real-time translation of the virtual offsets"),
    "covert": (["covert", "--bits", "4"], {"bits": 4},
               "unmodified Xen: BER = 0.00"),
    "collab": (["collab"], {"duration": 15.0},
               "Sec. IX: collaborating attackers"),
}


class TestFigureCommands:
    def test_every_figure_has_a_case_and_a_renderer(self):
        assert set(FIGURE_CASES) == set(FIGURES)
        for runner, _, _ in FIGURES.values():
            assert runner in RUNNERS and runner in RENDERERS

    @pytest.mark.parametrize("command", sorted(FIGURE_CASES))
    def test_header_line_and_runner_keywords(self, command, monkeypatch,
                                             capsys):
        argv, expected_kwargs, header = FIGURE_CASES[command]
        runner = FIGURES[command][0]
        calls = []

        def fake(**kwargs):
            calls.append(kwargs)
            return CANNED[runner]

        monkeypatch.setitem(RUNNERS, runner, fake)
        assert main(argv) == 0
        assert calls == [expected_kwargs]
        assert capsys.readouterr().out.splitlines()[0] == header

    def test_fig7_without_kernels_runs_all(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setitem(RUNNERS, "fig7_parsec",
                            lambda **kw: calls.append(kw) or [])
        main(["fig7", "--kernels", ""])
        assert calls[0]["kernels"] is None


class TestWorkloadsCommand:
    def test_json_output_parses(self, capsys):
        assert main(["workloads", "--json"]) == 0
        specs = json.loads(capsys.readouterr().out)
        assert "echo" in {spec["name"] for spec in specs}


class TestFlagChecks:
    """Flag combinations that can never work are rejected by the parser,
    before any simulation runs."""

    @staticmethod
    def _forbid(monkeypatch, module, name):
        def runner(*args, **kwargs):
            raise AssertionError(f"{name} ran despite invalid flags")
        monkeypatch.setattr(module, name, runner)

    def test_spans_validate_requires_perfetto(self, monkeypatch, capsys):
        import repro.analysis.flows as flows
        self._forbid(monkeypatch, flows, "run_flow_workload")
        with pytest.raises(SystemExit) as err:
            main(["spans", "--validate"])
        assert err.value.code == 2
        assert "--validate requires --perfetto" in capsys.readouterr().err

    def test_scale_profile_out_requires_profile(self, monkeypatch, capsys):
        import repro.analysis.scale as scale
        self._forbid(monkeypatch, scale, "scale_sweep")
        with pytest.raises(SystemExit) as err:
            main(["scale", "--tenants", "1", "--profile-out", "p.json"])
        assert err.value.code == 2
        assert "--profile-out requires --profile" in \
            capsys.readouterr().err

    def test_chaos_campaign_profile_out_requires_profile(self, monkeypatch,
                                                         capsys):
        import repro.analysis.chaos as chaos
        self._forbid(monkeypatch, chaos, "run_chaos_campaign")
        with pytest.raises(SystemExit) as err:
            main(["chaos", "campaign", "--seeds", "1",
                  "--profile-out", "p.json"])
        assert err.value.code == 2
        assert "--profile-out requires --profile" in \
            capsys.readouterr().err

    def test_scripted_chaos_rejects_campaign_flags(self, monkeypatch,
                                                   tmp_path):
        import repro.analysis.chaos as chaos
        self._forbid(monkeypatch, chaos, "run_chaos_experiment")
        out = tmp_path / "X.json"
        with pytest.raises(SystemExit) as err:
            main(["chaos", "--duration", "1.2", "--output", str(out),
                  "--json", "--seeds", "3"])
        assert err.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--seed", "3"], ["--duration", "1.5"], ["--crash-at", "1.5"],
        ["--restart-at", "2.5"], ["--replica", "1"],
        ["--check-determinism"]])
    def test_campaign_refuses_scripted_flags(self, monkeypatch, capsys,
                                             flags):
        import repro.analysis.chaos as chaos
        self._forbid(monkeypatch, chaos, "run_chaos_campaign")
        with pytest.raises(SystemExit) as err:
            main(["chaos", *flags, "campaign", "--seeds", "1"])
        assert err.value.code == 2
        assert f"{flags[0]} belongs to the scripted 'repro chaos' run" \
            in capsys.readouterr().err

    def test_chaos_modes_keep_their_duration_defaults(self):
        parser = build_parser()
        assert parser.parse_args(["chaos"]).duration == 3.0
        assert parser.parse_args(["chaos", "campaign"]).duration == 6.0
