"""Tests for the command-line interface."""

import pytest

from repro.cli import COMMANDS, build_parser, main
from repro.harness.report import ScenarioReport, check

#: Every scenario subcommand at a size that runs in well under a second
#: (the gateway's greedy tenant moves 16 KB through a 256 KB/s bucket).
TINY = {
    "scrub": ["--buckets", "6", "--providers", "3", "--writes", "2"],
    "metadata": ["--blocks", "16", "--latency", "0.004", "--reads", "1"],
    "append": [
        "--writers", "8", "--rounds", "1", "--blocks", "1", "--vman-latency", "0.01",
    ],
    "zerocopy": ["--blocks", "4", "--block-size", "4k"],
    "gateway": [
        "--tenants", "3", "--clients", "8", "--ops", "1", "--payload", "2k",
        "--greedy-kbps", "256", "--workers", "4",
    ],
}


class TestParser:
    def test_figure_choices(self):
        parser = build_parser()
        args = parser.parse_args(["figure", "3a"])
        assert args.which == "3a" and not args.full

    def test_full_flag(self):
        args = build_parser().parse_args(["figure", "4", "--full", "--seed", "7"])
        assert args.full and args.seed == 7

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "9z"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_calibration_dump(self, capsys):
        assert main(["calibration"]) == 0
        out = capsys.readouterr().out
        assert "nic_rate" in out and "client_stream_cap" in out

    def test_figure_3a_quick(self, capsys):
        assert main(["figure", "3a", "--no-chart"]) == 0
        out = capsys.readouterr().out
        assert "=== Figure 3a" in out
        assert "BSFS" in out and "HDFS" in out
        assert "quick scale" in out

    def test_figure_5_with_chart(self, capsys):
        assert main(["figure", "5"]) == 0
        out = capsys.readouterr().out
        assert "o=BSFS" in out

    def test_figure_output_is_reproducible(self, capsys):
        # The simulator runs on a virtual clock and the CLI prints no
        # timing, so two runs print the same bytes.
        assert main(["figure", "all", "--no-chart"]) == 0
        first = capsys.readouterr().out
        assert main(["figure", "all", "--no-chart"]) == 0
        assert capsys.readouterr().out == first
        assert "wall time" not in first and "[quick scale]" in first


class TestScenarioCommands:
    def test_every_scenario_subcommand_has_a_tiny_run(self):
        assert set(TINY) == set(COMMANDS) - {"figure", "calibration"}

    @pytest.mark.parametrize("command", sorted(TINY))
    def test_scenario_passes_at_tiny_size(self, command, capsys):
        code = main([command, *TINY[command]])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "\nOK: " in out

    # The append demo is left out: how writers fall into commit batches
    # depends on thread interleaving.
    @pytest.mark.parametrize("command", sorted(set(TINY) - {"append"}))
    def test_scenario_output_is_reproducible(self, command, capsys):
        # Demos print counts, never a timing: a rerun prints the same bytes.
        assert main([command, *TINY[command]]) == 0
        first = capsys.readouterr().out
        assert main([command, *TINY[command]]) == 0
        assert capsys.readouterr().out == first

    def test_paced_scrub_prints_the_unpaced_report(self, capsys):
        # Pacing spreads the pass out in time; it heals the same things.
        assert main(["scrub", *TINY["scrub"]]) == 0
        unpaced = capsys.readouterr().out
        assert main(["scrub", *TINY["scrub"], "--ops-per-sec", "5000"]) == 0
        assert capsys.readouterr().out == unpaced

    def test_failed_check_is_reported_and_exits_nonzero(self, monkeypatch, capsys):
        def miscounted(**_):
            return ScenarioReport(
                title="stub",
                header=("counter", "value"),
                rows=(("round trips", 3),),
                measurements={},
                checks=(check("round trips", 3, "<=", 2),),
                summary="never printed",
            )

        _, help_, arguments = COMMANDS["append"]
        monkeypatch.setitem(COMMANDS, "append", (miscounted, help_, arguments))
        assert main(["append"]) == 1
        assert "\nFAIL: round trips: 3 is not <= 2" in capsys.readouterr().out
