"""Tests for the CLI front door and the sequence-diagram renderer."""

import pytest

from repro.cli import build_parser, main
from repro.harness.diagram import render_sequence_diagram
from repro.harness.traces import TraceRecorder, figure3_scenario


class TestDiagram:
    def test_renders_columns(self):
        recorder = TraceRecorder()
        hook = recorder.dispatcher.controller_hook
        hook("ll", 10, 0, 0x100, {"value": 1})
        hook("defer", 20, 1, 0x100, {"requester": 0})
        text = render_sequence_diagram(recorder, 0x100, 2)
        lines = text.splitlines()
        assert lines[0].strip().startswith("time")
        assert "P0" in lines[0] and "P1" in lines[0]
        assert "LL=1" in text
        assert "defer(P0)" in text

    def test_filters_other_lines(self):
        recorder = TraceRecorder()
        hook = recorder.dispatcher.controller_hook
        hook("ll", 10, 0, 0x100, {"value": 1})
        hook("ll", 11, 0, 0x200, {"value": 2})
        text = render_sequence_diagram(recorder, 0x100, 1)
        assert "LL=1" in text
        assert "LL=2" not in text

    def test_collapses_spin_runs(self):
        recorder = TraceRecorder()
        hook = recorder.dispatcher.controller_hook
        for t in range(5):
            hook(
                "ll", 10 + t, 0, 0x100, {"value": 1}
            )
        text = render_sequence_diagram(recorder, 0x100, 1)
        assert "x5" in text
        assert text.count("LL=1") == 1

    def test_no_collapse_option(self):
        recorder = TraceRecorder()
        hook = recorder.dispatcher.controller_hook
        for t in range(3):
            hook("ll", 10 + t, 0, 0x100, {"value": 1})
        text = render_sequence_diagram(
            recorder, 0x100, 1, collapse_spins=False
        )
        assert text.count("LL=1") == 3

    def test_sc_outcome_labels(self):
        recorder = TraceRecorder()
        hook = recorder.dispatcher.controller_hook
        hook("sc", 1, 0, 0x100, {"success": True, "pc": 0})
        hook("sc", 2, 0, 0x100, {"success": False, "pc": 0})
        text = render_sequence_diagram(recorder, 0x100, 1)
        assert "SC ok" in text and "SC FAIL" in text

    def test_unknown_kind_falls_back(self):
        recorder = TraceRecorder()
        hook = recorder.dispatcher.controller_hook
        hook("mystery", 1, 0, 0x100, {})
        text = render_sequence_diagram(recorder, 0x100, 1)
        assert "mystery" in text

    def test_real_scenario_renders(self):
        result = figure3_scenario(rmw_per_proc=2)
        text = render_sequence_diagram(result.recorder, result.target_line, 3)
        assert "->LPRFO" in text
        assert "=>P" in text  # a hand-off arrow

    def test_limit(self):
        recorder = TraceRecorder()
        hook = recorder.dispatcher.controller_hook
        for t in range(10):
            hook("store", t, 0, 0x100, {"value": t, "pc": 0})
        text = render_sequence_diagram(recorder, 0x100, 1, limit=4)
        assert len(text.splitlines()) == 2 + 4


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["table3", "-p", "8", "raytrace"])
        assert args.processors == 8
        assert args.apps == ["raytrace"]

    def test_policies_command(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "iqolb" in out and "qolb" in out

    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        assert "sequential consistency" in capsys.readouterr().out

    def test_table2_command(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "raytrace" in out and "hot%" in out

    def test_figure_command(self, capsys):
        assert main(["figure", "3"]) == 0
        out = capsys.readouterr().out
        assert "->LPRFO" in out
        assert "sc_failures: 0" in out

    def test_run_command(self, capsys):
        assert main(["run", "raytrace", "--primitive", "iqolb", "-p", "4"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out

    def test_fairness_command(self, capsys):
        assert main(["fairness", "--primitive", "iqolb", "-p", "4"]) == 0
        out = capsys.readouterr().out
        assert "Jain idx" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
