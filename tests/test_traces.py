"""Tests for the trace recorder and the figure scenarios."""

from repro.harness.traces import (
    TraceRecorder,
    figure2_scenario,
    figure3_scenario,
    figure4_scenario,
)


class TestTraceRecorder:
    def test_controller_hook_records(self):
        recorder = TraceRecorder()
        hook = recorder.dispatcher.controller_hook
        hook("ll", 10, 2, 0x100, {"value": 1})
        (event,) = recorder.events
        assert event.kind == "ll"
        assert event.node == 2
        assert event.info == {"value": 1}

    def test_filtering(self):
        recorder = TraceRecorder()
        hook = recorder.dispatcher.controller_hook
        hook("ll", 1, 0, 0x100, {})
        hook("sc", 2, 0, 0x100, {})
        hook("ll", 3, 0, 0x200, {})
        assert len(recorder.filtered(line_addr=0x100)) == 2
        assert len(recorder.filtered(kinds=["ll"])) == 2
        assert recorder.count("sc", 0x100) == 1

    def test_render(self):
        recorder = TraceRecorder()
        hook = recorder.dispatcher.controller_hook
        hook("defer", 5, 1, 0x100, {"requester": 2})
        text = recorder.render()
        assert "P1" in text and "defer" in text and "requester=2" in text

    def test_render_limit(self):
        recorder = TraceRecorder()
        hook = recorder.dispatcher.controller_hook
        for i in range(10):
            hook("x", i, 0, 0x100, {})
        assert len(recorder.render(limit=3).splitlines()) == 3


class TestFigureScenarios:
    def test_fig2_shape(self):
        result = figure2_scenario(rmw_per_proc=3)
        s = result.summary
        assert s["final_value"] == 6
        assert s["sc_failures"] > 0
        assert s["deferrals"] == 0

    def test_fig3_shape(self):
        result = figure3_scenario(n_processors=3, rmw_per_proc=3)
        s = result.summary
        assert s["final_value"] == 9
        assert s["sc_failures"] == 0
        assert s["deferrals"] > 0

    def test_fig4_shape(self):
        result = figure4_scenario(n_processors=3, acquires_per_proc=3)
        s = result.summary
        assert s["cs_entries"] == 9
        assert s["tearoffs"] > 0
        assert s["handoffs_at_release"] > 0
        assert s["timeouts"] == 0

    def test_scenarios_are_deterministic(self):
        a = figure3_scenario(rmw_per_proc=2).summary
        b = figure3_scenario(rmw_per_proc=2).summary
        assert a == b

    def test_render_shows_the_lock_line_only(self):
        result = figure4_scenario(acquires_per_proc=2)
        text = result.render()
        assert "tearoff" in text or "defer" in text
