"""Tests for the unified telemetry subsystem.

Covers the tracer hook contracts (time-ordered, complete, deterministic
event streams from the controller and bus surfaces), the sinks (ring
buffer, JSONL, Chrome trace), run manifests, metrics export, and the
mini JSON-Schema validator that CI uses on emitted artifacts.
"""

import json
import pathlib

import pytest

from repro.cpu.ops import LL, SC, Compute, Read, Write
from repro.harness.config import SystemConfig
from repro.harness.experiment import run_app, run_workload
from repro.harness.system import System
from repro.harness.traces import figure4_scenario
from repro.sync.tts import TTSLock
from repro.telemetry import (
    ChromeTraceSink,
    JsonlSink,
    RingBufferSink,
    RunManifest,
    SchemaError,
    TelemetryEvent,
    TraceDispatcher,
    category_of,
    metrics_payload,
    replay,
    stable_hash,
    summary_payload,
    validate,
    validate_file,
    write_metrics,
    write_metrics_archive,
)
from repro.workloads.splash import make_app

SCHEMA_DIR = pathlib.Path(__file__).parent / "schemas"


def _contended_system(n_processors=4, increments=6):
    """A small contended-lock workload on IQOLB with telemetry attached."""
    dispatcher = TraceDispatcher()
    ring = dispatcher.attach(RingBufferSink())
    system = System(SystemConfig(n_processors=n_processors, policy="iqolb"))
    system.attach_telemetry(dispatcher)
    lock = TTSLock(system.layout.alloc_line())
    counter = system.layout.alloc_line()

    def worker():
        for _ in range(increments):
            yield from lock.acquire()
            value = yield Read(counter)
            yield Compute(20)
            yield Write(counter, value + 1)
            yield from lock.release()
            yield Compute(10)

    for node in range(n_processors):
        system.load_program(node, worker())
    system.run()
    return system, dispatcher, ring


class TestEventModel:
    def test_categories(self):
        assert category_of("ll") == "llsc"
        assert category_of("defer") == "deferral"
        assert category_of("tearoff") == "tearoff"
        assert category_of("handoff") == "handoff"
        assert category_of("release") == "lock"
        assert category_of("predict") == "predictor"
        assert category_of("bus:GetX") == "bus"
        assert category_of("fill") == "coherence"

    def test_event_derives_category(self):
        event = TelemetryEvent(time=5, node=1, kind="sc", line_addr=64, info={})
        assert event.category == "llsc"

    def test_json_shape(self):
        event = TelemetryEvent(10, 2, "defer", 128, {"requester": 3})
        obj = event.to_json_obj()
        assert obj == {
            "ts": 10,
            "node": 2,
            "kind": "defer",
            "cat": "deferral",
            "line": 128,
            "info": {"requester": 3},
        }
        json.dumps(obj)  # must be JSON-encodable


class TestHookContracts:
    """Satellite: the controller/bus instrumentation surface contracts."""

    def test_stream_is_time_ordered(self):
        _, _, ring = _contended_system()
        times = [event.time for event in ring.events]
        assert times == sorted(times)
        assert len(times) > 0

    def test_every_bus_transaction_is_observed(self):
        system, _, ring = _contended_system()
        observed = sum(1 for e in ring.events if e.category == "bus")
        assert observed == system.stats.value("bus.transactions")

    def test_bus_events_carry_resolution(self):
        _, _, ring = _contended_system()
        bus_events = [e for e in ring.events if e.category == "bus"]
        for event in bus_events:
            assert {"txn_id", "supplier", "shared", "deferred"} <= set(
                event.info
            )

    def test_deterministic_across_same_seed_runs(self):
        _, _, ring_a = _contended_system()
        _, _, ring_b = _contended_system()
        a = [(e.time, e.node, e.kind, e.line_addr) for e in ring_a.events]
        b = [(e.time, e.node, e.kind, e.line_addr) for e in ring_b.events]
        assert a == b

    def test_iqolb_stream_contains_protocol_events(self):
        _, _, ring = _contended_system()
        kinds = {event.kind for event in ring.events}
        assert "defer" in kinds
        assert "handoff" in kinds
        assert "predict" in kinds

    def test_dispatcher_counts_events(self):
        _, dispatcher, ring = _contended_system()
        assert dispatcher.events_dispatched == len(ring.events)

    def test_detached_sink_stops_receiving(self):
        dispatcher = TraceDispatcher()
        ring = dispatcher.attach(RingBufferSink())
        dispatcher.controller_hook("ll", 1, 0, 64, {})
        dispatcher.detach(ring)
        dispatcher.controller_hook("sc", 2, 0, 64, {})
        assert [e.kind for e in ring.events] == ["ll"]


class TestRingBufferSink:
    def test_bounded(self):
        ring = RingBufferSink(capacity=3)
        for t in range(5):
            ring.emit(TelemetryEvent(t, 0, "ll", 64, {}))
        assert len(ring) == 3
        assert ring.dropped == 2
        assert [e.time for e in ring.events] == [2, 3, 4]


class TestJsonlSink(object):
    def test_writes_schema_valid_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.emit(TelemetryEvent(1, 0, "defer", 64, {"requester": 1}))
        sink.emit(TelemetryEvent(2, 1, "bus:GetS", 64, {"txn_id": 0}))
        sink.close()
        records = validate_file(path, SCHEMA_DIR / "trace_jsonl.schema.json")
        assert records == 2
        assert sink.events_written == 2


class TestChromeTraceSink:
    def _trace_fig4(self, tmp_path):
        path = tmp_path / "fig4.trace.json"
        sink = ChromeTraceSink(path)
        result = figure4_scenario(3, 3, sinks=[sink])
        sink.close()
        return path, result

    def test_document_is_schema_valid(self, tmp_path):
        path, _ = self._trace_fig4(tmp_path)
        validate_file(path, SCHEMA_DIR / "chrome_trace.schema.json")

    def test_per_node_tracks_with_protocol_events(self, tmp_path):
        path, _ = self._trace_fig4(tmp_path)
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        track_names = {
            e["args"]["name"] for e in events if e["name"] == "thread_name"
        }
        assert {"P0", "P1", "P2", "bus"} <= track_names
        kinds = {e["name"] for e in events}
        assert {"tearoff", "handoff", "defer"} <= kinds

    def test_deferral_windows_become_slices(self, tmp_path):
        path, _ = self._trace_fig4(tmp_path)
        doc = json.loads(path.read_text())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert slices, "expected at least one deferral slice"
        for event in slices:
            assert event["dur"] >= 1
            assert event["args"]["resolved_by"] in (
                "handoff",
                "timeout",
                "queue_breakdown",
            )

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "t.json"
        sink = ChromeTraceSink(path)
        sink.emit(TelemetryEvent(1, 0, "ll", 64, {}))
        sink.close()
        first = path.read_text()
        sink.close()
        assert path.read_text() == first

    def test_replay_from_recorder(self, tmp_path):
        result = figure4_scenario(3, 2)
        sink = replay(
            result.recorder.events, ChromeTraceSink(tmp_path / "replay.json")
        )
        doc = json.loads((tmp_path / "replay.json").read_text())
        assert len(doc["traceEvents"]) > len(result.recorder.events)
        assert sink is not None


class TestRunManifest:
    def test_run_workload_populates_manifest(self):
        result = run_app("barnes", "iqolb", 4)
        manifest = result.manifest
        assert manifest is not None
        assert manifest.cache_hit is False
        assert manifest.events_fired > 0
        assert manifest.queue_high_water > 0
        assert manifest.wall_time_s > 0
        assert manifest.events_per_host_s > 0
        assert len(manifest.config_hash) == 64
        assert manifest.host.get("python")

    def test_config_hash_tracks_config(self):
        a = run_app("barnes", "iqolb", 2).manifest
        b = run_app("barnes", "iqolb", 4).manifest
        assert a.config_hash != b.config_hash

    def test_seed_extracted_from_app_model(self):
        app = make_app("barnes", lock_kind="tts")
        config = SystemConfig(n_processors=2)
        result = run_workload(app, config, primitive="iqolb", verify=False)
        assert result.manifest.seed == app.model.seed

    def test_round_trip(self):
        manifest = RunManifest.collect(
            config={"x": 1}, version="1.1.0", seed=7, wall_time_s=0.5,
            events_fired=100, queue_high_water=8,
        )
        again = RunManifest.from_dict(manifest.to_dict())
        assert again == manifest
        assert RunManifest.from_dict(None) is None

    def test_from_dict_ignores_unknown_keys(self):
        data = RunManifest.collect({}, "1.0").to_dict()
        data["future_field"] = "ignored"
        assert RunManifest.from_dict(data) is not None

    def test_stable_hash_is_order_insensitive(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})


class TestMetricsExport:
    def test_payload_from_results(self, tmp_path):
        results = [run_app("barnes", "iqolb", 2)]
        path = tmp_path / "metrics.json"
        payload = write_metrics(path, results)
        assert payload["schema"] == "repro-metrics/1"
        validate_file(path, SCHEMA_DIR / "metrics.schema.json")
        (cell,) = payload["cells"]
        assert cell["manifest"]["events_fired"] > 0
        assert cell["counters"]["bus.transactions"] > 0

    def test_payload_includes_handoff_percentiles(self):
        result = run_app("barnes", "iqolb", 8)
        payload = metrics_payload([result])
        digest = payload["cells"][0]["histograms"]["handoff.defer_cycles"]
        assert digest["count"] > 0
        assert digest["p50"] is not None
        assert digest["p50"] <= digest["p90"] <= digest["p99"]

    def test_archive_writes_summary_plus_gz(self, tmp_path):
        import gzip
        import json

        results = [run_app("barnes", "iqolb", 2)]
        base = tmp_path / "BENCH_x.json"
        full = write_metrics_archive(base, results)

        gz = tmp_path / "BENCH_x.json.gz"
        summary_path = tmp_path / "BENCH_x.summary.json"
        # The gzip round-trips the full payload and validates as a
        # plain metrics document (validate_file is gz-transparent).
        assert json.loads(gzip.decompress(gz.read_bytes())) == json.loads(
            json.dumps(full)
        )
        validate_file(gz, SCHEMA_DIR / "metrics.schema.json")
        validate_file(summary_path, SCHEMA_DIR / "metrics_summary.schema.json")

        summary = json.loads(summary_path.read_text())
        (cell,) = summary["cells"]
        assert cell["cycles"] == full["cells"][0]["cycles"]
        assert cell["config_hash"] == full["cells"][0]["manifest"]["config_hash"]
        assert "counters" not in cell and "histograms" not in cell

        # Identical content must produce a byte-identical archive
        # (mtime pinned), so regeneration never dirties the tree.
        first = gz.read_bytes()
        write_metrics_archive(base, results)
        assert gz.read_bytes() == first

    def test_summary_payload_counts_bodies(self):
        result = run_app("barnes", "iqolb", 2)
        full = metrics_payload([result])
        summary = summary_payload(full)
        assert summary["schema"] == "repro-metrics-summary/1"
        cell = summary["cells"][0]
        assert cell["n_counters"] == len(full["cells"][0]["counters"])
        assert cell["n_histograms"] == len(full["cells"][0]["histograms"])
        # Throughput provenance survives the digest: the perf-smoke CI
        # gate compares events/host-second straight from the summary.
        manifest = full["cells"][0]["manifest"]
        assert cell["events_fired"] == manifest["events_fired"]
        assert cell["events_per_host_s"] == manifest["events_per_host_s"]


class TestSchemaValidator:
    def test_type_and_required(self):
        schema = {
            "type": "object",
            "required": ["a"],
            "properties": {"a": {"type": "integer"}},
        }
        validate({"a": 1}, schema)
        with pytest.raises(SchemaError):
            validate({}, schema)
        with pytest.raises(SchemaError):
            validate({"a": "no"}, schema)

    def test_bool_is_not_an_integer(self):
        with pytest.raises(SchemaError):
            validate(True, {"type": "integer"})

    def test_enum_const_minimum(self):
        with pytest.raises(SchemaError):
            validate("x", {"enum": ["a", "b"]})
        with pytest.raises(SchemaError):
            validate(2, {"const": 1})
        with pytest.raises(SchemaError):
            validate(-1, {"type": "integer", "minimum": 0})

    def test_additional_properties_false(self):
        schema = {
            "type": "object",
            "properties": {"a": {}},
            "additionalProperties": False,
        }
        validate({"a": 1}, schema)
        with pytest.raises(SchemaError):
            validate({"b": 1}, schema)

    def test_local_ref(self):
        schema = {
            "type": "array",
            "items": {"$ref": "#/$defs/item"},
            "$defs": {"item": {"type": "integer"}},
        }
        validate([1, 2], schema)
        with pytest.raises(SchemaError):
            validate(["x"], schema)

    def test_jsonl_file_rejects_bad_record(self, tmp_path):
        schema_path = tmp_path / "s.json"
        schema_path.write_text(json.dumps({"type": "object"}))
        data = tmp_path / "d.jsonl"
        data.write_text('{"ok": 1}\n[]\n')
        with pytest.raises(SchemaError):
            validate_file(data, schema_path)

    def test_jsonl_file_rejects_empty(self, tmp_path):
        schema_path = tmp_path / "s.json"
        schema_path.write_text(json.dumps({"type": "object"}))
        data = tmp_path / "d.jsonl"
        data.write_text("")
        with pytest.raises(SchemaError):
            validate_file(data, schema_path)


class TestOverhead:
    def test_untraced_run_attaches_no_hooks(self):
        system = System(SystemConfig(n_processors=2))
        assert all(c.tracer is None for c in system.controllers)
        assert system.bus.observer is None

    def test_attach_then_detach(self):
        system = System(SystemConfig(n_processors=2))
        dispatcher = TraceDispatcher()
        dispatcher.attach(RingBufferSink())
        system.attach_telemetry(dispatcher)
        assert system.bus.observer is not None
        system.attach_telemetry(None)
        assert system.bus.observer is None
        assert all(c.tracer is None for c in system.controllers)

    def test_sinkless_dispatcher_is_preresolved_noop(self):
        # With no sinks attached the emitters' hooks stay None — dispatch
        # is pre-resolved away, not checked per event — and snap live the
        # moment a sink attaches (and back when it detaches).
        system = System(SystemConfig(n_processors=2))
        dispatcher = TraceDispatcher()
        system.attach_telemetry(dispatcher)
        assert system.bus.observer is None
        assert all(c.tracer is None for c in system.controllers)
        sink = dispatcher.attach(RingBufferSink())
        assert system.bus.observer is not None
        assert all(c.tracer is not None for c in system.controllers)
        dispatcher.detach(sink)
        assert system.bus.observer is None
        assert all(c.tracer is None for c in system.controllers)
