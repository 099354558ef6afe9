"""Unit tests for the observability primitives: event log, tracer,
schema validators and renderers."""

import io
import json

import pytest

from repro.obs import (
    LEVELS,
    EventLog,
    SchemaError,
    Telemetry,
    Tracer,
    render_degradations,
    validate_chrome_trace,
    validate_event,
    validate_event_log,
)


class FakeClock:
    """Deterministic monotonic clock for timing-sensitive assertions."""

    def __init__(self, start: float = 0.0, step: float = 0.5) -> None:
        self.value = start
        self.step = step

    def __call__(self) -> float:
        self.value += self.step
        return self.value


class TestEventLog:
    def test_writes_every_event_as_one_json_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path, clock=lambda: 42.0) as log:
            log.emit("info", "run_start", dataset="B")
            log.emit("warning", "degradation", kind="budget")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [entry["event"] for entry in lines] == ["run_start", "degradation"]
        assert lines[0] == {
            "ts": 42.0, "level": "info", "event": "run_start", "dataset": "B",
        }
        for entry in lines:
            validate_event(entry)

    def test_append_mode_continues_existing_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("info", "run_start")
        with EventLog(path) as log:
            log.emit("info", "resume")
        events = [json.loads(line)["event"] for line in path.read_text().splitlines()]
        assert events == ["run_start", "resume"]
        assert validate_event_log(path) == 2

    def test_stream_sink(self):
        stream = io.StringIO()
        log = EventLog(stream=stream)
        log.emit("info", "probe", x=1)
        assert json.loads(stream.getvalue())["event"] == "probe"

    def test_levels_are_ordered(self):
        assert LEVELS == ("info", "warning", "error")

    def test_debug_level_is_not_an_event_level(self):
        # Per-decision detail lives in provenance.jsonl and the trace.
        with pytest.raises(SchemaError):
            validate_event({"ts": 0.0, "level": "debug", "event": "merge"})


class TestTracer:
    def test_nested_spans_record_depth_and_duration(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("build", "engine"):
            with tracer.span("build_class:Person", "engine", pairs=3):
                pass
        spans = {s.name: s for s in tracer.spans}
        assert spans["build"].depth == 0
        assert spans["build_class:Person"].depth == 1
        assert spans["build_class:Person"].args == {"pairs": 3}
        # Inner span closes before outer, so it must be strictly shorter.
        assert spans["build_class:Person"].duration < spans["build"].duration

    def test_phase_timings_sum_same_name(self):
        tracer = Tracer(clock=FakeClock(step=1.0))
        tracer.complete("iterate_chunk", start=0.0, duration=2.0)
        tracer.complete("iterate_chunk", start=2.0, duration=3.0)
        assert tracer.phase_timings()["iterate_chunk"] == pytest.approx(5.0)

    def test_chrome_trace_is_valid_and_microseconds(self, tmp_path):
        tracer = Tracer(clock=FakeClock(step=0.25))
        with tracer.span("iterate", "engine"):
            tracer.instant("checkpoint_saved", step=0)
        trace = tracer.chrome_trace()
        assert validate_chrome_trace(trace) >= 3  # metadata + span + instant
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert complete and complete[0]["name"] == "iterate"
        # FakeClock advances 0.25 s per tick; the span covers at least
        # the instant's tick, so its duration is >= 250000 us.
        assert complete[0]["dur"] >= 250_000
        path = tracer.write(tmp_path / "trace.json")
        validate_chrome_trace(json.loads(path.read_text()))

    def test_exception_still_closes_span(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert [s.name for s in tracer.spans] == ["doomed"]


class TestNullTelemetry:
    def test_null_sinks_are_inert(self):
        telemetry = Telemetry()
        assert telemetry.active is False
        assert not (
            telemetry.wants_evidence
            or telemetry.wants_timing
            or telemetry.wants_worker_telemetry
        )
        telemetry.emit("error", "anything", detail="dropped")
        telemetry.instant("anything")
        telemetry.on_phase_begin(None, "build", references=0)
        telemetry.on_phase_end(None, "build", seconds=0.0)
        telemetry.close()
        assert telemetry.log is None
        assert telemetry.tracer is None
        assert telemetry.provenance is None

    def test_partial_telemetry_span_without_tracer(self):
        telemetry = Telemetry(log=EventLog(stream=io.StringIO()))
        assert telemetry.active is True
        # A phase is a span; with no tracer installed it must not raise.
        telemetry.on_phase_begin(None, "wire_weak")
        telemetry.on_phase_end(None, "wire_weak")


class TestRenderers:
    def test_render_degradations_empty_when_clean(self, tiny_pim_a):
        from repro.core import EngineConfig, Reconciler
        from repro.domains import PimDomainModel

        result = Reconciler(
            tiny_pim_a.store, PimDomainModel(), EngineConfig()
        ).run()
        assert result.completed
        assert render_degradations(result) == ""
