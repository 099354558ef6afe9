"""The observer seam: one fan-out resolves, once, who hears what."""

import pytest

from repro.core import EngineConfig, Reconciler
from repro.domains import PimDomainModel
from repro.obs import FlightRecorder, HotspotSketch, Observer, Observers, Telemetry, Tracer


class _Recorder(Observer):
    def __init__(self):
        self.calls = []

    def on_phase_begin(self, engine, phase, **fields):
        self.calls.append(("begin", phase, fields))

    def on_phase_end(self, engine, phase, **fields):
        self.calls.append(("end", phase, fields))

    def on_decision(self, engine, node, decision, evidence, seconds):
        self.calls.append(("decision", decision, evidence, seconds))


class TestFanOut:
    def test_flags_resolve_from_subscribers(self):
        assert not Observers().evidence
        assert not Observers([FlightRecorder()]).timing
        sketch = Observers([HotspotSketch()])
        assert sketch.evidence and sketch.timing and not sketch.worker_telemetry
        telemetry = Observers([Telemetry(tracer=Tracer())])
        assert telemetry.worker_telemetry and not telemetry.evidence

    def test_non_observer_rejected(self):
        with pytest.raises(TypeError):
            Observers([object()])

    def test_every_subscriber_hears_in_order(self):
        first, second = _Recorder(), _Recorder()
        observers = Observers([first, second])
        observers.phase_begin(None, "build", references=3)
        assert first.calls == second.calls == [("begin", "build", {"references": 3})]
        # Nobody overrides on_step: the call is a no-op, not an error.
        observers.step(None, 0)

    def test_phase_ends_even_when_the_body_raises(self):
        recorder = _Recorder()
        with pytest.raises(RuntimeError):
            with Observers([recorder]).phase(None, "wire_weak"):
                raise RuntimeError("boom")
        assert [call[0] for call in recorder.calls] == ["begin", "end"]

    def test_decision_seconds_only_when_timed(self):
        recorder = _Recorder()
        observers = Observers([recorder])
        observers.decision(None, None, "defer", {"s_rv": 0.5})
        observers.decision(None, None, "merge", None, started=0.0)
        (_, _, evidence, untimed), (_, _, _, timed) = recorder.calls
        assert evidence == {"s_rv": 0.5} and untimed is None
        assert timed > 0.0


def test_engine_reports_phases_and_decisions(tiny_pim_a):
    recorder = _Recorder()
    engine = Reconciler(
        tiny_pim_a.store, PimDomainModel(), EngineConfig(), observers=[recorder]
    )
    engine.run()
    phases = [(kind, phase) for kind, phase, *_ in recorder.calls if kind != "decision"]
    assert phases[0] == ("begin", "build") and phases[-1] == ("end", "iterate")
    assert ("end", "build") in phases and ("begin", "iterate") in phases
    decisions = [call for call in recorder.calls if call[0] == "decision"]
    # One decision per recomputation, plus the pops already merged
    # transitively (decided without scoring).
    assert len(decisions) >= engine.stats.recomputations > 0
    # The recorder asked for neither evidence nor timing.
    assert all(call[2] is None and call[3] is None for call in decisions)
