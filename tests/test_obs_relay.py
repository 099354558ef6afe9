"""Cross-process telemetry relay: worker lanes in the parent's sinks.

The contract mirrors the single-process telemetry contract: attaching
the relay (which rides along automatically whenever telemetry is
active on a parallel engine) never changes results, and the parent's
trace gains real per-pid lanes with named processes that validate
against the Chrome trace schema.
"""

import json

import pytest

from repro.core import EngineConfig, Reconciler
from repro.datasets import generate_pim_dataset
from repro.domains import PimDomainModel
from repro.obs import (
    EventLog,
    FlightRecorder,
    HotspotSketch,
    Observers,
    Telemetry,
    TelemetryRelay,
    Tracer,
    WorkerTelemetry,
    build_manifest,
    trace_process_names,
    validate_chrome_trace,
    validate_event_log,
)
from repro.runtime import Checkpointer, CrashAtStep, InjectedFault
from repro.similarity import clear_similarity_caches


class TestWorkerTelemetry:
    def test_drain_returns_payload_and_clears(self):
        recorder = WorkerTelemetry("scoring worker")
        recorder.add_span("score_chunk", 1.0, 0.5, pairs=3)
        recorder.count("repro_worker_chunks_total")
        recorder.emit("warning", "something", detail="x")
        payload = recorder.drain()
        assert payload["process_name"] == "scoring worker"
        assert payload["pid"] == recorder.pid
        assert payload["spans"][0][0] == "score_chunk"
        assert payload["counters"] == {"repro_worker_chunks_total": 1}
        assert payload["events"][0][1] == "something"
        # Buffers are deltas: a second drain with nothing new is None.
        assert recorder.drain() is None

    def test_zero_counts_are_not_shipped(self):
        recorder = WorkerTelemetry("scoring worker")
        recorder.count("repro_worker_pairs_scored_total", 0)
        assert recorder.drain() is None

    def test_pair_stats_fold_into_counters(self):
        recorder = WorkerTelemetry("scoring worker")
        stats = recorder.pair_stats()
        stats.pair_memo_hits += 3
        stats.pair_memo_misses += 2
        stats.prefilter_skips += 1
        recorder.absorb_pair_stats(stats)
        payload = recorder.drain()
        assert payload["counters"] == {
            "repro_worker_pair_memo_hits_total": 3,
            "repro_worker_pair_memo_misses_total": 2,
            "repro_worker_prefilter_skips_total": 1,
        }


class TestTelemetryRelay:
    def _telemetry(self, tmp_path):
        return Telemetry(log=EventLog(tmp_path / "events.jsonl"), tracer=Tracer())

    def test_absorb_builds_named_foreign_lanes(self, tmp_path):
        telemetry = self._telemetry(tmp_path)
        relay = TelemetryRelay(telemetry)
        recorder = WorkerTelemetry("scoring worker")
        recorder.pid, recorder.tid = 4242, 4243  # a genuinely foreign lane
        recorder.add_span("score_chunk", telemetry.tracer.epoch, 0.25, pairs=7)
        recorder.count("repro_worker_chunks_total")
        recorder.emit("warning", "worker_event", detail="d")
        relay.absorb(recorder.drain())
        telemetry.close()

        trace = telemetry.tracer.chrome_trace()
        validate_chrome_trace(trace)
        names = trace_process_names(trace)
        assert names[4242] == "scoring worker"
        assert len(names) == 2  # engine lane + the worker lane
        foreign = [e for e in trace["traceEvents"] if e.get("pid") == 4242]
        assert any(e["ph"] == "X" and e["name"] == "score_chunk" for e in foreign)
        assert relay.counters == {"repro_worker_chunks_total": 1}
        events = [
            json.loads(line)
            for line in (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        worker_events = [e for e in events if e["event"] == "worker_event"]
        assert worker_events and worker_events[0]["pid"] == 4242

    def test_span_before_parent_epoch_clamps_to_zero(self, tmp_path):
        telemetry = self._telemetry(tmp_path)
        relay = TelemetryRelay(telemetry)
        recorder = WorkerTelemetry("scoring worker")
        recorder.pid = 777
        recorder.add_span("early", telemetry.tracer.epoch - 100.0, 0.1)
        relay.absorb(recorder.drain())
        telemetry.close()
        trace = telemetry.tracer.chrome_trace()
        validate_chrome_trace(trace)  # would fail on a negative ts
        early = [e for e in trace["traceEvents"] if e.get("name") == "early"]
        assert early[0]["ts"] == 0

    def test_lane_death_is_attributed_to_the_lane(self, tmp_path):
        telemetry = self._telemetry(tmp_path)
        relay = TelemetryRelay(telemetry)
        relay.lane_died(999, "task timeout")
        telemetry.close()
        trace = telemetry.tracer.chrome_trace()
        deaths = [e for e in trace["traceEvents"] if e.get("name") == "lane_died"]
        assert deaths and deaths[0]["pid"] == 999
        summary = relay.summary()
        assert summary["counters"]["repro_lane_deaths_total"] == 1
        assert summary["lane_deaths"][0]["pid"] == 999

    def test_provenance_only_telemetry_gets_no_relay(self):
        from repro.obs import ProvenanceLog

        # Provenance-only telemetry (``repro explain``) asks for no
        # worker payloads: workers would ship what nobody consumes.
        telemetry = Telemetry(provenance=ProvenanceLog())
        assert not telemetry.wants_worker_telemetry
        assert not Observers([telemetry]).worker_telemetry
        assert Observers([Telemetry(tracer=Tracer())]).worker_telemetry


class TestParallelRunEndToEnd:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_pim_dataset("B", scale=0.15)

    @pytest.fixture(scope="class")
    def baseline(self, dataset):
        clear_similarity_caches()
        engine = Reconciler(dataset.store, PimDomainModel(), EngineConfig())
        return engine.run()

    @pytest.fixture(scope="class")
    def observed(self, dataset, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("relay_run")
        clear_similarity_caches()
        telemetry = Telemetry(log=EventLog(tmp_path / "events.jsonl"), tracer=Tracer())
        config = EngineConfig(workers=2)
        engine = Reconciler(
            dataset.store,
            PimDomainModel(),
            config,
            observers=[telemetry, FlightRecorder(), HotspotSketch()],
        )
        result = engine.run()
        telemetry.close()
        return engine, result, telemetry

    def test_partitions_identical_with_relay_attached(self, baseline, observed):
        _, result, _ = observed
        assert result.partitions == baseline.partitions

    def test_trace_has_multiple_named_pid_lanes(self, observed):
        _, _, telemetry = observed
        trace = telemetry.tracer.chrome_trace()
        validate_chrome_trace(trace)
        names = trace_process_names(trace)
        assert len(names) >= 2
        assert "repro engine" in names.values()
        assert any(name != "repro engine" for name in names.values())
        # Foreign spans actually landed on foreign lanes.
        engine_pid = telemetry.tracer.pid
        assert any(
            event.get("ph") == "X" and event["pid"] != engine_pid
            for event in trace["traceEvents"]
        )

    def test_worker_counters_fold_into_parent_metrics(self, dataset, observed):
        # The parent's record of the workers' counters is the run
        # manifest's execution.worker_telemetry.
        engine, result, _ = observed
        manifest = build_manifest(dataset=dataset, reconciler=engine, result=result)
        counters = manifest["execution"]["worker_telemetry"]["counters"]
        assert counters["repro_worker_chunks_total"] > 0
        assert 0 < counters["repro_worker_pairs_scored_total"] <= (
            manifest["counters"]["candidate_pairs"]
        )

    def test_relay_summary_reaches_the_engine(self, observed):
        engine, _, _ = observed
        summary = engine.observers.find(Telemetry).relay.summary()
        assert summary["lane_count"] >= 2
        assert summary["lane_deaths"] == []
        assert summary["counters"]["repro_worker_chunks_total"] > 0


def test_resume_append_continues_relay_telemetry(tmp_path):
    dataset = generate_pim_dataset("A", scale=0.15)
    log_path = tmp_path / "events.jsonl"
    config = EngineConfig(workers=2)
    checkpointer = Checkpointer(tmp_path, every=1)

    clear_similarity_caches()
    telemetry = Telemetry(log=EventLog(log_path), tracer=Tracer())
    engine = Reconciler(
        dataset.store,
        PimDomainModel(),
        config,
        observers=[telemetry, FlightRecorder(), HotspotSketch(), CrashAtStep(5)],
    )
    with pytest.raises(InjectedFault):
        engine.run(checkpointer=checkpointer)
    telemetry.close()
    assert telemetry.relay is not None  # the parallel build used the relay
    events_before_crash = validate_event_log(log_path)
    assert events_before_crash > 0

    resumed_telemetry = Telemetry(log=EventLog(log_path), tracer=Tracer())
    resumed = Reconciler.resume(
        checkpointer.path,
        store=dataset.store,
        domain=PimDomainModel(),
        config=config,
        observers=[resumed_telemetry],
    )
    result = resumed.run()
    resumed_telemetry.close()

    clear_similarity_caches()
    uninterrupted = Reconciler(
        dataset.store, PimDomainModel(), EngineConfig()
    ).run()
    assert result.partitions == uninterrupted.partitions
    # The event log append-continued across the crash.
    assert validate_event_log(log_path) > events_before_crash
