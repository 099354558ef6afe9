"""Telemetry must be strictly observational.

The contract: a run with every sink attached produces the *same*
partition (and the same engine counters) as a bare engine with no
subscribers, on every benchmark dataset; telemetry state never enters
checkpoints; and a resumed run append-continues the original event
log instead of clobbering it.
"""

import json

import pytest

from repro.core import EngineConfig, Reconciler
from repro.datasets import generate_cora_dataset, generate_pim_dataset
from repro.datasets.cora import CoraConfig
from repro.domains import CoraDomainModel, PimDomainModel
from repro.obs import (
    EventLog,
    FlightRecorder,
    HotspotSketch,
    ProvenanceLog,
    Telemetry,
    Tracer,
    validate_event_log,
)
from repro.runtime import Checkpointer, CrashAtStep, InjectedFault
from repro.runtime.checkpoint import engine_state
from repro.similarity import clear_similarity_caches


def _dataset(name):
    if name == "cora":
        return (
            generate_cora_dataset(
                CoraConfig(n_papers=30, n_citations=260, n_authors=60, n_venues=12)
            ),
            CoraDomainModel,
        )
    return generate_pim_dataset(name, scale=0.15), PimDomainModel


def _observers(telemetry):
    """The observed engine's subscribers: *telemetry* on top of the
    default pair; no telemetry means the bare engine."""
    if telemetry is None:
        return ()
    return (telemetry, FlightRecorder(), HotspotSketch())


def _run(dataset, domain_factory, telemetry=None):
    # Fresh domain per run: the feature cache lives on the domain model
    # and its counters are cumulative, so sharing one across runs would
    # make the second run's stats look inflated.
    clear_similarity_caches()
    engine = Reconciler(
        dataset.store,
        domain_factory(),
        EngineConfig(),
        observers=_observers(telemetry),
    )
    return engine, engine.run()


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "cora"])
def test_partition_identical_with_all_sinks_attached(name, tmp_path):
    dataset, domain_factory = _dataset(name)
    _, baseline = _run(dataset, domain_factory)
    telemetry = Telemetry(
        log=EventLog(tmp_path / "events.jsonl"),
        tracer=Tracer(),
        provenance=ProvenanceLog(tmp_path / "prov.jsonl"),
    )
    engine, observed = _run(dataset, domain_factory, telemetry=telemetry)
    telemetry.close()
    assert observed.partitions == baseline.partitions
    # The sinks actually saw the run — this was not a no-op telemetry.
    assert validate_event_log(tmp_path / "events.jsonl") > 0
    assert len(telemetry.tracer.spans) > 0
    assert len(telemetry.provenance) > 0


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "cora"])
def test_parallel_run_identical_with_full_observability(name, tmp_path):
    """Every observer at once — all three sinks and the cross-process
    relay (implied by workers + telemetry) — on a parallel engine, and
    the partition still matches a bare serial run."""
    dataset, domain_factory = _dataset(name)
    _, baseline = _run(dataset, domain_factory)
    clear_similarity_caches()
    telemetry = Telemetry(
        log=EventLog(tmp_path / "events.jsonl"),
        tracer=Tracer(),
        provenance=ProvenanceLog(tmp_path / "prov.jsonl"),
    )
    config = EngineConfig(workers=2)
    engine = Reconciler(
        dataset.store, domain_factory(), config, observers=_observers(telemetry)
    )
    result = engine.run()
    telemetry.close()
    assert result.partitions == baseline.partitions
    # The relay actually engaged: the build's scoring ran in workers.
    assert telemetry.relay is not None
    assert telemetry.relay.payloads > 0


def test_counters_identical_with_and_without_telemetry(tiny_pim_a):
    plain, plain_result = _run(tiny_pim_a, PimDomainModel)
    telemetry = Telemetry(tracer=Tracer(), provenance=ProvenanceLog())
    observed, observed_result = _run(tiny_pim_a, PimDomainModel, telemetry=telemetry)
    assert observed_result.partitions == plain_result.partitions
    # Every counter — wall-clock aside — must match exactly, including
    # cache hits/misses, which an intrusive capture path would perturb.
    plain.stats.build_seconds = observed.stats.build_seconds = 0.0
    plain.stats.iterate_seconds = observed.stats.iterate_seconds = 0.0
    assert observed.stats == plain.stats


def test_default_engine_subscribes_flight_and_hotspots(tiny_pim_a):
    engine = Reconciler(tiny_pim_a.store, PimDomainModel(), EngineConfig())
    kinds = [type(subscriber) for subscriber in engine.observers]
    assert kinds == [FlightRecorder, HotspotSketch]
    assert engine.observers.find(Telemetry) is None
    bare = Reconciler(tiny_pim_a.store, PimDomainModel(), observers=())
    assert len(bare.observers) == 0
    assert not (bare.observers.evidence or bare.observers.timing)


def test_engine_state_carries_no_telemetry(tiny_pim_a):
    """Checkpoint payloads are identical with telemetry on or off."""
    plain, _ = _run(tiny_pim_a, PimDomainModel)
    telemetry = Telemetry(tracer=Tracer(), provenance=ProvenanceLog())
    observed, _ = _run(tiny_pim_a, PimDomainModel, telemetry=telemetry)

    def canonical(engine):
        state = engine_state(engine)
        # Wall-clock is legitimately different between the two runs;
        # everything else — counters included — must match to the byte.
        state["stats"]["build_seconds"] = 0.0
        state["stats"]["iterate_seconds"] = 0.0
        return json.dumps(state, sort_keys=True)

    assert canonical(observed) == canonical(plain)


def test_resume_append_continues_the_event_log(tmp_path):
    dataset, domain_factory = _dataset("A")
    log_path = tmp_path / "events.jsonl"
    checkpointer = Checkpointer(tmp_path, every=1)

    clear_similarity_caches()
    telemetry = Telemetry(log=EventLog(log_path))
    engine = Reconciler(
        dataset.store,
        domain_factory(),
        EngineConfig(),
        observers=[telemetry, CrashAtStep(5)],
    )
    with pytest.raises(InjectedFault):
        engine.run(checkpointer=checkpointer)
    telemetry.close()
    events_before_crash = validate_event_log(log_path)
    assert events_before_crash > 0

    resumed_telemetry = Telemetry(log=EventLog(log_path))
    resumed = Reconciler.resume(
        checkpointer.path,
        store=dataset.store,
        domain=domain_factory(),
        observers=[resumed_telemetry],
    )
    result = resumed.run()
    resumed_telemetry.close()

    clear_similarity_caches()
    uninterrupted = Reconciler(dataset.store, domain_factory(), EngineConfig()).run()
    assert result.partitions == uninterrupted.partitions

    events = [
        json.loads(line) for line in log_path.read_text().splitlines()
    ]
    assert len(events) > events_before_crash  # appended, not truncated
    names = [event["event"] for event in events]
    assert "resume" in names
    # The crashed run's events survive in front of the resumed run's.
    assert names.index("resume") >= events_before_crash - 1
    assert validate_event_log(log_path) == len(events)


def test_null_sink_overhead_smoke(tiny_pim_a):
    """The disabled path must not be grossly slower than the seed engine.

    A wall-clock ratio test on shared CI hardware would flake; instead
    assert the structural property that makes overhead impossible: a
    bare engine's fan-out asks for neither decision evidence nor
    timing, so the iterate loop computes neither.
    """
    import time

    domain = PimDomainModel()
    clear_similarity_caches()
    start = time.perf_counter()
    engine = Reconciler(tiny_pim_a.store, domain, EngineConfig(), observers=())
    engine.run()
    plain_seconds = time.perf_counter() - start
    assert not engine.observers.evidence and not engine.observers.timing
    # Generous ceiling: catches a pathological regression (e.g. telemetry
    # accidentally enabled by default), not micro-variance.
    clear_similarity_caches()
    start = time.perf_counter()
    telemetry = Telemetry(tracer=Tracer())
    Reconciler(
        tiny_pim_a.store, domain, EngineConfig(), observers=_observers(telemetry)
    ).run()
    instrumented_seconds = time.perf_counter() - start
    assert instrumented_seconds < max(plain_seconds * 5, plain_seconds + 5.0)
