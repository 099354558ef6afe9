"""Tests for the fault-tolerant runtime: error taxonomy, run guards,
checkpoint/resume, graceful degradation and the fault injectors."""

import dataclasses
import hashlib
import json

import pytest

from repro.core import EngineConfig, Reconciler, ReferenceStore
from repro.core.queue import ActiveQueue
from repro.domains import PimDomainModel
from repro.obs import EventLog, FlightRecorder, Telemetry
from repro.runtime import (
    BudgetExceeded,
    CheckpointError,
    Checkpointer,
    CrashAtStep,
    DataError,
    DeadlineExceeded,
    DegradationEvent,
    GuardTripped,
    InjectedFault,
    QueueEmpty,
    ReproError,
    ResilientReconciler,
    RunGuard,
    corrupt_checkpoint,
    inject_malformed_lines,
    load_checkpoint,
    save_checkpoint,
)

from .conftest import example1_references


def _engine(config=None, observers=None) -> Reconciler:
    domain = PimDomainModel()
    store = ReferenceStore(domain.schema, example1_references())
    return Reconciler(store, domain, config, observers=observers)


class TestErrorTaxonomy:
    def test_hierarchy(self):
        for error in (DataError, QueueEmpty, CheckpointError, InjectedFault,
                      GuardTripped):
            assert issubclass(error, ReproError)
        assert issubclass(BudgetExceeded, GuardTripped)
        assert issubclass(DeadlineExceeded, GuardTripped)

    def test_data_error_carries_location(self):
        error = DataError("missing key 'id'", path="refs.jsonl", line=17)
        assert error.path == "refs.jsonl"
        assert error.line == 17
        assert "refs.jsonl:17" in str(error)
        assert "missing key 'id'" in str(error)


class TestActiveQueueEmpty:
    def test_pop_empty_raises_typed(self):
        with pytest.raises(QueueEmpty):
            ActiveQueue().pop()

    def test_pop_skips_stale_keys(self):
        queue = ActiveQueue([("a", "b"), ("c", "d")])
        queue.discard(("a", "b"))
        # Live length excludes the stale deque entry.
        assert len(queue) == 1
        assert queue.pop() == ("c", "d")
        with pytest.raises(QueueEmpty):
            queue.pop()

    def test_only_stale_keys_is_falsy(self):
        queue = ActiveQueue([("a", "b")])
        queue.discard(("a", "b"))
        assert not queue

    def test_snapshot_round_trip(self):
        queue = ActiveQueue([("a", "b"), ("c", "d"), ("e", "f")])
        queue.discard(("c", "d"))
        queue.push_front(("x", "y"))
        restored = ActiveQueue.from_snapshot(queue.snapshot())
        assert restored.pop() == ("x", "y")
        assert restored.pop() == ("a", "b")
        assert restored.pop() == ("e", "f")
        assert restored.pushed_front == queue.pushed_front
        assert restored.pushed_back == queue.pushed_back


class TestRunGuard:
    def test_deadline_trips_with_injected_clock(self):
        cell = [0.0]
        guard = RunGuard(deadline_seconds=5.0, clock=lambda: cell[0])
        guard.start()
        guard.check(recomputations=1)
        cell[0] = 6.0
        with pytest.raises(DeadlineExceeded) as excinfo:
            guard.check(recomputations=2)
        event = excinfo.value.event
        assert event.kind == "deadline"
        assert event.recomputations == 2
        assert guard.events == [event]

    def test_budget_trips(self):
        guard = RunGuard(max_recomputations=10)
        guard.check(recomputations=9)
        with pytest.raises(BudgetExceeded) as excinfo:
            guard.check(recomputations=10)
        assert excinfo.value.event.kind == "budget"

    def test_queue_and_graph_ceilings(self):
        guard = RunGuard(max_queue_size=5)
        with pytest.raises(BudgetExceeded) as excinfo:
            guard.check(queue_size=6)
        assert excinfo.value.event.kind == "queue_ceiling"
        guard = RunGuard(max_graph_nodes=100)
        with pytest.raises(BudgetExceeded) as excinfo:
            guard.check(graph_nodes=101)
        assert excinfo.value.event.kind == "graph_ceiling"

    def test_unlimited_guard_never_trips(self):
        guard = RunGuard()
        guard.check(recomputations=10**9, queue_size=10**9, graph_nodes=10**9)
        assert guard.events == []


class TestEngineWithGuard:
    def test_converged_run_is_completed(self):
        result = _engine().run()
        assert result.completed
        assert result.stop_reason == "converged"

    def test_config_budget_sets_stop_reason(self):
        # The satellite fix: the max_recomputations break is no longer
        # silent — the result says the run was truncated and why.
        result = _engine(EngineConfig(max_recomputations=3)).run()
        assert not result.completed
        assert result.stop_reason == "budget"
        assert any(event.kind == "budget" for event in result.degradations)
        assert result.degraded

    def test_guard_deadline_degrades_gracefully(self):
        result = _engine().run(guard=RunGuard(deadline_seconds=0.0))
        assert not result.completed
        assert result.stop_reason == "deadline"
        assert any(event.kind == "deadline" for event in result.degradations)
        # The partial partition still covers every reference.
        refs = [ref for cluster in result.clusters("Person") for ref in cluster]
        assert sorted(refs) == [f"p{i}" for i in range(1, 10)]

    def test_raise_on_trip(self):
        engine = _engine()
        with pytest.raises(DeadlineExceeded):
            engine.run(guard=RunGuard(deadline_seconds=0.0), raise_on_trip=True)
        # State is finalized, so the partial result is still available.
        assert engine.partial_result().stop_reason == "deadline"

    def test_guard_budget_result_matches_config_budget(self):
        via_guard = _engine().run(guard=RunGuard(max_recomputations=3))
        via_config = _engine(EngineConfig(max_recomputations=3)).run()
        assert via_guard.partitions == via_config.partitions
        assert via_guard.stop_reason == via_config.stop_reason == "budget"


class TestCheckpoint:
    def test_save_load_round_trip(self, tmp_path):
        engine = _engine()
        engine.build()
        path = save_checkpoint(engine, tmp_path / "ckpt.json")
        payload = load_checkpoint(path)
        assert payload["built"] is True
        assert payload["queue"]["entries"]

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        engine = _engine()
        engine.build()
        save_checkpoint(engine, tmp_path / "ckpt.json")
        save_checkpoint(engine, tmp_path / "ckpt.json")  # overwrite path
        leftovers = [p for p in tmp_path.iterdir() if p.name != "ckpt.json"]
        assert leftovers == []

    def test_corrupt_checkpoint_is_refused(self, tmp_path):
        engine = _engine()
        engine.build()
        path = save_checkpoint(engine, tmp_path / "ckpt.json")
        corrupt_checkpoint(path, seed=3)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_checkpoint_is_refused(self, tmp_path):
        engine = _engine()
        engine.build()
        path = save_checkpoint(engine, tmp_path / "ckpt.json")
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_checkpoint_is_refused(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.json")

    def test_version_1_checkpoint_is_refused(self, tmp_path):
        # Version 1 stats carried five counters EngineStats no longer
        # has; the version check must refuse such a file with a typed
        # error before its stats reach EngineStats(**stats).
        engine = _engine()
        engine.build()
        path = save_checkpoint(engine, tmp_path / "ckpt.json")
        payload = json.loads(path.read_text())["payload"]
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "checksum": hashlib.sha256(body.encode()).hexdigest(),
                    "payload": payload,
                }
            )
        )
        domain = PimDomainModel()
        store = ReferenceStore(domain.schema, example1_references())
        with pytest.raises(CheckpointError, match="version 1"):
            Reconciler.resume(path, store=store, domain=domain)

    def test_config_mismatch_is_refused(self, tmp_path):
        engine = _engine()
        engine.build()
        path = save_checkpoint(engine, tmp_path / "ckpt.json")
        domain = PimDomainModel()
        store = ReferenceStore(domain.schema, example1_references())
        with pytest.raises(CheckpointError):
            Reconciler.resume(
                path, store=store, domain=domain,
                config=EngineConfig(enrich=False),
            )

    def test_crash_resume_reaches_identical_partition(self, tmp_path):
        domain = PimDomainModel()
        uninterrupted = _engine()
        expected = uninterrupted.run()

        engine = _engine(observers=[CrashAtStep(5)])
        checkpointer = Checkpointer(tmp_path, every=1)
        with pytest.raises(InjectedFault):
            engine.run(checkpointer=checkpointer)
        store = ReferenceStore(domain.schema, example1_references())
        resumed = Reconciler.resume(checkpointer.path, store=store, domain=domain)
        result = resumed.run()
        assert result.partitions == expected.partitions
        assert resumed.stats.merges == uninterrupted.stats.merges
        assert resumed.stats.recomputations == uninterrupted.stats.recomputations

    def test_crash_before_first_step_still_resumable(self, tmp_path):
        domain = PimDomainModel()
        expected = _engine().run()
        engine = _engine(observers=[CrashAtStep(0)])
        checkpointer = Checkpointer(tmp_path, every=100)
        with pytest.raises(InjectedFault):
            engine.run(checkpointer=checkpointer)
        store = ReferenceStore(domain.schema, example1_references())
        resumed = Reconciler.resume(checkpointer.path, store=store, domain=domain)
        assert resumed.run().partitions == expected.partitions


class TestResilientReconciler:
    def _store(self):
        domain = PimDomainModel()
        return ReferenceStore(domain.schema, example1_references()), domain

    def test_partial_fallback_returns_truncated_partition(self):
        store, domain = self._store()
        wrapper = ResilientReconciler(
            store, domain, guard=RunGuard(deadline_seconds=0.0)
        )
        result = wrapper.run()
        assert not result.completed
        assert result.stop_reason == "deadline"
        refs = [ref for cluster in result.clusters("Person") for ref in cluster]
        assert sorted(refs) == [f"p{i}" for i in range(1, 10)]

    def test_indepdec_fallback_substitutes_unresolved_classes(self):
        from repro.baselines import indepdec_config

        store, domain = self._store()
        wrapper = ResilientReconciler(
            store, domain,
            guard=RunGuard(deadline_seconds=0.0),
            fallback="indepdec",
        )
        result = wrapper.run()
        assert not result.completed
        assert any(event.kind == "fallback" for event in result.degradations)
        baseline = Reconciler(
            self._store()[0], domain, indepdec_config(domain)
        ).run()
        # Classes with queued work were re-resolved by the baseline.
        fallback_event = next(
            event for event in result.degradations if event.kind == "fallback"
        )
        assert "InDepDec" in fallback_event.detail
        for class_name in ("Person",):
            assert result.partitions[class_name] == baseline.partitions[class_name]

    def test_fallback_degradation_takes_the_engine_path(self, tmp_path):
        """The InDepDec fallback is recorded once everywhere a
        degradation goes: the stats, the result, the flight recorder's
        ring and the event log."""
        store, domain = self._store()
        recorder = FlightRecorder()
        telemetry = Telemetry(log=EventLog(tmp_path / "events.jsonl"))
        wrapper = ResilientReconciler(
            store, domain,
            guard=RunGuard(deadline_seconds=0.0),
            fallback="indepdec",
            observers=[telemetry, recorder],
        )
        result = wrapper.run()
        telemetry.close()
        engine = wrapper.reconciler

        def fallbacks(kinds):
            return sum(1 for kind in kinds if kind == "fallback")

        assert fallbacks(e.kind for e in engine.stats.degradations) == 1
        assert fallbacks(e.kind for e in result.degradations) == 1
        assert fallbacks(e["kind"] for e in recorder.degradations) == 1
        events = [
            json.loads(line)
            for line in (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        assert fallbacks(
            e["kind"] for e in events if e["event"] == "degradation"
        ) == 1

    def test_untripped_guard_returns_converged_run(self):
        store, domain = self._store()
        wrapper = ResilientReconciler(store, domain, guard=RunGuard())
        result = wrapper.run()
        assert result.completed
        assert result.stop_reason == "converged"

    def test_unknown_fallback_rejected(self):
        store, domain = self._store()
        with pytest.raises(ValueError):
            ResilientReconciler(store, domain, fallback="wishful")


class TestFaultInjectors:
    def test_crash_at_step_fires_once(self):
        hook = CrashAtStep(0)
        with pytest.raises(InjectedFault):
            hook.on_step(None, 0)
        hook.on_step(None, 1)  # second call is a no-op

    def test_inject_malformed_lines_deterministic(self, tmp_path):
        path = tmp_path / "refs.jsonl"
        records = [json.dumps({"id": f"r{i}", "class": "Person", "values": {}})
                   for i in range(50)]
        path.write_text("\n".join(records) + "\n")
        lines_a = inject_malformed_lines(path, rate=0.1, seed=4)
        path.write_text("\n".join(records) + "\n")
        lines_b = inject_malformed_lines(path, rate=0.1, seed=4)
        assert lines_a == lines_b
        assert lines_a  # at least one line corrupted

    def test_degradation_event_is_serialisable(self):
        event = DegradationEvent(kind="budget", detail="x", recomputations=3)
        round_tripped = DegradationEvent(**dataclasses.asdict(event))
        assert round_tripped == event
