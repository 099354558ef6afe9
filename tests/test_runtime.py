"""Tests for the fault-tolerant runtime: error taxonomy, run guards,
checkpoint/resume and the fault injectors."""

import dataclasses
import hashlib
import json
import math

import pytest

from repro.core import EngineConfig, Reconciler, ReferenceStore
from repro.core.queue import ActiveQueue
from repro.domains import PimDomainModel
from repro.obs import Observer
from repro.runtime import (
    CheckpointError,
    Checkpointer,
    CrashAtStep,
    DataError,
    DegradationEvent,
    InjectedFault,
    QueueEmpty,
    ReproError,
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
        for error in (DataError, QueueEmpty, CheckpointError, InjectedFault):
            assert issubclass(error, ReproError)

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
        assert guard.check(recomputations=1) is None
        cell[0] = 6.0
        event = guard.check(recomputations=2)
        assert event.kind == "deadline"
        assert event.recomputations == 2
        assert event.elapsed_seconds == 6.0

    def test_budget_trips(self):
        guard = RunGuard(max_recomputations=10)
        assert guard.check(recomputations=9) is None
        assert guard.check(recomputations=10, queue_size=4).kind == "budget"

    def test_unlimited_guard_never_trips(self):
        guard = RunGuard()
        assert guard.check(recomputations=10**9, queue_size=10**9) is None

    @pytest.mark.parametrize(
        ("argument", "value"),
        [
            ("deadline_seconds", math.nan),
            ("deadline_seconds", math.inf),
            ("deadline_seconds", -0.5),
            ("max_recomputations", -1),
            ("max_recomputations", 2.5),
            ("max_recomputations", True),
        ],
    )
    def test_limits_that_could_never_trip_are_rejected(self, argument, value):
        with pytest.raises(ValueError, match=argument):
            RunGuard(**{argument: value})

    def test_zero_limits_are_valid_and_trip_at_once(self):
        assert RunGuard(deadline_seconds=0).check().kind == "deadline"
        assert RunGuard(max_recomputations=0).check().kind == "budget"


class _AdvanceClockAfterBuild(Observer):
    """Makes the build look like it took ``seconds`` of wall clock."""

    def __init__(self, cell, seconds):
        self.cell = cell
        self.seconds = seconds

    def on_phase_end(self, engine, phase, **fields):
        if phase == "build":
            self.cell[0] += self.seconds


class TestEngineWithGuard:
    def test_converged_run_is_completed(self):
        result = _engine().run()
        assert result.completed
        assert result.stop_reason == "converged"

    def test_budget_sets_stop_reason(self):
        result = _engine().run(guard=RunGuard(max_recomputations=3))
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

    def test_deadline_counts_the_build(self):
        # --deadline is the whole run's wall-clock budget: a build that
        # alone outlasts it stops the run before its first step.
        cell = [0.0]
        engine = _engine(observers=[_AdvanceClockAfterBuild(cell, 10.0)])
        guard = RunGuard(deadline_seconds=5.0, clock=lambda: cell[0])
        result = engine.run(guard=guard)
        assert result.stop_reason == "deadline"
        assert engine.stats.recomputations == 0
        assert [event.kind for event in result.degradations] == ["deadline"]


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

    def _refuse_version(self, tmp_path, version):
        engine = _engine()
        engine.build()
        path = save_checkpoint(engine, tmp_path / "ckpt.json")
        payload = json.loads(path.read_text())["payload"]
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        path.write_text(
            json.dumps(
                {
                    "version": version,
                    "checksum": hashlib.sha256(body.encode()).hexdigest(),
                    "payload": payload,
                }
            )
        )
        domain = PimDomainModel()
        store = ReferenceStore(domain.schema, example1_references())
        with pytest.raises(CheckpointError, match=f"version {version}"):
            Reconciler.resume(path, store=store, domain=domain)

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_retired_checkpoint_version_is_refused(self, tmp_path, version):
        # Each retired version's payload has a shape this code no longer
        # reads (v1/v2: removed EngineStats counters; v3: the
        # max_recomputations config key; v4: the epsilon config key), so
        # the version check must refuse it with a typed error before it
        # is restored.
        self._refuse_version(tmp_path, version)

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
