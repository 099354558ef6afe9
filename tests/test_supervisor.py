"""Supervised execution layer: retry policy, chaos recovery, the
degradation ladder, poisoned-pair quarantine and its serial oracle.

The contract under test (see ``runtime/supervisor.py``): worker
crashes, hangs and comparator exceptions never escape, never leak
worker processes, and never change the computed partition — except
through *poisoned pairs*, whose effect is provably limited to scoring
exactly those pairs as no-merge (the suppression-oracle tests).
"""

import json
import multiprocessing
import random
import time
from dataclasses import replace

import pytest

from repro.core import EngineConfig, Reconciler
from repro.core.nodes import pair_key
from repro.datasets import generate_pim_dataset
from repro.domains import PimDomainModel
from repro.obs import Observer, Observers
from repro.runtime import ChaosInjector, RetryPolicy, SupervisedScorer


def _no_live_children(timeout: float = 10.0) -> bool:
    """True once every worker process has been reaped."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return not multiprocessing.active_children()


def _chaos_engine(store, chaos, tmp_path, workers=2, **config_kw):
    config = replace(
        EngineConfig(),
        workers=workers,
        retry_backoff=0.0,
        poison_log=str(tmp_path / "poisoned_pairs.jsonl"),
        **config_kw,
    )
    engine = Reconciler(store, PimDomainModel(), config)
    engine.chaos = chaos
    return engine


class TestRetryPolicy:
    def test_backoff_is_deterministic_for_a_seed(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_max=0.4, jitter=0.5)
        first = [policy.backoff(n, random.Random(7)) for n in range(1, 6)]
        second = [policy.backoff(n, random.Random(7)) for n in range(1, 6)]
        assert first == second

    def test_backoff_grows_exponentially_within_bounds(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_max=0.4, jitter=0.5)
        rng = random.Random(3)
        for attempt in range(1, 8):
            base = min(0.4, 0.1 * 2 ** (attempt - 1))
            delay = policy.backoff(attempt, rng)
            assert base <= delay <= base * 1.5

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(backoff_base=0.2, backoff_max=1.0, jitter=0.0)
        assert policy.backoff(1, random.Random(0)) == pytest.approx(0.2)
        assert policy.backoff(3, random.Random(0)) == pytest.approx(0.8)
        assert policy.backoff(30, random.Random(0)) == pytest.approx(1.0)


class TestCleanRuns:
    def test_supervised_run_matches_serial_with_zero_counters(self, tiny_pim_a):
        serial = Reconciler(tiny_pim_a.store, PimDomainModel()).run()
        config = replace(EngineConfig(), workers=2)
        engine = Reconciler(tiny_pim_a.store, PimDomainModel(), config)
        result = engine.run()
        assert result.partitions == serial.partitions
        stats = engine.stats
        assert stats.task_retries == 0
        assert stats.task_timeouts == 0
        assert stats.pool_rebuilds == 0
        assert stats.pairs_poisoned == 0
        assert _no_live_children()

    def test_rejects_unrebuildable_domain_and_tiny_pools(self):
        class LocalDomain(PimDomainModel):
            """Not importable by workers."""

        with pytest.raises(ValueError):
            SupervisedScorer(LocalDomain(), 2)
        with pytest.raises(ValueError):
            SupervisedScorer(PimDomainModel(), 1)


@pytest.mark.soak
class TestChaosRecovery:
    def test_single_worker_kill_recovers_identically(self, tiny_pim_a, tmp_path):
        serial = Reconciler(tiny_pim_a.store, PimDomainModel()).run()
        markers = tmp_path / "markers"
        markers.mkdir()
        chaos = ChaosInjector(kill_at_chunk=0, marker_dir=str(markers))
        engine = _chaos_engine(tiny_pim_a.store, chaos, tmp_path)
        result = engine.run()
        assert result.completed
        assert result.partitions == serial.partitions
        assert engine.stats.pool_rebuilds >= 1
        assert engine.stats.pairs_poisoned == 0
        assert not (tmp_path / "poisoned_pairs.jsonl").exists()
        assert _no_live_children()

    def test_persistent_kills_walk_ladder_to_serial(self, tiny_pim_a, tmp_path):
        serial = Reconciler(tiny_pim_a.store, PimDomainModel()).run()
        # No marker dir: every fresh worker dies on its first chunk, so
        # the only way out is the full ladder: 4 -> 2 -> serial.
        engine = _chaos_engine(
            tiny_pim_a.store, ChaosInjector(kill_at_chunk=0), tmp_path, workers=4
        )
        result = engine.run()
        assert result.completed
        assert result.partitions == serial.partitions
        kinds = {event.kind for event in engine.stats.degradations}
        assert "pool_rebuild" in kinds
        assert "parallel_fallback" in kinds
        assert engine.stats.parallel_workers == 1
        assert engine.stats.pairs_poisoned == 0
        assert _no_live_children()

    def test_hang_trips_deadline_and_recovers(self, tiny_pim_a, tmp_path):
        serial = Reconciler(tiny_pim_a.store, PimDomainModel()).run()
        markers = tmp_path / "markers"
        markers.mkdir()
        chaos = ChaosInjector(
            hang_at_chunk=0, hang_seconds=60.0, marker_dir=str(markers)
        )
        engine = _chaos_engine(
            tiny_pim_a.store, chaos, tmp_path, task_timeout=2.0
        )
        result = engine.run()
        assert result.completed
        assert result.partitions == serial.partitions
        assert engine.stats.task_timeouts >= 1
        assert engine.stats.pool_rebuilds >= 1
        assert engine.stats.pairs_poisoned == 0
        assert _no_live_children()


def _scoring_inputs(dataset):
    """Real scoring inputs (class, channel names, pairs, values) for the
    class with the most candidate pairs — what the engine would hand the
    scorer during its build."""
    engine = Reconciler(dataset.store, PimDomainModel())
    engine.build()
    best, pairs = None, []
    for class_name, index in engine._block_indexes.items():
        candidates = list(index.pairs())
        if len(candidates) > len(pairs):
            best, pairs = class_name, candidates
    channels = engine.enabled_atomic_channels(best)
    values = {}
    for pair in pairs:
        for element in pair:
            if element not in values:
                values[element] = dict(engine._element_values(element))
    return best, tuple(channel.name for channel in channels), pairs, values


class _RecordingObserver(Observer):
    def __init__(self):
        self.events = []

    def on_event(self, level, event, **fields):
        self.events.append((level, event, fields))


class TestPoisoning:
    def test_bisection_isolates_exactly_the_poisoned_pair(
        self, tiny_pim_a, tmp_path
    ):
        class_name, channel_names, pairs, values = _scoring_inputs(tiny_pim_a)
        assert len(pairs) >= 4, "fixture too small to exercise bisection"
        target = pairs[len(pairs) // 2]
        recorder = _RecordingObserver()
        poison_path = tmp_path / "poisoned_pairs.jsonl"
        scorer = SupervisedScorer(
            PimDomainModel(),
            2,
            RetryPolicy(max_retries=1, backoff_base=0.0, jitter=0.0),
            observers=Observers([recorder]),
            poison_path=poison_path,
            chaos=ChaosInjector(raise_pairs=(target,)),
        )
        with scorer:
            results = scorer.score(class_name, channel_names, pairs, values)
        assert len(results) == len(pairs)
        assert scorer.counters["pair_poisoned"] == 1
        assert results[pairs.index(target)] == []

        with SupervisedScorer(PimDomainModel(), 2) as clean:
            expected = clean.score(class_name, channel_names, pairs, values)
        for position, pair in enumerate(pairs):
            if pair != target:
                assert results[position] == expected[position], pair

        entries = [
            json.loads(line) for line in poison_path.read_text().splitlines()
        ]
        assert entries == scorer.poisoned
        assert entries[0]["pair"] == sorted(target)
        assert entries[0]["class"] == class_name
        assert "InjectedFault" in entries[0]["reason"]
        emitted = {event for _, event, _ in recorder.events}
        assert "task_retry" in emitted
        assert "pair_poisoned" in emitted
        assert _no_live_children()

    def test_poisoned_run_matches_suppression_oracle(self, tmp_path):
        dataset = generate_pim_dataset("A", scale=0.15, seed=7)
        baseline = Reconciler(dataset.store, PimDomainModel())
        baseline_result = baseline.run()
        node_keys = {
            pair_key(node.left, node.right) for node in baseline.graph.nodes()
        }
        candidates = sorted(
            pair
            for index in baseline._block_indexes.values()
            for pair in index.pairs()
        )
        # Poison a pair that actually carries a node, so the suppression
        # is observable rather than vacuous.
        target = next(
            pair for pair in candidates if pair_key(*pair) in node_keys
        )

        engine = _chaos_engine(
            dataset.store, ChaosInjector(raise_pairs=(target,)), tmp_path
        )
        result = engine.run()
        assert result.completed
        assert engine.stats.pairs_poisoned == 1
        assert pair_key(*target) in engine.suppressed_pairs
        assert (tmp_path / "poisoned_pairs.jsonl").exists()

        oracle = Reconciler(dataset.store, PimDomainModel())
        oracle.suppressed_pairs = {pair_key(*target)}
        oracle_result = oracle.run()
        assert result.partitions == oracle_result.partitions
        # One poisoned pair degrades one decision, never the run: the
        # rest of the partition still matches the clean baseline's
        # clusters restricted to untouched elements.
        assert result.stop_reason == baseline_result.stop_reason == "converged"
        assert _no_live_children()


class TestMidBuildPoolFailure:
    def test_broken_pool_mid_build_degrades_instead_of_raising(
        self, tiny_pim_a, monkeypatch
    ):
        from concurrent.futures.process import BrokenProcessPool

        class ExplodingScorer:
            """Stands in for SupervisedScorer: its interface, no pool."""

            current_workers = 2

            def __init__(self):
                self.shutdowns = 0
                self.counters = dict.fromkeys(
                    ("task_retry", "task_timeout", "pool_rebuild", "pair_poisoned"), 0
                )
                self.poisoned = []

            def score(self, *args, **kwargs):
                raise BrokenProcessPool("worker died mid-build")

            def shutdown(self):
                self.shutdowns += 1

        stub = ExplodingScorer()
        config = replace(EngineConfig(), workers=2)
        engine = Reconciler(tiny_pim_a.store, PimDomainModel(), config)
        monkeypatch.setattr(engine, "_make_scorer", lambda: stub)
        result = engine.run()
        assert result.completed
        kinds = {event.kind for event in engine.stats.degradations}
        assert "parallel_fallback" in kinds
        assert engine.stats.parallel_workers == 1
        assert stub.shutdowns >= 1
        baseline = Reconciler(tiny_pim_a.store, PimDomainModel()).run()
        assert result.partitions == baseline.partitions
