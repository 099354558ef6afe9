"""Parallel build determinism: ``--workers N`` must be byte-identical
to a serial build — same partitions, same merge trail, same graph
counters — on every dataset family."""

import multiprocessing
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, Reconciler
from repro.datasets import generate_cora_dataset, generate_pim_dataset
from repro.datasets.cora import CoraConfig
from repro.domains import CoraDomainModel, PimDomainModel
from repro.perf.parallel import domain_spec
from repro.perf.scoring import pair_evidence
from repro.runtime import SupervisedScorer

# Stats fields that must be identical between serial and parallel runs.
# Cache and memo counters are deliberately excluded: workers keep
# process-local memos, so those counters describe cache behaviour, not
# algorithm decisions.
_DETERMINISTIC_STATS = (
    "pair_nodes",
    "value_nodes",
    "graph_nodes",
    "candidate_pairs",
    "recomputations",
    "merges",
    "non_merges",
    "premerged_unions",
    "constraint_pairs",
    "fusions",
    "queue_front_pushes",
    "queue_back_pushes",
    "skipped_weak_fanout",
    "per_class_nodes",
)


def _run(store, domain, workers):
    config = replace(EngineConfig(), workers=workers)
    engine = Reconciler(store, domain, config)
    result = engine.run()
    return result, engine.stats


def _assert_identical(store, domain_cls, workers):
    serial_result, serial_stats = _run(store, domain_cls(), 1)
    parallel_result, parallel_stats = _run(store, domain_cls(), workers)
    assert parallel_result.partitions == serial_result.partitions
    for field_name in _DETERMINISTIC_STATS:
        assert getattr(parallel_stats, field_name) == getattr(
            serial_stats, field_name
        ), field_name
    assert parallel_stats.parallel_workers == workers
    assert not any(
        event.kind == "parallel_fallback" for event in parallel_stats.degradations
    )


@pytest.mark.parametrize("name", ["A", "B", "C", "D"])
def test_pim_datasets_identical(name):
    dataset = generate_pim_dataset(name, scale=0.2)
    _assert_identical(dataset.store, PimDomainModel, 2)


def test_cora_identical(tiny_cora):
    _assert_identical(tiny_cora.store, CoraDomainModel, 2)


def test_four_workers_identical(tiny_pim_a):
    _assert_identical(tiny_pim_a.store, PimDomainModel, 4)


@given(
    name=st.sampled_from(["A", "B", "D"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=4, deadline=None)
def test_random_micro_worlds_identical(name, seed):
    dataset = generate_pim_dataset(name, scale=0.15, seed=seed)
    _assert_identical(dataset.store, PimDomainModel, 2)


class TestFallback:
    def test_local_domain_falls_back_to_serial(self, tiny_pim_a):
        class LocalDomain(PimDomainModel):
            """Not importable by workers: defined inside a function."""

        assert domain_spec(LocalDomain()) is None
        with pytest.raises(ValueError):
            SupervisedScorer(LocalDomain(), 2)

        config = replace(EngineConfig(), workers=4)
        engine = Reconciler(tiny_pim_a.store, LocalDomain(), config)
        result = engine.run()
        assert engine.stats.parallel_workers == 1
        assert any(
            event.kind == "parallel_fallback" for event in engine.stats.degradations
        )
        # Degraded, but correct: identical to a plain serial run.
        baseline = Reconciler(tiny_pim_a.store, PimDomainModel()).run()
        assert result.partitions == baseline.partitions

    def test_single_worker_pool_rejected(self):
        with pytest.raises(ValueError):
            SupervisedScorer(PimDomainModel(), 1)


class TestPoolHygiene:
    def test_score_preserves_pair_order(self, tiny_pim_a):
        """Results come back in the order of the pairs, whichever worker
        finished first: the engine zips them with its pair list."""
        domain = PimDomainModel()
        class_name = "Person"
        references = tiny_pim_a.store.of_class(class_name)[:12]
        pairs = [
            (left.ref_id, right.ref_id)
            for i, left in enumerate(references)
            for right in references[i + 1 :]
        ]
        values = {ref.ref_id: dict(ref.values) for ref in references}
        channels = domain.atomic_channels(class_name)
        names = tuple(channel.name for channel in channels)
        with SupervisedScorer(domain, 2) as scorer:
            results = scorer.score(class_name, names, pairs, values)
        expected = [
            pair_evidence(channels, values[left], values[right], {})
            for left, right in pairs
        ]
        assert results == expected

    def test_failed_score_leaves_no_worker_processes(self):
        """A failure inside ``score`` re-raises and kills the pool
        without leaking children."""
        domain = PimDomainModel()
        scorer = SupervisedScorer(domain, 2)
        class_name = domain.class_order()[0]
        pairs = [("x", "y"), ("y", "z")]
        values = {"x": {}, "y": {}, "z": {}}
        # An unknown channel name makes every worker raise KeyError.
        with scorer, pytest.raises(KeyError):
            scorer.score(class_name, ("no-such-channel",), pairs, values)
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not multiprocessing.active_children()


class TestCliIntegration:
    def test_workers_and_stats_flags(self, tmp_path, capsys):
        from repro.cli import main
        from repro.datasets.io import save_dataset
        from repro.obs import load_manifest

        dataset = generate_pim_dataset("A", scale=0.15)
        save_dataset(dataset, tmp_path / "ds")
        baseline = main(["reconcile", str(tmp_path / "ds"), "--output",
                         str(tmp_path / "serial.json")])
        assert baseline == 0
        code = main(["reconcile", str(tmp_path / "ds"), "--workers", "2",
                     "--run-dir", str(tmp_path / "run"),
                     "--output", str(tmp_path / "parallel.json")])
        assert code == 0
        execution = load_manifest(tmp_path / "run")["execution"]
        assert execution["parallel_workers"] == 2
        assert set(execution["cache_hit_rates"]) == {
            "values", "contacts", "feature", "pair_memo",
        }
        assert (tmp_path / "serial.json").read_text() == (
            tmp_path / "parallel.json"
        ).read_text()

    def test_evaluate_accepts_workers(self, tmp_path, capsys):
        from repro.cli import main
        from repro.datasets.io import save_dataset
        from repro.obs import load_manifest

        dataset = generate_cora_dataset(
            CoraConfig(n_papers=12, n_citations=60, n_authors=25, n_venues=6)
        )
        save_dataset(dataset, tmp_path / "cora")
        code = main(["evaluate", str(tmp_path / "cora"), "--workers", "2",
                     "--run-dir", str(tmp_path / "run")])
        assert code == 0
        captured = capsys.readouterr()
        assert "pairwise" in captured.out
        execution = load_manifest(tmp_path / "run")["execution"]
        assert execution["parallel_workers"] == 2
        assert execution["cache_hit_rates"]["pair_memo"] is not None
