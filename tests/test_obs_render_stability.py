"""Golden byte-stability for the text renderers: the --stats block,
degradation and quarantine notices, and the diff text must render the
exact same bytes for the same inputs, run after run."""

from types import SimpleNamespace

from repro.core import EngineConfig, Reconciler
from repro.core.engine import EngineStats
from repro.datasets import generate_pim_dataset
from repro.domains import PimDomainModel
from repro.obs import (
    render_degradations,
    render_diff,
    render_quarantine,
    render_stats,
)
from repro.obs.diffing import DiffVerdict, diff_runs
from repro.runtime.guards import DegradationEvent
from repro.similarity import clear_similarity_caches

STATS_GOLDEN = """\
engine stats:
  build 1.25s, iterate 0.50s (workers=1)
  candidate_pairs=120 pair_nodes=80 value_nodes=40 graph_nodes=120
  recomputations=150 merges=30 non_merges=50 fusions=4
  cache effectiveness:
    values cache   62.5% (5/8)
    contacts cache n/a
    feature cache  50.0% (2/4)
    pair-score memo 75.0% (3/4), prefilter skips 7"""


def _stats():
    return EngineStats(
        build_seconds=1.25,
        iterate_seconds=0.5,
        parallel_workers=1,
        candidate_pairs=120,
        pair_nodes=80,
        value_nodes=40,
        graph_nodes=120,
        recomputations=150,
        merges=30,
        non_merges=50,
        fusions=4,
        values_cache_hits=5,
        values_cache_misses=3,
        feature_cache_hits=2,
        feature_cache_misses=2,
        pair_memo_hits=3,
        pair_memo_misses=1,
        prefilter_skips=7,
    )


class TestGoldenText:
    def test_stats_golden(self):
        assert render_stats(_stats()) == STATS_GOLDEN
        assert render_stats(_stats()) == render_stats(_stats())

    def test_stats_golden_after_serial_fallback(self):
        # A pool failure shows up as a parallel_fallback degradation,
        # never as an extra --stats line.
        stats = _stats()
        stats.task_retries = 1
        assert render_stats(stats) == STATS_GOLDEN

    def test_degradations_golden(self):
        clean = SimpleNamespace(completed=True, stop_reason="converged", degradations=[])
        assert render_degradations(clean) == ""
        degraded = SimpleNamespace(
            completed=False,
            stop_reason="budget",
            degradations=[
                DegradationEvent(kind="deadline", detail="wall clock exceeded 10s"),
                DegradationEvent(kind="recompute_cap", detail="hit 150 recomputations"),
            ],
        )
        assert render_degradations(degraded) == (
            "run degraded: stop_reason=budget\n"
            "  [deadline] wall clock exceeded 10s\n"
            "  [recompute_cap] hit 150 recomputations"
        )

    def test_quarantine_golden(self):
        assert render_quarantine([]) == ""
        assert render_quarantine([1, 2, 3]) == (
            "quarantined 3 bad records (see quarantine.jsonl)"
        )

    def test_empty_diff_golden(self):
        verdict = DiffVerdict(
            run_a="a",
            run_b="b",
            datasets=("PIM B", "PIM B"),
            config_changes=[],
            partition_changed=False,
            quality_regressions=[],
            quality_improvements=[],
            flipped_pairs=[],
            flips_total=0,
            phase_regressions=[],
            new_degradations=[],
            completed_regression=False,
        )
        assert render_diff(verdict) == (
            "run diff: a vs b\n"
            "  datasets: PIM B\n"
            "  partition: identical\n"
            "  quality: unchanged\n"
            "  flipped merge decisions: none\n"
            "  verdict: clean"
        )


class TestCrossRunStability:
    def test_stats_stable_across_identical_runs(self):
        """Two cold runs over the same dataset render the same --stats
        block once wall-clock is pinned — every counter and cache rate
        is deterministic."""
        texts = []
        for _ in range(2):
            clear_similarity_caches()
            dataset = generate_pim_dataset("A", scale=0.15)
            engine = Reconciler(dataset.store, PimDomainModel(), EngineConfig())
            engine.run()
            engine.stats.build_seconds = 1.0
            engine.stats.iterate_seconds = 1.0
            texts.append(render_stats(engine.stats))
        assert texts[0] == texts[1]

    def test_diff_text_stable_across_recomputation(self):
        manifests = []
        for _ in range(2):
            clear_similarity_caches()
            dataset = generate_pim_dataset("A", scale=0.15)
            engine = Reconciler(dataset.store, PimDomainModel(), EngineConfig())
            engine.attach_convergence(dataset.gold.entity_of, every=25)
            from repro.obs import build_manifest

            manifests.append(
                build_manifest(
                    dataset=dataset, reconciler=engine, result=engine.run()
                )
            )
        texts = {
            render_diff(diff_runs(manifests[0], manifests[1])) for _ in range(2)
        }
        assert len(texts) == 1
        assert texts.pop().endswith("verdict: clean")
