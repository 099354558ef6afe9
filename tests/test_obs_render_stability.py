"""Golden byte-stability for the text renderers: degradation and
quarantine notices and the diff text must render the exact same bytes
for the same inputs, run after run; so must the run summary's counters
and cache hit rates."""

from types import SimpleNamespace

from repro.core import EngineConfig, Reconciler
from repro.datasets import generate_pim_dataset
from repro.domains import PimDomainModel
from repro.obs import (
    build_manifest,
    render_degradations,
    render_diff,
    render_quarantine,
)
from repro.obs.diffing import DiffVerdict, diff_runs
from repro.runtime.guards import DegradationEvent
from repro.similarity import clear_similarity_caches


class TestGoldenText:
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
        """Two cold runs over the same dataset record the same counters
        and cache hit rates in their manifests — every counter and
        cache rate is deterministic."""
        recorded = []
        for _ in range(2):
            clear_similarity_caches()
            dataset = generate_pim_dataset("A", scale=0.15)
            engine = Reconciler(dataset.store, PimDomainModel(), EngineConfig())
            manifest = build_manifest(dataset=dataset, reconciler=engine, result=engine.run())
            execution = manifest["execution"]
            recorded.append(
                (manifest["counters"], execution["cache_hit_rates"], execution["prefilter_skips"])
            )
        assert recorded[0] == recorded[1]

    def test_diff_text_stable_across_recomputation(self):
        manifests = []
        for _ in range(2):
            clear_similarity_caches()
            dataset = generate_pim_dataset("A", scale=0.15)
            engine = Reconciler(dataset.store, PimDomainModel(), EngineConfig())
            engine.attach_convergence(dataset.gold.entity_of, every=25)
            manifests.append(
                build_manifest(
                    dataset=dataset, reconciler=engine, result=engine.run()
                )
            )
        # This checks rendering, not timing: a phase floor no host stall
        # reaches keeps a scheduler pause from turning the verdict.
        texts = {
            render_diff(diff_runs(manifests[0], manifests[1], phase_floor=3600.0))
            for _ in range(2)
        }
        assert len(texts) == 1
        assert texts.pop().endswith("verdict: clean")
