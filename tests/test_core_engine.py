"""Engine behaviour tests: the paper's worked examples, modes,
configuration switches, invariants, and determinism."""

import pytest

from repro.baselines import (
    ARTICLE,
    ATTR_WISE,
    CONTACT,
    NAME_EMAIL,
    ablation_config,
    indepdec_config,
)
from repro.core import (
    FULL,
    MERGE,
    PROPAGATION,
    TRADITIONAL,
    EngineConfig,
    Reconciler,
    Reference,
    ReferenceStore,
)
from repro.core.nodes import NodeStatus
from repro.domains import PimDomainModel
from repro.runtime import RunGuard

from .conftest import example1_references


def run_example1(config=None, mutate=None, guard=None):
    refs = example1_references()
    if mutate:
        refs = mutate(refs)
    domain = PimDomainModel()
    store = ReferenceStore(domain.schema, refs)
    reconciler = Reconciler(store, domain, config or EngineConfig())
    return reconciler, reconciler.run(guard=guard)


class TestExample1:
    """Figure 1(c), the paper's canonical walk-through."""

    def test_full_depgraph_reproduces_figure_1c(self):
        _, result = run_example1()
        assert result.clusters("Article") == [["a1", "a2"]]
        assert result.clusters("Venue") == [["c1", "c2"]]
        assert result.clusters("Person") == [
            ["p1", "p4"],
            ["p2", "p5", "p8", "p9"],
            ["p3", "p6", "p7"],
        ]

    def test_matt_blocked_by_constraints(self):
        """§3.4's negative-evidence example: "Matt" must not join the
        Michael Stonebraker cluster."""

        def swap_mike(refs):
            return [
                Reference("p9", "Person", {"name": ("Matt",), "email": ("stonebraker@csail.mit.edu",)})
                if ref.ref_id == "p9"
                else ref
                for ref in refs
            ]

        _, result = run_example1(mutate=swap_mike)
        assert not result.same_entity("p9", "p2")
        assert not result.same_entity("p9", "p5")
        # But p8 and Matt share an address: one mailbox.
        assert result.same_entity("p8", "p9")

    def test_matt_wrongly_merged_without_constraints(self):
        """Without §3.4 the algorithm makes exactly the mistake the
        paper warns about."""

        def swap_mike(refs):
            return [
                Reference("p9", "Person", {"name": ("Matt",), "email": ("stonebraker@csail.mit.edu",)})
                if ref.ref_id == "p9"
                else ref
                for ref in refs
            ]

        _, result = run_example1(EngineConfig(constraints=False), mutate=swap_mike)
        assert result.same_entity("p9", "p5")

    def test_indepdec_misses_context_merges(self):
        domain = PimDomainModel()
        _, result = run_example1(indepdec_config(domain))
        # Name-equal full names merge; abbreviated pairs do not.
        assert result.same_entity("p3", "p7")
        assert not result.same_entity("p1", "p4")
        assert not result.same_entity("p5", "p8")
        # Key attribute still honoured.
        assert result.same_entity("p8", "p9")

    def test_coauthor_constraint_installed(self):
        reconciler, result = run_example1()
        # Authors of one paper are pairwise distinct.
        assert not result.same_entity("p1", "p2")
        assert not result.same_entity("p2", "p3")
        assert reconciler.stats.constraint_pairs >= 6


class TestModes:
    def test_traditional_misses_propagation_merges(self):
        _, full_result = run_example1(ablation_config(CONTACT, FULL))
        _, trad_result = run_example1(ablation_config(CONTACT, TRADITIONAL))
        assert full_result.partition_count("Person") <= trad_result.partition_count(
            "Person"
        )

    def test_enrichment_alone_gets_partway(self):
        """MERGE mode (enrichment, no propagation): the pooled p8+p9
        evidence reaches p2 within the single person pass, but the
        p5 chain needs article propagation on top (FULL mode)."""
        _, merge_result = run_example1(ablation_config(CONTACT, MERGE))
        assert merge_result.same_entity("p2", "p8")
        assert merge_result.same_entity("p2", "p9")
        assert not merge_result.same_entity("p5", "p8")
        _, full_result = run_example1(ablation_config(CONTACT, FULL))
        assert full_result.same_entity("p5", "p8")

    def test_attr_wise_is_weakest(self):
        _, attr_result = run_example1(ablation_config(ATTR_WISE, FULL))
        _, contact_result = run_example1(ablation_config(CONTACT, FULL))
        assert contact_result.partition_count("Person") <= attr_result.partition_count(
            "Person"
        )

    def test_evidence_levels_monotone_on_example(self):
        counts = []
        for evidence in (ATTR_WISE, NAME_EMAIL, ARTICLE, CONTACT):
            _, result = run_example1(ablation_config(evidence, FULL))
            counts.append(result.partition_count("Person"))
        assert counts == sorted(counts, reverse=True)


class TestInvariants:
    def test_determinism(self):
        _, first = run_example1()
        _, second = run_example1()
        assert first.partitions == second.partitions

    def test_fifo_reaches_same_fixed_point(self):
        _, front = run_example1(EngineConfig(strong_to_front=True))
        _, fifo = run_example1(EngineConfig(strong_to_front=False))
        assert front.partitions == fifo.partitions

    def test_scores_in_range_and_statuses_final(self):
        reconciler, _ = run_example1()
        for node in reconciler.graph.nodes():
            assert 0.0 <= node.score <= 1.0
            assert node.status in (
                NodeStatus.MERGED,
                NodeStatus.INACTIVE,
                NodeStatus.NON_MERGE,
            )

    def test_merged_nodes_connected_non_merge_disconnected(self):
        reconciler, _ = run_example1()
        for node in reconciler.graph.nodes():
            if node.status is NodeStatus.MERGED:
                assert reconciler.uf.connected(node.left, node.right)
            if node.status is NodeStatus.NON_MERGE:
                assert not reconciler.uf.connected(node.left, node.right)

    def test_queue_drains(self):
        reconciler, _ = run_example1()
        assert len(reconciler.queue) == 0

    def test_max_recomputations_budget(self):
        reconciler, result = run_example1(guard=RunGuard(max_recomputations=3))
        assert reconciler.stats.recomputations <= 3
        # Still returns a valid (partial) partition.
        assert sum(len(c) for c in result.clusters("Person")) == 9

    def test_run_builds_lazily_and_is_idempotent_on_build(self):
        domain = PimDomainModel()
        store = ReferenceStore(domain.schema, example1_references())
        reconciler = Reconciler(store, domain, EngineConfig())
        reconciler.build()
        nodes_after_build = reconciler.graph.pair_nodes_created
        result = reconciler.run()
        assert reconciler.graph.pair_nodes_created >= nodes_after_build
        assert result.partition_count("Article") == 1


class TestConfigSwitches:
    def test_disabled_channel_removes_evidence(self):
        config = EngineConfig(disabled_channels=frozenset({"name_email"}))
        _, result = run_example1(config)
        # Without the cross channel, p5 cannot reach p8/p9.
        assert not result.same_entity("p5", "p8")

    def test_disabled_strong_removes_article_propagation(self):
        config = EngineConfig(
            disabled_strong=frozenset({("Article", "Person")}),
            disabled_channels=frozenset({"name_email"}),
            disabled_weak=frozenset({"Person"}),
        )
        _, result = run_example1(config)
        assert not result.same_entity("p1", "p4")

    def test_premerge_toggle_same_result(self):
        _, with_premerge = run_example1(EngineConfig(premerge_keys=True))
        _, without = run_example1(EngineConfig(premerge_keys=False))
        assert with_premerge.partitions == without.partitions


class TestStats:
    def test_stats_populated(self):
        reconciler, _ = run_example1()
        stats = reconciler.stats
        assert stats.pair_nodes > 0
        assert stats.value_nodes > 0
        assert stats.graph_nodes == stats.pair_nodes + stats.value_nodes
        assert stats.merges > 0
        assert stats.recomputations >= stats.merges
        assert stats.build_seconds >= 0
        assert stats.per_class_nodes["Person"] >= 5
