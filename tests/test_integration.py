"""End-to-end integration tests on generated datasets.

These assert the *qualitative shape* of the paper's results at test
scale: DepGraph dominates InDepDec, context evidence drives the gains,
constraints protect precision, and the experiment drivers run. Where a
shape is one of the report's claims, its tolerance is read from that
claim, so the paper's shapes are stated once, in ``CLAIMS``.
"""

import pytest

from repro.baselines import indepdec_config
from repro.core import EngineConfig, Reconciler
from repro.domains import CoraDomainModel, PimDomainModel
from repro.evaluation import person_subset
from repro.evaluation.metrics import (
    entities_with_false_positives,
    pairwise_scores,
)
from repro.evaluation.report import CLAIMS


def _tolerance(table: str, statement: str) -> float:
    """The tolerance of the one claim of *table* whose statement starts
    with *statement*."""
    (claim,) = [
        claim
        for claim in CLAIMS
        if claim.table == table and claim.statement.startswith(statement)
    ]
    return claim.tolerance


@pytest.fixture(scope="module")
def pim_runs(tiny_pim_a):
    domain = PimDomainModel()
    runs = {}
    for label, config in (
        ("indepdec", indepdec_config(domain)),
        ("depgraph", EngineConfig()),
        ("no_constraints", EngineConfig(constraints=False)),
    ):
        reconciler = Reconciler(tiny_pim_a.store, PimDomainModel(), config)
        runs[label] = (reconciler, reconciler.run())
    return runs


class TestPimShape:
    def test_depgraph_dominates_indepdec(self, tiny_pim_a, pim_runs):
        gold = tiny_pim_a.gold.entity_of
        slack = _tolerance("Table 2", "DepGraph F >= InDepDec F")
        for class_name in ("Person", "Article", "Venue"):
            dep = pairwise_scores(pim_runs["depgraph"][1].clusters(class_name), gold)
            ind = pairwise_scores(pim_runs["indepdec"][1].clusters(class_name), gold)
            assert dep.f_measure >= ind.f_measure - slack, class_name

    def test_person_recall_gain(self, tiny_pim_a, pim_runs):
        gold = tiny_pim_a.gold.entity_of
        dep = pairwise_scores(pim_runs["depgraph"][1].clusters("Person"), gold)
        ind = pairwise_scores(pim_runs["indepdec"][1].clusters("Person"), gold)
        assert dep.recall > ind.recall
        assert dep.precision > 0.9

    def test_venue_recall_gain_via_propagation(self, tiny_pim_a, pim_runs):
        gold = tiny_pim_a.gold.entity_of
        dep = pairwise_scores(pim_runs["depgraph"][1].clusters("Venue"), gold)
        ind = pairwise_scores(pim_runs["indepdec"][1].clusters("Venue"), gold)
        assert dep.recall > ind.recall + _tolerance(
            "Table 2", "DepGraph gains more than {tol:g} Venue recall"
        )

    def test_constraints_protect_precision(self, tiny_pim_a, pim_runs):
        gold = tiny_pim_a.gold.entity_of
        constrained = pim_runs["depgraph"][1]
        unconstrained = pim_runs["no_constraints"][1]
        fp_with = entities_with_false_positives(constrained.clusters("Person"), gold)
        fp_without = entities_with_false_positives(
            unconstrained.clusters("Person"), gold
        )
        assert fp_with <= fp_without

    def test_partition_counts_approach_truth(self, tiny_pim_a, pim_runs):
        entities = tiny_pim_a.gold.entity_count("Person")
        dep = pim_runs["depgraph"][1].partition_count("Person")
        ind = pim_runs["indepdec"][1].partition_count("Person")
        assert entities <= dep <= ind


class TestSubsets:
    def test_subset_extraction(self, tiny_pim_a):
        email_subset = person_subset(tiny_pim_a, "email")
        bib_subset = person_subset(tiny_pim_a, "bibtex")
        email_subset.store.validate()
        bib_subset.store.validate()
        assert all(
            ref.class_name == "Person" for ref in email_subset.store
        )
        bib_classes = {ref.class_name for ref in bib_subset.store}
        assert bib_classes == {"Person", "Article", "Venue"}
        total_persons = tiny_pim_a.gold.reference_count("Person")
        assert (
            email_subset.gold.reference_count("Person")
            + bib_subset.gold.reference_count("Person")
            == total_persons
        )

    def test_particle_gain_is_large(self, tiny_pim_a):
        """Name-only references need associations (paper: +30.7%)."""
        domain = PimDomainModel()
        subset = person_subset(tiny_pim_a, "bibtex")
        gold = subset.gold.entity_of
        ind = Reconciler(subset.store, PimDomainModel(), indepdec_config(domain)).run()
        dep = Reconciler(subset.store, PimDomainModel(), EngineConfig()).run()
        ind_scores = pairwise_scores(ind.clusters("Person"), gold)
        dep_scores = pairwise_scores(dep.clusters("Person"), gold)
        assert dep_scores.recall > ind_scores.recall + _tolerance(
            "Table 3", "PArticle's Person recall gain is more than"
        )
        assert dep_scores.precision > 0.9


class TestCoraShape:
    def test_cora_table7_shape(self, tiny_cora):
        domain = CoraDomainModel()
        gold = tiny_cora.gold.entity_of
        ind = Reconciler(
            tiny_cora.store, CoraDomainModel(), indepdec_config(domain)
        ).run()
        dep = Reconciler(tiny_cora.store, CoraDomainModel(), EngineConfig()).run()
        slack = _tolerance("Table 7", "DepGraph F >= InDepDec F")
        for class_name in ("Person", "Article", "Venue"):
            ind_scores = pairwise_scores(ind.clusters(class_name), gold)
            dep_scores = pairwise_scores(dep.clusters(class_name), gold)
            assert dep_scores.f_measure >= ind_scores.f_measure - slack, class_name
        # The venue two-fold effect.
        ind_venue = pairwise_scores(ind.clusters("Venue"), gold)
        dep_venue = pairwise_scores(dep.clusters("Venue"), gold)
        assert dep_venue.recall > ind_venue.recall + _tolerance(
            "Table 7", "Cora venue propagation"
        )

    def test_cora_person_precision(self, tiny_cora):
        gold = tiny_cora.gold.entity_of
        dep = Reconciler(tiny_cora.store, CoraDomainModel(), EngineConfig()).run()
        scores = pairwise_scores(dep.clusters("Person"), gold)
        assert scores.precision > 0.9


class TestDatasetDSignature:
    def test_owner_split_costs_recall_not_precision(self, tiny_pim_d):
        gold = tiny_pim_d.gold.entity_of
        dep = Reconciler(tiny_pim_d.store, PimDomainModel(), EngineConfig()).run()
        scores = pairwise_scores(dep.clusters("Person"), gold)
        assert scores.precision > 0.85
        # The owner is split by constraint 3: her references land in
        # more than one partition.
        owner = tiny_pim_d.world.owner_id
        owner_clusters = [
            cluster
            for cluster in dep.clusters("Person")
            if any(gold[ref] == owner for ref in cluster)
        ]
        assert len(owner_clusters) >= 2
        # Without constraints the owner reunites.
        free = Reconciler(
            tiny_pim_d.store, PimDomainModel(), EngineConfig(constraints=False)
        ).run()
        free_owner_clusters = [
            cluster
            for cluster in free.clusters("Person")
            if any(gold[ref] == owner for ref in cluster)
        ]
        assert len(free_owner_clusters) <= len(owner_clusters)
