"""Property-based engine tests over random micro-worlds.

Hypothesis generates small person/article reference sets; the engine
must uphold its invariants on every one of them: each reference lands
in exactly one partition, results are deterministic and queue-order
independent, enemies never share a cluster, and adding evidence can
only merge more (monotonicity at the system level).
"""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, Reconciler, Reference, ReferenceStore
from repro.core.nodes import NodeStatus, PairNode
from repro.datasets import generate_cora_dataset, generate_pim_dataset
from repro.datasets.cora import CoraConfig
from repro.datasets.generator.names import NamePool, format_name
from repro.domains import CoraDomainModel, PimDomainModel

_STYLES = ("first_last", "last_comma_initials", "initial_last", "nickname", "first_only")
_DOMAINS = ("x.edu", "y.org", "mail.com")


@st.composite
def micro_worlds(draw):
    """A handful of entities, each rendered as 2-5 references."""
    seed = draw(st.integers(0, 2**20))
    rng = random.Random(seed)
    n_entities = draw(st.integers(1, 5))
    pool = NamePool(rng, homonym_rate=0.0)
    references: list[Reference] = []
    gold: dict[str, str] = {}
    counter = 0
    for entity_index in range(n_entities):
        name = pool.draw()
        email = f"{name.given}.{name.surname}@{rng.choice(_DOMAINS)}"
        n_refs = draw(st.integers(2, 4))
        for _ in range(n_refs):
            values = {}
            if rng.random() < 0.8:
                values["name"] = (format_name(name, rng.choice(_STYLES)),)
            if rng.random() < 0.6:
                values["email"] = (email,)
            if not values:
                values["name"] = (format_name(name, "first_last"),)
            ref_id = f"r{counter:03d}"
            counter += 1
            references.append(Reference(ref_id, "Person", values))
            gold[ref_id] = f"e{entity_index}"
    return references, gold


def _run(references, config=None):
    domain = PimDomainModel()
    store = ReferenceStore(domain.schema, references)
    reconciler = Reconciler(store, domain, config or EngineConfig())
    return reconciler, reconciler.run()


class TestEngineProperties:
    @given(micro_worlds())
    @settings(max_examples=25, deadline=None)
    def test_partition_is_exact_cover(self, world):
        references, _ = world
        _, result = _run(references)
        seen = [ref for cluster in result.clusters("Person") for ref in cluster]
        assert sorted(seen) == sorted(ref.ref_id for ref in references)

    @given(micro_worlds())
    @settings(max_examples=15, deadline=None)
    def test_deterministic(self, world):
        references, _ = world
        _, first = _run(references)
        _, second = _run(references)
        assert first.partitions == second.partitions

    @given(micro_worlds())
    @settings(max_examples=15, deadline=None)
    def test_queue_order_independent(self, world):
        references, _ = world
        _, front = _run(references, EngineConfig(strong_to_front=True))
        _, fifo = _run(references, EngineConfig(strong_to_front=False))
        assert front.partitions == fifo.partitions

    @given(micro_worlds())
    @settings(max_examples=15, deadline=None)
    def test_statuses_consistent_with_partition(self, world):
        references, _ = world
        reconciler, _ = _run(references)
        for node in reconciler.graph.nodes():
            if node.status is NodeStatus.MERGED:
                assert reconciler.uf.connected(node.left, node.right)
            elif node.status is NodeStatus.NON_MERGE:
                assert not reconciler.uf.connected(node.left, node.right)

    @given(micro_worlds())
    @settings(max_examples=15, deadline=None)
    def test_more_evidence_never_splits(self, world):
        """System-level monotonicity: enabling the cross channel can
        only merge more pairs, never fewer (constraints held fixed)."""
        references, _ = world
        _, without = _run(
            references,
            EngineConfig(
                disabled_channels=frozenset({"name_email"}), constraints=False
            ),
        )
        _, with_cross = _run(references, EngineConfig(constraints=False))
        merged_without = {
            pair
            for cluster in without.clusters("Person")
            for pair in _pairs(cluster)
        }
        merged_with = {
            pair
            for cluster in with_cross.clusters("Person")
            for pair in _pairs(cluster)
        }
        assert merged_without <= merged_with

    @given(micro_worlds())
    @settings(max_examples=15, deadline=None)
    def test_same_email_always_merges(self, world):
        references, _ = world
        _, result = _run(references)
        by_email: dict[str, list[str]] = {}
        for reference in references:
            for email in reference.get("email"):
                by_email.setdefault(email, []).append(reference.ref_id)
        for refs in by_email.values():
            for other in refs[1:]:
                assert result.same_entity(refs[0], other)


def _pairs(cluster):
    return {
        (cluster[i], cluster[j])
        for i in range(len(cluster))
        for j in range(i + 1, len(cluster))
    }


def _invariant_world(name: str):
    if name == "cora":
        config = CoraConfig(n_papers=25, n_citations=200, n_authors=50, n_venues=10)
        return generate_cora_dataset(config), CoraDomainModel()
    return generate_pim_dataset(name, scale=0.15), PimDomainModel()


class TestEngineInvariants:
    """Order-free partition invariants of the serial engine on every
    dataset: distinct pairs are never co-clustered, and each class's
    clusters are sorted, disjoint and cover all of its references."""

    def _check(self, store, domain, partitions):
        for left, right in domain.distinct_pairs(store):
            for clusters in partitions.values():
                for cluster in clusters:
                    assert not (left in cluster and right in cluster), (
                        f"enemies {left}/{right} co-clustered"
                    )
        for class_name, clusters in partitions.items():
            seen = set()
            for cluster in clusters:
                assert cluster == sorted(cluster)
                for ref_id in cluster:
                    assert ref_id not in seen, f"{ref_id} in two clusters"
                    seen.add(ref_id)
            assert seen == {r.ref_id for r in store.of_class(class_name)}

    @pytest.mark.parametrize("name", ["A", "B", "C", "D", "cora"])
    def test_partition_invariants(self, name):
        dataset, domain = _invariant_world(name)
        result = Reconciler(dataset.store, domain, EngineConfig()).run()
        self._check(dataset.store, domain, result.partitions)


def _live_pair_nodes() -> int:
    gc.collect()
    return sum(isinstance(obj, PairNode) for obj in gc.get_objects())


class TestNoDeadNodes:
    """Enrichment fuses most pair nodes away; after a run the only pair
    nodes left in memory are the graph's live ones."""

    @pytest.mark.parametrize("observed", [True, False], ids=["observers", "bare"])
    @pytest.mark.parametrize("name", ["cora", "B"])
    def test_no_fused_away_node_survives_a_run(self, name, observed):
        if name == "cora":
            dataset, domain = _invariant_world("cora")
        else:
            dataset, domain = generate_pim_dataset("B", scale=0.2), PimDomainModel()
        before = _live_pair_nodes()
        kwargs = {} if observed else {"observers": ()}
        engine = Reconciler(dataset.store, domain, EngineConfig(), **kwargs)
        engine.run()
        assert engine.stats.pair_nodes > len(engine.graph)  # fusion happened
        assert _live_pair_nodes() - before == len(engine.graph)
