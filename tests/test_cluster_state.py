"""Per-cluster state merged at union, checked against rescans.

When two clusters merge, the engine folds their derived state together
instead of dropping it and rebuilding it on the next read:

* the survivor's pooled attribute values (enrichment) become its map
  followed by the absorbed cluster's values it lacks, and
* the result cache moves the merged cluster to its first-member place
  in its class's ordered list.

Both must equal what a rescan gives, order included: a rescan of the
cluster's members for the pooled values, a sorted ``uf.find`` scan of
the store for the ordered clusters.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.core import EngineConfig, IncrementalReconciler, Reconciler, Reference, ReferenceStore
from repro.datasets import generate_cora_dataset, generate_pim_dataset
from repro.datasets.cora import CoraConfig
from repro.domains import CoraDomainModel, PimDomainModel
from repro.runtime.checkpoint import engine_state, restore_engine

from .test_incremental_differential import held_out_chunks, scan_partitions


def rescan_values(engine: Reconciler, element: str) -> list:
    """The element's pooled values from its members, first occurrence
    first: the way the engine pools them on a cache miss."""
    pooled: dict[str, list[str]] = {}
    for ref_id in engine._members.get(element, [element]):
        for attribute, values in engine.store.get(ref_id).values.items():
            bucket = pooled.setdefault(attribute, [])
            for value in values:
                if value not in bucket:
                    bucket.append(value)
    return [(attribute, tuple(values)) for attribute, values in pooled.items()]


class CheckedReconciler(Reconciler):
    """Compares every cached pooled-values map with a rescan after each
    merge, and counts the merges that carried both maps over."""

    carried = 0

    def _enrich(self, survivor: str, absorbed: str) -> None:
        both = survivor in self._values_cache and absorbed in self._values_cache
        super()._enrich(survivor, absorbed)
        assert absorbed not in self._values_cache
        if both:
            assert survivor in self._values_cache
            self.carried += 1
        for element, cached in self._values_cache.items():
            assert list(cached.items()) == rescan_values(self, element), element


def _small_cora():
    cora = CoraConfig()
    return generate_cora_dataset(
        replace(
            cora,
            n_papers=round(cora.n_papers * 0.1),
            n_citations=round(cora.n_citations * 0.1),
            n_authors=round(cora.n_authors * 0.1),
            n_venues=round(cora.n_venues * 0.1),
        )
    )


@pytest.mark.parametrize("world", ["A", "B", "C", "D", "cora"])
def test_pooled_values_equal_a_rescan_after_every_merge(world):
    if world == "cora":
        dataset, domain = _small_cora(), CoraDomainModel()
    else:
        dataset, domain = generate_pim_dataset(world, scale=0.15), PimDomainModel()
    engine = CheckedReconciler(dataset.store, domain, EngineConfig(enrich=True))
    result = engine.run()
    assert engine.carried > 0, "no merge carried pooled values over: nothing was compared"
    expected = Reconciler(dataset.store, domain, EngineConfig(enrich=True)).run()
    assert result.partitions == expected.partitions


def assert_ordered_clusters(engine: Reconciler) -> None:
    """The result cache's ordered lists equal a sorted scan, and each
    listed cluster is the list its ``(class, root)`` key maps to."""
    cache = engine._result_clusters
    assert cache.ordered == scan_partitions(engine)
    for class_name, ordered in cache.ordered.items():
        for members in ordered:
            assert cache.by_root[(class_name, engine.uf.find(members[0]))] is members
    assert len(cache.by_root) == sum(map(len, cache.ordered.values()))


def _sorting_first(chunks, schema):
    """The chunks with every held-out id prefixed so it sorts before
    every id already in the store, links between them renamed too."""
    renamed = {ref.ref_id: "0" + ref.ref_id for chunk in chunks for ref in chunk}

    def rename(reference: Reference) -> Reference:
        values = {
            attribute: tuple(renamed.get(value, value) for value in values)
            if schema.cls(reference.class_name).attribute(attribute).is_association
            else values
            for attribute, values in reference.values.items()
        }
        return Reference(
            renamed[reference.ref_id], reference.class_name, values, reference.source
        )

    return [[rename(reference) for reference in chunk] for chunk in chunks]


@pytest.mark.parametrize("profile", "ABCD")
def test_ordered_clusters_follow_restore_and_adds(profile):
    dataset = generate_pim_dataset(profile, scale=0.15)
    base, chunks = held_out_chunks(dataset, seed=ord(profile))
    chunks = _sorting_first(chunks, dataset.store.schema)
    domain = PimDomainModel()
    incremental = IncrementalReconciler(ReferenceStore(domain.schema, base), domain)
    incremental.initial()
    engine = incremental.reconciler

    restore_engine(engine, json.loads(json.dumps(engine_state(engine))))
    assert engine._result_clusters is None
    assert engine._result().partitions == scan_partitions(engine)
    assert_ordered_clusters(engine)

    new_ids: set[str] = set()
    moved_first = 0
    for chunk in chunks:
        new_ids.update(reference.ref_id for reference in chunk)
        result = incremental.add(chunk)
        assert_ordered_clusters(engine)
        assert result.partitions == scan_partitions(engine)
        moved_first += sum(
            1
            for members in engine._result_clusters.ordered["Person"]
            if members[0] in new_ids and not new_ids.issuperset(members)
        )
    assert moved_first > 0, "no new reference became an existing cluster's first member"
