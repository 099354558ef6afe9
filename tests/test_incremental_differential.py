"""Differential tests for incremental adds against whole-store oracles.

Held-out Person references are folded into tiny PIM A-D worlds in
random chunk sizes, with enrichment on and off. After every add:

* every node's weak in/out key sets equal those of a twin reconciler
  whose weak rewire inverts the whole class on each add (the original
  algorithm, kept here as the oracle), and
* ``result.partitions`` equal a from-scratch ``uf.find`` scan of the
  store, the original way of assembling a result.

A checkpoint-restored engine must assemble the same result too.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core import (
    EngineConfig,
    IncrementalReconciler,
    Reconciler,
    Reference,
    ReferenceStore,
)
from repro.core.nodes import EdgeType
from repro.datasets import generate_pim_dataset
from repro.domains import PimDomainModel
from repro.runtime import CrashAtStep, InjectedFault
from repro.runtime.checkpoint import engine_state, restore_engine

HELD_OUT = 30


class WholeStoreRewire(IncrementalReconciler):
    """Wires new weak edges by inverting the whole class on every add."""

    wired = 0

    def _wire_new_weak_edges(self, new_nodes_by_class):
        engine = self.reconciler
        for dependency in engine.domain.weak_dependencies():
            if not engine.config.weak_enabled(dependency.class_name):
                continue
            nodes = new_nodes_by_class.get(dependency.class_name)
            if not nodes:
                continue
            inverse: dict[str, set[str]] = {}
            for reference in engine.store.of_class(dependency.class_name):
                owner = engine._elem(reference.ref_id)
                for attribute in dependency.attrs:
                    for contact_id in reference.get(attribute):
                        inverse.setdefault(engine._elem(contact_id), set()).add(owner)
            for node in nodes:
                for owner_l in inverse.get(node.left, ()):
                    for owner_r in inverse.get(node.right, ()):
                        if owner_l == owner_r:
                            continue
                        owner_node = engine.graph.get(owner_l, owner_r)
                        if owner_node is None or owner_node is node:
                            continue
                        engine.graph.add_edge(node, owner_node, EdgeType.WEAK)
                        engine.graph.add_edge(owner_node, node, EdgeType.WEAK)
                        self.wired += 1


def scan_partitions(engine: Reconciler) -> dict[str, list[list[str]]]:
    """The partition from one ``uf.find`` per stored reference."""
    clusters: dict[str, dict[str, list[str]]] = {
        class_name: {} for class_name in engine.store.schema.class_names
    }
    for reference in engine.store:
        root = engine.uf.find(reference.ref_id)
        clusters[reference.class_name].setdefault(root, []).append(reference.ref_id)
    return {
        class_name: sorted(
            (sorted(group) for group in groups.values()), key=lambda g: g[0]
        )
        for class_name, groups in clusters.items()
    }


def weak_edges(engine: Reconciler) -> dict:
    return {
        node.key: (frozenset(node.weak_in), frozenset(node.weak_out))
        for node in engine.graph.nodes()
    }


def held_out_chunks(dataset, seed: int):
    """``(base, chunks)``: *HELD_OUT* Person references in random chunks.

    The held-out set grows breadth-first along Person-to-Person links,
    so chunks link among themselves and new references own contacts,
    which is what gives the weak rewire work to do. Links into a
    held-out reference are stripped from the base and from earlier
    chunks (it has not arrived yet); later chunks keep their links back.
    """
    store = dataset.store
    schema = store.schema
    rng = random.Random(seed)
    persons = sorted(ref.ref_id for ref in store if ref.class_name == "Person")
    held: list[str] = []
    queue: list[str] = []
    while len(held) < HELD_OUT:
        if not queue:
            queue.append(rng.choice([p for p in persons if p not in held]))
        ref_id = queue.pop(0)
        if ref_id in held:
            continue
        held.append(ref_id)
        reference = store.get(ref_id)
        for attribute in ("coAuthor", "emailContact"):
            queue.extend(reference.get(attribute))
    arrival: dict[str, int] = {}
    chunks_ids: list[list[str]] = []
    position = 0
    while position < len(held):
        size = rng.randint(1, 6)
        chunks_ids.append(held[position : position + size])
        for ref_id in chunks_ids[-1]:
            arrival[ref_id] = len(chunks_ids) - 1
        position += size

    def strip(reference: Reference, chunk: int) -> Reference:
        values = {}
        for attribute, items in reference.values.items():
            if schema.cls(reference.class_name).attribute(attribute).is_association:
                items = tuple(item for item in items if arrival.get(item, -1) <= chunk)
                if not items:
                    continue
            values[attribute] = items
        return Reference(
            reference.ref_id, reference.class_name, values, reference.source
        )

    base = [strip(ref, -1) for ref in store if ref.ref_id not in arrival]
    chunks = [
        [strip(store.get(ref_id), index) for ref_id in ids]
        for index, ids in enumerate(chunks_ids)
    ]
    return base, chunks


def _pair(enrich: bool, base):
    domain = PimDomainModel()
    config = EngineConfig(enrich=enrich)
    made = [
        cls(ReferenceStore(domain.schema, base), domain, config)
        for cls in (IncrementalReconciler, WholeStoreRewire)
    ]
    for incremental in made:
        incremental.initial()
    return made


@pytest.fixture(scope="module", params="ABCD")
def world(request):
    return request.param, generate_pim_dataset(request.param, scale=0.15)


@pytest.mark.parametrize("enrich", [True, False], ids=["enrich", "no-enrich"])
def test_adds_match_whole_store_oracles(world, enrich):
    profile, dataset = world
    base, chunks = held_out_chunks(dataset, seed=ord(profile))
    incremental, oracle = _pair(enrich, base)
    engine = incremental.reconciler
    cache = engine._result_clusters
    for chunk in chunks:
        result = incremental.add(chunk)
        expected = oracle.add(chunk)
        assert weak_edges(engine) == weak_edges(oracle.reconciler)
        assert result.partitions == scan_partitions(engine)
        assert result.partitions == expected.partitions
        # Served from the cache the first result filled, never rebuilt.
        assert engine._result_clusters is cache
    assert oracle.wired > 0, "the adds wired no weak edges: nothing was compared"
    assert engine.stats.skipped_weak_fanout == 0
    # Each reference was indexed once: the first add indexed the store,
    # later adds only their own batch.
    for dependency, owners in incremental._weak_owners.items():
        links = sum(
            len(reference.get(attribute))
            for reference in engine.store.of_class(dependency.class_name)
            for attribute in dependency.attrs
        )
        assert sum(map(len, owners.values())) == links

    restored = Reconciler(engine.store, engine.domain, engine.config)
    restore_engine(restored, json.loads(json.dumps(engine_state(engine))))
    assert restored._result().partitions == scan_partitions(engine)


def test_restored_engine_keeps_its_result_cache_current(world):
    """A restore installs a fresh union-find: a result taken right after
    it must follow the merges the resumed run then makes."""
    _, dataset = world
    domain = PimDomainModel()
    expected = Reconciler(dataset.store, domain).run()
    crashed = Reconciler(dataset.store, domain, observers=[CrashAtStep(40)])
    with pytest.raises(InjectedFault):
        crashed.run()
    state = json.loads(json.dumps(engine_state(crashed)))

    resumed = Reconciler(dataset.store, domain)
    restore_engine(resumed, state)
    assert resumed._result().partitions == scan_partitions(resumed)
    unions = resumed.uf.union_count
    result = resumed.run()
    assert resumed.uf.union_count > unions
    assert result.partitions == scan_partitions(resumed) == expected.partitions
