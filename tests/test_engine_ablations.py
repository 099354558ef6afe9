"""Engine-design checks on generated datasets at scale 1.0.

None of these is a paper table (those are claims in
``repro.evaluation.report``); each checks one engine mechanism on a
dataset large enough for it to matter:

* §3.2's strong-to-front queue order reaches the same fixed point as
  plain FIFO;
* enrichment (node fusion) and propagation each beat the traditional
  pipeline on their own;
* §3.4's key pre-merge shrinks the graph without moving the partition;
* folding a batch into a reconciled store matches a full re-run with
  far less work;
* blocking keeps candidate-pair growth below quadratic.
"""

import pytest

from repro.baselines import CONTACT, ablation_config
from repro.core import (
    MERGE,
    PROPAGATION,
    TRADITIONAL,
    EngineConfig,
    IncrementalReconciler,
    Reconciler,
)
from repro.core.references import ReferenceStore
from repro.datasets import generate_pim_dataset
from repro.domains import PimDomainModel
from repro.evaluation import pim_dataset
from repro.evaluation.metrics import pairwise_scores


def _run(dataset, config):
    reconciler = Reconciler(dataset.store, PimDomainModel(), config)
    return reconciler, reconciler.run()


def test_queue_order_reaches_the_same_fixed_point():
    """Monotone evidence makes the result order-independent: the whole
    partition of every class, not just its size, is the same."""
    dataset = pim_dataset("A")
    _, front = _run(dataset, EngineConfig(strong_to_front=True))
    _, fifo = _run(dataset, EngineConfig(strong_to_front=False))
    assert front.partitions == fifo.partitions


@pytest.mark.slow
def test_enrichment_and_propagation_each_beat_traditional():
    # The paper also found Merge > Propagation on its dataset A; on the
    # synthetic corpora the two are close and may swap (EXPERIMENTS.md).
    dataset = pim_dataset("A")
    enriched, enriched_result = _run(dataset, ablation_config(CONTACT, MERGE))
    propagated, propagated_result = _run(dataset, ablation_config(CONTACT, PROPAGATION))
    _, traditional_result = _run(dataset, ablation_config(CONTACT, TRADITIONAL))
    traditional = traditional_result.partition_count("Person")
    assert enriched_result.partition_count("Person") < traditional
    assert propagated_result.partition_count("Person") < traditional
    assert enriched.stats.fusions > 0
    assert propagated.stats.fusions == 0


@pytest.mark.slow
def test_key_premerge_shrinks_the_graph_not_the_partition():
    dataset = pim_dataset("B")
    on, on_result = _run(dataset, EngineConfig())
    off, off_result = _run(dataset, EngineConfig(premerge_keys=False))
    assert on.stats.pair_nodes < off.stats.pair_nodes
    # Key-equal references merge through the key channel either way.
    partitions = on_result.partition_count("Person")
    delta = abs(partitions - off_result.partition_count("Person"))
    assert delta <= max(3, partitions // 25)


def _held_out_split(dataset, count: int):
    """The last *count* person references as the new batch; association
    links into the batch are stripped on both sides."""
    schema = dataset.store.schema
    person_refs = [ref for ref in dataset.store if ref.class_name == "Person"]
    held_out = {ref.ref_id for ref in person_refs[-count:]}

    def strip(ref):
        values = {}
        for attribute, vals in ref.values.items():
            if schema.cls(ref.class_name).attribute(attribute).is_association:
                vals = tuple(v for v in vals if v not in held_out)
                if not vals:
                    continue
            values[attribute] = vals
        return type(ref)(ref.ref_id, ref.class_name, values, ref.source)

    base = [strip(ref) for ref in dataset.store if ref.ref_id not in held_out]
    batch = [strip(ref) for ref in dataset.store if ref.ref_id in held_out]
    return base, batch


def test_incremental_batch_matches_a_full_run():
    dataset = pim_dataset("B")
    base, batch = _held_out_split(dataset, 40)
    schema = PimDomainModel().schema
    incremental = IncrementalReconciler(
        ReferenceStore(schema, base), PimDomainModel(), EngineConfig()
    )
    incremental.initial()
    before = incremental.reconciler.stats.recomputations
    incremental_result = incremental.add(batch)
    added = incremental.reconciler.stats.recomputations - before
    full = Reconciler(
        ReferenceStore(schema, base + batch), PimDomainModel(), EngineConfig()
    )
    full_result = full.run()

    gold = dataset.gold.entity_of
    incremental_f = pairwise_scores(incremental_result.clusters("Person"), gold).f_measure
    full_f = pairwise_scores(full_result.clusters("Person"), gold).f_measure
    # Same quality, far less work for the update.
    assert abs(incremental_f - full_f) < 0.02
    assert added < full.stats.recomputations * 0.5


@pytest.mark.slow
def test_candidate_pairs_grow_below_quadratic():
    previous = None
    for scale in (0.5, 1.0, 2.0):
        dataset = generate_pim_dataset("B", scale=scale)
        reconciler, _ = _run(dataset, EngineConfig())
        refs, pairs = len(dataset.store), reconciler.stats.candidate_pairs
        if previous is not None:
            previous_refs, previous_pairs = previous
            assert pairs / max(previous_pairs, 1) < (refs / previous_refs) ** 2
        previous = (refs, pairs)
