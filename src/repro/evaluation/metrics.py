"""Evaluation metrics (§2.1, §5.2).

The paper measures *pairwise* precision and recall: recall is the
fraction of same-entity reference pairs that the algorithm reconciled,
precision the fraction of reconciled pairs that are truly same-entity,
and F-measure their harmonic mean. As §5.2 notes, this weighting
"penalizes results more for incorrect reconciliation for popular
entities" — errors on big clusters cost quadratically.

All computations work on counts, never materialised pair sets, so they
stay linear in the number of references.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

__all__ = [
    "PairwiseScores",
    "pairwise_scores",
    "combine_scores",
    "entities_with_false_positives",
    "partition_reduction",
]


@dataclass(frozen=True)
class PairwiseScores:
    """Pairwise precision / recall / F-measure plus the raw counts."""

    precision: float
    recall: float
    true_pairs: int
    predicted_pairs: int
    gold_pairs: int

    @property
    def f_measure(self) -> float:
        if self.precision + self.recall == 0.0:
            return 0.0
        return 2.0 * self.precision * self.recall / (self.precision + self.recall)


def _pairs(count: int) -> int:
    return count * (count - 1) // 2


def pairwise_scores(
    predicted: Iterable[Iterable[str]],
    gold: Mapping[str, str],
    *,
    restrict_to: Iterable[str] | None = None,
) -> PairwiseScores:
    """Score a predicted partition against a gold entity mapping.

    *predicted* is an iterable of clusters (iterables of reference
    ids); *gold* maps reference id to gold entity id. References
    without a gold entry are ignored. With *restrict_to*, only the
    given references participate (the PEmail / PArticle subsets).
    """
    allowed = None if restrict_to is None else set(restrict_to)

    true_pairs = 0
    predicted_pairs = 0
    gold_counter: Counter[str] = Counter()
    seen_refs: set[str] = set()

    for cluster in predicted:
        entity_counts: Counter[str] = Counter()
        size = 0
        for ref_id in cluster:
            if allowed is not None and ref_id not in allowed:
                continue
            entity = gold.get(ref_id)
            if entity is None:
                continue
            if ref_id in seen_refs:
                raise ValueError(f"reference {ref_id!r} appears in two clusters")
            seen_refs.add(ref_id)
            entity_counts[entity] += 1
            gold_counter[entity] += 1
            size += 1
        predicted_pairs += _pairs(size)
        true_pairs += sum(_pairs(count) for count in entity_counts.values())

    gold_pairs = sum(_pairs(count) for count in gold_counter.values())
    precision = true_pairs / predicted_pairs if predicted_pairs else 1.0
    recall = true_pairs / gold_pairs if gold_pairs else 1.0
    return PairwiseScores(
        precision=precision,
        recall=recall,
        true_pairs=true_pairs,
        predicted_pairs=predicted_pairs,
        gold_pairs=gold_pairs,
    )


def combine_scores(scores: Iterable[PairwiseScores]) -> PairwiseScores:
    """Micro-average several pairwise scores by summing raw pair counts.

    Used for cross-class quality (run manifests sample precision/recall
    over *all* classes with gold): big classes weigh proportionally to
    their pair universe, matching the paper's pairwise weighting.
    """
    true_pairs = predicted_pairs = gold_pairs = 0
    for score in scores:
        true_pairs += score.true_pairs
        predicted_pairs += score.predicted_pairs
        gold_pairs += score.gold_pairs
    precision = true_pairs / predicted_pairs if predicted_pairs else 1.0
    recall = true_pairs / gold_pairs if gold_pairs else 1.0
    return PairwiseScores(
        precision=precision,
        recall=recall,
        true_pairs=true_pairs,
        predicted_pairs=predicted_pairs,
        gold_pairs=gold_pairs,
    )


def entities_with_false_positives(
    predicted: Iterable[Iterable[str]],
    gold: Mapping[str, str],
    *,
    restrict_to: Iterable[str] | None = None,
) -> int:
    """Real-world entities involved in at least one wrong merge.

    Table 6 reports this count: an entity is implicated whenever some
    predicted cluster mixes its references with another entity's.
    """
    allowed = None if restrict_to is None else set(restrict_to)
    implicated: set[str] = set()
    for cluster in predicted:
        entities = {
            gold[ref_id]
            for ref_id in cluster
            if ref_id in gold and (allowed is None or ref_id in allowed)
        }
        if len(entities) > 1:
            implicated |= entities
    return len(implicated)


def partition_reduction(
    baseline_partitions: int, improved_partitions: int, true_entities: int
) -> float:
    """Table 5's improvement measure: "the percentage reduction in the
    difference between the number of result partitions and the number
    of real-world entities"."""
    baseline_gap = baseline_partitions - true_entities
    improved_gap = improved_partitions - true_entities
    if baseline_gap <= 0:
        return 0.0
    return 100.0 * (baseline_gap - improved_gap) / baseline_gap
