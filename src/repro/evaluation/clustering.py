"""B-cubed precision/recall, beside the paper's pairwise measure.

The paper evaluates with pairwise precision/recall. B-cubed (Bagga &
Baldwin 1998) averages per reference, so it is less dominated by huge
clusters; ``repro evaluate`` and run manifests report both. The
computation is count-based and linear in the references.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

__all__ = ["BCubedScores", "bcubed_scores"]


@dataclass(frozen=True)
class BCubedScores:
    precision: float
    recall: float

    @property
    def f_measure(self) -> float:
        if self.precision + self.recall == 0.0:
            return 0.0
        return 2.0 * self.precision * self.recall / (self.precision + self.recall)


def _cluster_lists(
    predicted: Iterable[Iterable[str]], gold: Mapping[str, str]
) -> list[list[str]]:
    clusters = []
    for cluster in predicted:
        members = [ref_id for ref_id in cluster if ref_id in gold]
        if members:
            clusters.append(members)
    return clusters


def bcubed_scores(
    predicted: Iterable[Iterable[str]], gold: Mapping[str, str]
) -> BCubedScores:
    """B-cubed precision and recall of a predicted partition.

    For each reference r: precision(r) = fraction of r's predicted
    cluster sharing r's gold entity; recall(r) = fraction of r's gold
    entity found in r's predicted cluster; scores are averages over all
    references.
    """
    clusters = _cluster_lists(predicted, gold)
    gold_sizes = Counter(gold[ref] for cluster in clusters for ref in cluster)
    total = sum(len(cluster) for cluster in clusters)
    if total == 0:
        return BCubedScores(1.0, 1.0)
    precision_sum = 0.0
    recall_sum = 0.0
    for cluster in clusters:
        entity_counts = Counter(gold[ref] for ref in cluster)
        size = len(cluster)
        for entity, count in entity_counts.items():
            # `count` references each see `count` same-entity neighbours
            # (including themselves) in a `size`-large cluster.
            precision_sum += count * (count / size)
            recall_sum += count * (count / gold_sizes[entity])
    return BCubedScores(precision_sum / total, recall_sum / total)
