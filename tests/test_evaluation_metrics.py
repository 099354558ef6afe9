"""Tests for the pairwise metrics, including hypothesis properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.metrics import (
    entities_with_false_positives,
    pairwise_scores,
    partition_reduction,
)


GOLD = {"a1": "A", "a2": "A", "a3": "A", "b1": "B", "b2": "B", "c1": "C"}


class TestPairwiseScores:
    def test_perfect(self):
        scores = pairwise_scores([["a1", "a2", "a3"], ["b1", "b2"], ["c1"]], GOLD)
        assert scores.precision == 1.0
        assert scores.recall == 1.0
        assert scores.f_measure == 1.0

    def test_under_merged(self):
        scores = pairwise_scores(
            [["a1", "a2"], ["a3"], ["b1", "b2"], ["c1"]], GOLD
        )
        assert scores.precision == 1.0
        assert scores.recall == pytest.approx(2 / 4)

    def test_over_merged(self):
        scores = pairwise_scores([["a1", "a2", "a3", "b1", "b2", "c1"]], GOLD)
        assert scores.recall == 1.0
        assert scores.precision == pytest.approx(4 / 15)

    def test_popular_entities_weigh_more(self):
        """§5.2: splitting a big cluster costs more than a small one."""
        split_big = pairwise_scores(
            [["a1", "a2"], ["a3"], ["b1", "b2"], ["c1"]], GOLD
        )
        split_small = pairwise_scores(
            [["a1", "a2", "a3"], ["b1"], ["b2"], ["c1"]], GOLD
        )
        assert split_big.recall < split_small.recall

    def test_restrict_to(self):
        scores = pairwise_scores(
            [["a1", "a2", "b1"], ["a3"]], GOLD, restrict_to=["a1", "a2", "a3"]
        )
        assert scores.precision == 1.0
        assert scores.recall == pytest.approx(1 / 3)

    def test_unknown_refs_ignored(self):
        scores = pairwise_scores([["a1", "a2", "ghost"]], GOLD)
        assert scores.precision == 1.0

    def test_duplicate_ref_rejected(self):
        with pytest.raises(ValueError):
            pairwise_scores([["a1"], ["a1", "a2"]], GOLD)

    def test_singletons_only(self):
        scores = pairwise_scores([[r] for r in GOLD], GOLD)
        assert scores.precision == 1.0  # vacuous
        assert scores.recall == 0.0

    @given(
        st.lists(st.integers(0, 4), min_size=1, max_size=20).map(
            lambda assignment: {
                f"r{i}": f"e{entity}" for i, entity in enumerate(assignment)
            }
        )
    )
    @settings(max_examples=50)
    def test_gold_partition_scores_perfectly(self, gold):
        clusters: dict[str, list[str]] = {}
        for ref, entity in gold.items():
            clusters.setdefault(entity, []).append(ref)
        scores = pairwise_scores(clusters.values(), gold)
        assert scores.precision == 1.0
        assert scores.recall == 1.0

    @given(
        st.lists(st.integers(0, 3), min_size=2, max_size=16),
        st.integers(0, 2**16),
    )
    @settings(max_examples=50)
    def test_bounds_for_random_partitions(self, assignment, seed):
        import random

        gold = {f"r{i}": f"e{e}" for i, e in enumerate(assignment)}
        refs = list(gold)
        rng = random.Random(seed)
        rng.shuffle(refs)
        # Random contiguous chunks as a predicted partition.
        clusters, cursor = [], 0
        while cursor < len(refs):
            size = rng.randint(1, 4)
            clusters.append(refs[cursor : cursor + size])
            cursor += size
        scores = pairwise_scores(clusters, gold)
        assert 0.0 <= scores.precision <= 1.0
        assert 0.0 <= scores.recall <= 1.0
        assert 0.0 <= scores.f_measure <= 1.0


class TestEntitiesWithFalsePositives:
    def test_clean_partition(self):
        assert entities_with_false_positives([["a1", "a2"], ["b1"]], GOLD) == 0

    def test_mixed_cluster_implicates_both(self):
        assert entities_with_false_positives([["a1", "b1"], ["a2"]], GOLD) == 2

    def test_three_way(self):
        assert entities_with_false_positives([["a1", "b1", "c1"]], GOLD) == 3


class TestPartitionReduction:
    def test_paper_formula(self):
        # Paper: from 3159 to 1873 partitions against 1750 entities.
        reduction = partition_reduction(3159, 1873, 1750)
        assert reduction == pytest.approx(91.3, abs=0.05)

    def test_no_gap(self):
        assert partition_reduction(100, 90, 100) == 0.0

    def test_full_reduction(self):
        assert partition_reduction(200, 100, 100) == pytest.approx(100.0)
