"""Tests for the B-cubed cluster metric."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.clustering import bcubed_scores

GOLD = {"a1": "A", "a2": "A", "a3": "A", "b1": "B", "b2": "B", "c1": "C"}
PERFECT = [["a1", "a2", "a3"], ["b1", "b2"], ["c1"]]


class TestBCubed:
    def test_perfect(self):
        scores = bcubed_scores(PERFECT, GOLD)
        assert scores.precision == 1.0
        assert scores.recall == 1.0
        assert scores.f_measure == 1.0

    def test_all_singletons(self):
        scores = bcubed_scores([[r] for r in GOLD], GOLD)
        assert scores.precision == 1.0
        # recall(r) = 1/|gold cluster of r|
        expected = (3 * (1 / 3) + 2 * (1 / 2) + 1) / 6
        assert scores.recall == pytest.approx(expected)

    def test_one_big_cluster(self):
        scores = bcubed_scores([list(GOLD)], GOLD)
        assert scores.recall == 1.0
        expected = (3 * (3 / 6) + 2 * (2 / 6) + 1 * (1 / 6)) / 6
        assert scores.precision == pytest.approx(expected)

    def test_less_dominated_by_large_clusters_than_pairwise(self):
        from repro.evaluation.metrics import pairwise_scores

        gold = {f"x{i}": "X" for i in range(20)} | {"y1": "Y", "y2": "Y"}
        predicted = [[f"x{i}" for i in range(10)], [f"x{i}" for i in range(10, 20)],
                     [["y1", "y2"][0]], ["y2"]]
        pairwise = pairwise_scores(predicted, gold)
        bcubed = bcubed_scores(predicted, gold)
        assert bcubed.recall > pairwise.recall

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=15))
    @settings(max_examples=40)
    def test_gold_partition_perfect(self, assignment):
        gold = {f"r{i}": f"e{e}" for i, e in enumerate(assignment)}
        clusters: dict[str, list[str]] = {}
        for ref, entity in gold.items():
            clusters.setdefault(entity, []).append(ref)
        scores = bcubed_scores(clusters.values(), gold)
        assert scores.precision == pytest.approx(1.0)
        assert scores.recall == pytest.approx(1.0)
