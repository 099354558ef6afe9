"""Unit and property tests for the generic string metrics."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity.strings import (
    containment_similarity,
    damerau_levenshtein_distance,
    damerau_levenshtein_similarity,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    monge_elkan_similarity,
)

WORDS = st.text(alphabet="abcdefghij ", min_size=0, max_size=12)

ALL_METRICS = [
    levenshtein_similarity,
    damerau_levenshtein_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    monge_elkan_similarity,
]


class TestLevenshtein:
    def test_classic_distances(self):
        assert levenshtein_distance("kitten", "sitting") == 3
        assert levenshtein_distance("flaw", "lawn") == 2
        assert levenshtein_distance("", "abc") == 3
        assert levenshtein_distance("abc", "") == 3
        assert levenshtein_distance("abc", "abc") == 0

    def test_transposition_counts_two_in_plain_levenshtein(self):
        assert levenshtein_distance("ab", "ba") == 2
        assert damerau_levenshtein_distance("ab", "ba") == 1

    def test_damerau_examples(self):
        assert damerau_levenshtein_distance("ca", "abc") == 3
        assert damerau_levenshtein_distance("stonebraker", "stonebarker") == 1
        assert damerau_levenshtein_distance("michael", "micheal") == 1

    @given(WORDS, WORDS)
    def test_symmetry(self, a, b):
        assert levenshtein_distance(a, b) == levenshtein_distance(b, a)
        assert damerau_levenshtein_distance(a, b) == damerau_levenshtein_distance(b, a)

    @given(WORDS, WORDS, WORDS)
    @settings(max_examples=60)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, c) <= levenshtein_distance(
            a, b
        ) + levenshtein_distance(b, c)

    @given(WORDS, WORDS)
    def test_distance_bounds(self, a, b):
        distance = levenshtein_distance(a, b)
        assert abs(len(a) - len(b)) <= distance <= max(len(a), len(b))

    @given(WORDS)
    def test_identity(self, a):
        assert levenshtein_distance(a, a) == 0
        assert damerau_levenshtein_distance(a, a) == 0


class TestJaro:
    def test_known_values(self):
        assert math.isclose(jaro_similarity("martha", "marhta"), 0.9444, abs_tol=1e-3)
        assert math.isclose(jaro_similarity("dixon", "dicksonx"), 0.7667, abs_tol=1e-3)
        assert math.isclose(
            jaro_winkler_similarity("martha", "marhta"), 0.9611, abs_tol=1e-3
        )

    def test_disjoint_strings(self):
        assert jaro_similarity("abc", "xyz") == 0.0

    def test_winkler_boosts_prefix(self):
        plain = jaro_similarity("prefixes", "prefixed")
        boosted = jaro_winkler_similarity("prefixes", "prefixed")
        assert boosted >= plain

    @given(WORDS, WORDS)
    def test_symmetry_and_range(self, a, b):
        score = jaro_similarity(a, b)
        assert 0.0 <= score <= 1.0
        assert math.isclose(score, jaro_similarity(b, a), abs_tol=1e-12)


class TestSetMetrics:
    def test_jaccard(self):
        assert jaccard_similarity(["a", "b"], ["b", "c"]) == pytest.approx(1 / 3)
        assert jaccard_similarity([], []) == 1.0
        assert jaccard_similarity(["a"], []) == 0.0

    def test_containment(self):
        assert containment_similarity(["a", "b"], ["a", "b", "c", "d"]) == 1.0
        assert containment_similarity(["a", "x"], ["a", "b", "c"]) == 0.5


class TestMongeElkan:
    def test_token_alignment(self):
        score = monge_elkan_similarity("michael stonebraker", "stonebraker michael")
        assert score == pytest.approx(1.0)

    def test_partial(self):
        score = monge_elkan_similarity("data base systems", "database system")
        assert score > 0.8


@pytest.mark.parametrize("metric", ALL_METRICS)
class TestCommonProperties:
    @given(a=WORDS, b=WORDS)
    @settings(max_examples=40)
    def test_range_and_symmetry(self, metric, a, b):
        score = metric(a, b)
        assert 0.0 <= score <= 1.0
        assert math.isclose(score, metric(b, a), abs_tol=1e-9)

    @given(a=WORDS)
    @settings(max_examples=40)
    def test_reflexive(self, metric, a):
        assert metric(a, a) == pytest.approx(1.0)
