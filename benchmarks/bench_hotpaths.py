"""Micro-benchmarks for the hot-path kernels behind the fast
comparators: the bit-vector edit-distance kernel unbounded and at a
cutoff, feature-based versus string-based channel comparators, and the
blocking index.

These quantify the per-call wins that `scripts/record_bench.py`
measures end-to-end; neither is a paper table.
"""

from repro.core.blocking import BlockingIndex
from repro.perf import FeatureCache
from repro.similarity import (
    title_features,
    title_similarity,
    title_similarity_features,
    venue_features,
    venue_name_similarity,
    venue_similarity_features,
)
from repro.similarity.strings import (
    damerau_levenshtein_distance,
    damerau_levenshtein_similarity_at_least,
)

_TITLE_PAIRS = [
    ("Distributed query processing in a relational data base system",
     "Distributed query processing in relational data base systems"),
    ("Access path selection in a relational database management system",
     "Query optimization in database systems"),
    ("The design and implementation of INGRES",
     "The design of POSTGRES"),
]

_VENUE_PAIRS = [
    ("Proceedings of the ACM SIGMOD International Conference on Management of Data",
     "Proc. ACM SIGMOD"),
    ("VLDB", "Very Large Data Bases"),
    ("ACM Transactions on Database Systems", "Communications of the ACM"),
]


def test_full_damerau_levenshtein(benchmark):
    benchmark(lambda: [damerau_levenshtein_distance(a, b) for a, b in _TITLE_PAIRS])


def test_bounded_damerau_levenshtein(benchmark):
    # The bar a title comparison actually runs at: the cutoff lets the
    # bit-vector scan stop early, after prefix/suffix stripping.
    benchmark(
        lambda: [
            damerau_levenshtein_similarity_at_least(a, b, 0.80)
            for a, b in _TITLE_PAIRS
        ]
    )


def test_title_slow_comparator(benchmark):
    benchmark(lambda: [title_similarity(a, b) for a, b in _TITLE_PAIRS])


def test_title_fast_comparator(benchmark):
    features = [(title_features(a), title_features(b)) for a, b in _TITLE_PAIRS]
    benchmark(lambda: [title_similarity_features(fa, fb, 0.25) for fa, fb in features])


def test_venue_slow_comparator(benchmark):
    benchmark(lambda: [venue_name_similarity(a, b) for a, b in _VENUE_PAIRS])


def test_venue_fast_comparator(benchmark):
    features = [(venue_features(a), venue_features(b)) for a, b in _VENUE_PAIRS]
    benchmark(lambda: [venue_similarity_features(fa, fb, 0.25) for fa, fb in features])


def test_feature_cache_hit_overhead(benchmark):
    cache = FeatureCache()
    extract = cache.extractor("title")
    titles = [a for a, _ in _TITLE_PAIRS]
    for value in titles:
        extract(value)

    benchmark(lambda: [extract(value) for value in titles])


def test_blocking_index_pairs(benchmark):
    index = BlockingIndex(max_block_size=100)
    for i in range(400):
        index.add(f"r{i}", [f"k{i % 37}", f"k{i % 53}"])

    benchmark(lambda: sum(1 for _ in index.pairs()))
