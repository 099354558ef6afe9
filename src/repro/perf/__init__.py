"""Performance layer: feature precomputation, shared hot-path scoring,
and deterministic parallel candidate-pair scoring.

Everything here is an *optimisation*, never a semantics change: the
fast comparators are exact above the engine's decision floor, the
prefilters are sound upper bounds, and parallel builds are
byte-identical to serial ones. ``perfbench/`` (per-layer timings) and
``scripts/record_bench.py`` keep the layer honest.
"""

from .features import FeatureCache
from .parallel import domain_spec
from .scoring import channel_value_pairs, memoised_score, pair_evidence, score_value_pair

__all__ = [
    "FeatureCache",
    "channel_value_pairs",
    "domain_spec",
    "memoised_score",
    "pair_evidence",
    "score_value_pair",
]
