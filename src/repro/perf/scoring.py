"""Shared atomic-channel scoring used by the serial and parallel builds.

The engine's first-pass node construction and the worker processes of
:mod:`repro.perf.parallel` both funnel through :func:`pair_evidence`,
so a parallel build cannot diverge from the serial one: identical
channel order, identical value-pair enumeration, identical memo
semantics.

Scores flow through two layers, both exact above the floor the engine
compares against:

1. a *fast comparator* (``channel.fast_comparator``) consumes
   precomputed per-value features instead of raw strings;
2. a per-process *memo* caches the result per distinct value pair, so
   the same "j. smith" vs "smith, j" comparison runs once per build,
   not once per candidate pair that mentions it. It is the one cache
   of channel scores: the comparators behind it are uncached.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

__all__ = ["channel_value_pairs", "score_value_pair", "memoised_score", "pair_evidence"]

#: outcome tags of :func:`memoised_score`, consumed by the engine's
#: cache-effectiveness counters.
HIT = "hit"
MISS = "miss"


def channel_value_pairs(
    channel,
    left_values: Mapping[str, tuple[str, ...]],
    right_values: Mapping[str, tuple[str, ...]],
) -> Iterator[tuple[str, str]]:
    """All comparable value pairs of one channel, both orientations for
    cross-attribute channels.

    For cross channels the yielded pair is always oriented
    ``(left_attr value, right_attr value)`` regardless of which side of
    the reference pair contributed which, so the comparator always sees
    e.g. ``(name, email)`` in that order.
    """
    for value_l in left_values.get(channel.left_attr, ()):
        for value_r in right_values.get(channel.right_attr, ()):
            yield value_l, value_r
    if channel.is_cross:
        for value_l in left_values.get(channel.right_attr, ()):
            for value_r in right_values.get(channel.left_attr, ()):
                yield value_r, value_l


def score_value_pair(channel, value_l: str, value_r: str, floor: float) -> float:
    """Score one value pair against *floor*.

    The contract with the engine: the engine only ever tests
    ``score >= floor``, so the fast path must return the exact
    slow-path score whenever the true score reaches *floor* and may
    return anything strictly below *floor* otherwise.
    """
    fast = channel.fast_comparator
    if fast is None:
        return channel.comparator(value_l, value_r)
    return fast(channel.features_left(value_l), channel.features_right(value_r), floor)


def memoised_score(
    channel, value_l: str, value_r: str, floor: float, memo: dict
) -> tuple[float, str]:
    """:func:`score_value_pair` through a per-process memo.

    Entries store ``(floor, score)`` and are reusable at any floor at
    least as high as the stored one: a stored score at or above its
    floor is the exact true score, and a stored score below its floor
    certifies the true score is below that floor too —
    both verdicts survive raising the floor. A lookup at a *lower*
    floor recomputes and the entry is replaced with the lower floor,
    making it strictly more reusable.
    """
    # Class name disambiguates same-named channels of different classes
    # (PIM's Person.name and Venue.name use different comparators).
    key = (channel.class_name, channel.name, value_l, value_r)
    entry = memo.get(key)
    if entry is not None and entry[0] <= floor:
        return entry[1], HIT
    score = score_value_pair(channel, value_l, value_r, floor)
    memo[key] = (floor, score)
    return score, MISS


def pair_evidence(
    channels,
    left_values: Mapping[str, tuple[str, ...]],
    right_values: Mapping[str, tuple[str, ...]],
    memo: dict,
    floor: float | None = None,
    stats=None,
) -> list[tuple[str, str, str, float]]:
    """Atomic value evidence for one candidate reference pair.

    Returns ``(channel_name, value_l, value_r, score)`` tuples in the
    exact order the serial engine would create the value nodes. *floor*
    is the force-path floor (strong dependencies keep even weak
    evidence); ``None`` means each channel's liberal threshold applies.
    *stats*, when given, receives the memo counter updates
    (``pair_memo_hits`` / ``pair_memo_misses``).
    """
    evidence: list[tuple[str, str, str, float]] = []
    for channel in channels:
        threshold = (
            channel.liberal_threshold
            if floor is None
            else min(channel.liberal_threshold, floor)
        )
        for value_l, value_r in channel_value_pairs(channel, left_values, right_values):
            score, outcome = memoised_score(channel, value_l, value_r, threshold, memo)
            if stats is not None:
                if outcome is HIT:
                    stats.pair_memo_hits += 1
                else:
                    stats.pair_memo_misses += 1
            if score >= threshold:
                evidence.append((channel.name, value_l, value_r, score))
    return evidence
