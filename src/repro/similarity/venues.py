"""Venue-name similarity with acronym awareness.

Conference and journal mentions range from full names ("ACM Conference
on Management of Data") through branded acronym phrases ("ACM SIGMOD")
to bare acronyms ("SIGMOD", "VLDB"). Pure string metrics score such
pairs near zero; this module layers acronym expansion and containment
on top of token overlap so that they score high, which is what drives
the paper's venue-recall results (Table 2, Table 7).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .caches import register_cache
from .strings import (
    containment_similarity,
    damerau_levenshtein_similarity,
    damerau_levenshtein_within,
    jaccard_similarity,
    jaro_winkler_similarity,
    monge_elkan_similarity,
)
from .tokens import STOPWORDS, is_acronym_of, tokenize

__all__ = [
    "VenueFeatures",
    "venue_features",
    "venue_name_similarity",
    "venue_similarity_features",
    "KNOWN_ACRONYMS",
    "expand_venue_tokens",
]

# Curated expansions for acronyms whose letters do not line up with the
# venue's full name ("SIGMOD" is not the initials of "Conference on
# Management of Data"). Real deployments learn these from co-citation;
# we seed the table with the ones the synthetic corpus uses.
KNOWN_ACRONYMS: dict[str, frozenset[str]] = {
    "sigmod": frozenset({"management", "data"}),
    "vldb": frozenset({"very", "large", "data", "bases", "databases"}),
    "icde": frozenset({"data", "engineering"}),
    "sigir": frozenset({"information", "retrieval"}),
    "sigkdd": frozenset({"knowledge", "discovery", "data", "mining"}),
    "kdd": frozenset({"knowledge", "discovery", "data", "mining"}),
    "nips": frozenset({"neural", "information", "processing", "systems"}),
    "neurips": frozenset({"neural", "information", "processing", "systems"}),
    "icml": frozenset({"machine", "learning"}),
    "aaai": frozenset({"artificial", "intelligence"}),
    "ijcai": frozenset({"artificial", "intelligence"}),
    "sosp": frozenset({"operating", "systems", "principles"}),
    "osdi": frozenset({"operating", "systems", "design", "implementation"}),
    "podc": frozenset({"principles", "distributed", "computing"}),
    "pods": frozenset({"principles", "database", "systems"}),
    "stoc": frozenset({"theory", "computing"}),
    "focs": frozenset({"foundations", "computer", "science"}),
    "soda": frozenset({"discrete", "algorithms"}),
    "cacm": frozenset({"communications", "acm"}),
    "tods": frozenset({"transactions", "database", "systems"}),
    "tkde": frozenset({"transactions", "knowledge", "data", "engineering"}),
    "jacm": frozenset({"journal", "acm"}),
    "cidr": frozenset({"innovative", "data", "systems", "research"}),
    "edbt": frozenset({"extending", "database", "technology"}),
    "cikm": frozenset({"information", "knowledge", "management"}),
    "www": frozenset({"world", "wide", "web"}),
    "colt": frozenset({"computational", "learning", "theory"}),
    "uai": frozenset({"uncertainty", "artificial", "intelligence"}),
    "acl": frozenset({"association", "computational", "linguistics"}),
    "emnlp": frozenset({"empirical", "methods", "natural", "language", "processing"}),
    "cvpr": frozenset({"computer", "vision", "pattern", "recognition"}),
    "sigcomm": frozenset({"data", "communication"}),
    "infocom": frozenset({"computer", "communications"}),
    "dasfaa": frozenset({"database", "systems", "advanced", "applications"}),
}

# Generic venue boilerplate that should not drive the match. Note
# "transactions" and "journal" are NOT here: they distinguish journal
# series from the conferences sharing their topic tokens (TODS vs PODS
# both speak of database systems; only one is a Transactions).
_GENERIC = frozenset(
    {
        "proceedings",
        "proc",
        "conference",
        "conf",
        "international",
        "intl",
        "annual",
        "symposium",
        "symp",
        "workshop",
        "acm",
        "ieee",
        "usenix",
        "meeting",
    }
)


def expand_venue_tokens(mention: str) -> set[str]:
    """Content tokens of a venue mention, with known acronyms expanded.

    >>> sorted(expand_venue_tokens("ACM SIGMOD"))
    ['data', 'management', 'sigmod']
    """
    tokens = {
        token
        for token in tokenize(mention, drop_stopwords=True)
        # Digits (years, ordinals, volume numbers) say nothing about
        # which venue this is.
        if not token.isdigit()
    }
    expanded = set(tokens)
    for token in tokens:
        expansion = KNOWN_ACRONYMS.get(token)
        if expansion:
            expanded |= expansion
    return expanded - _GENERIC - STOPWORDS


def _acronym_bridge(left_tokens: list[str], right_tokens: list[str]) -> bool:
    """True when one mention is (or contains) an acronym of the other."""
    for token in left_tokens:
        if is_acronym_of(token, right_tokens):
            return True
    for token in right_tokens:
        if is_acronym_of(token, left_tokens):
            return True
    return False


@dataclass(frozen=True)
class VenueFeatures:
    """Everything :func:`venue_name_similarity` derives from one
    mention, computed once per distinct value instead of once per pair."""

    empty: bool
    norm: str
    #: all tokens of the mention, in order (the Monge-Elkan fallback).
    tokens: tuple[str, ...]
    #: stopword-free tokens, in order (the acronym machinery).
    content_tokens: tuple[str, ...]
    #: expanded content tokens (:func:`expand_venue_tokens`).
    content: frozenset[str]
    #: known distinctive acronym tokens present in the mention.
    acronyms: frozenset[str]
    #: tokens long enough to act as an acronym of the other side.
    acronym_candidates: frozenset[str]
    #: the strings an acronym of this mention may equal (the initials,
    #: optionally with up to two leading brand tokens skipped).
    initial_suffixes: frozenset[str]


def venue_features(value: str) -> VenueFeatures:
    tokens = tuple(tokenize(value))
    content_tokens = tuple(tokenize(value, drop_stopwords=True))
    initials = "".join(token[0] for token in content_tokens)
    if len(content_tokens) >= 2:
        suffixes = frozenset(
            initials[skip:] for skip in range(3) if len(initials) - skip >= 2
        )
    else:
        suffixes = frozenset()
    return VenueFeatures(
        empty=not value,
        norm=" ".join(tokens),
        tokens=tokens,
        content_tokens=content_tokens,
        content=frozenset(expand_venue_tokens(value)),
        acronyms=frozenset(t for t in content_tokens if t in KNOWN_ACRONYMS),
        acronym_candidates=frozenset(t for t in content_tokens if len(t) >= 3),
        initial_suffixes=suffixes,
    )


# Venue vocabularies are tiny ("proceedings", "sigmod", ...) and the
# same token pairs recur across every candidate pair in a block.
@register_cache
@functools.lru_cache(maxsize=65536)
def _token_jw(left: str, right: str) -> float:
    return jaro_winkler_similarity(left, right)


def _monge_elkan_tokens(
    left_tokens: tuple[str, ...], right_tokens: tuple[str, ...]
) -> float:
    """``monge_elkan_similarity`` over already-tokenised mentions."""
    if not left_tokens and not right_tokens:
        return 1.0
    if not left_tokens or not right_tokens:
        return 0.0

    def directed(source: tuple[str, ...], target: tuple[str, ...]) -> float:
        total = 0.0
        for token in source:
            total += max(_token_jw(token, other) for other in target)
        return total / len(source)

    return (directed(left_tokens, right_tokens) + directed(right_tokens, left_tokens)) / 2.0


def venue_similarity_features(
    left: VenueFeatures, right: VenueFeatures, floor: float = 0.0
) -> float:
    """:func:`venue_name_similarity` over precomputed features.

    Exact whenever the true score is at least *floor*; below *floor*
    the result is only guaranteed to stay below *floor* too. The
    acronym and containment layers are pure set operations here, and
    the fuzzy fallbacks are skipped (they are capped at 0.8) or
    cut off at the highest bar that still matters.
    """
    if left.empty or right.empty:
        return 0.0
    if left.norm and left.norm == right.norm:
        return 1.0

    best = 0.0
    if left.content and right.content:
        overlap = containment_similarity(left.content, right.content)
        jaccard = jaccard_similarity(left.content, right.content)
        if overlap >= 1.0 - 1e-9:
            size_gap = abs(len(left.content) - len(right.content))
            if size_gap <= 1 and min(len(left.content), len(right.content)) >= 2:
                candidate = 0.80
            else:
                candidate = 0.70 + 0.1 * jaccard
            if candidate > best:
                best = candidate
        candidate = 0.55 * jaccard + 0.35 * overlap
        if candidate > best:
            best = candidate

    if (left.acronym_candidates & right.initial_suffixes) or (
        right.acronym_candidates & left.initial_suffixes
    ):
        if best < 0.88:
            best = 0.88

    if left.acronyms & right.acronyms:
        if best < 0.95:
            best = 0.95
    elif left.acronyms and right.acronyms:
        return best if best < 0.2 else 0.2

    if best < 0.8:
        # The fallbacks contribute at most 0.8; once the structured
        # layers scored that high they cannot change the maximum.
        candidate = 0.8 * _monge_elkan_tokens(left.tokens, right.tokens)
        if candidate > best:
            best = candidate
        bar = best if best > floor else floor
        if bar <= 0.8:
            longest = max(len(left.norm), len(right.norm))
            if longest == 0:
                best = 0.8  # edit similarity of two empty strings is 1.0
            else:
                cutoff = int((1.0 - bar / 0.8) * longest + 1e-9)
                distance = damerau_levenshtein_within(left.norm, right.norm, cutoff)
                if distance is not None:
                    candidate = 0.8 * (1.0 - distance / longest)
                    if candidate > best:
                        best = candidate

    return best if best < 1.0 else 1.0


def venue_name_similarity(left: str, right: str) -> float:
    """Similarity in [0, 1] of two venue-name mentions.

    >>> venue_name_similarity("ACM Conference on Management of Data",
    ...                       "ACM SIGMOD") >= 0.8
    True
    """
    if not left or not right:
        return 0.0
    left_norm = " ".join(tokenize(left))
    right_norm = " ".join(tokenize(right))
    if left_norm and left_norm == right_norm:
        return 1.0

    left_raw = tokenize(left, drop_stopwords=True)
    right_raw = tokenize(right, drop_stopwords=True)
    left_content = expand_venue_tokens(left)
    right_content = expand_venue_tokens(right)

    scores = [0.0]

    if left_content and right_content:
        overlap = containment_similarity(left_content, right_content)
        jaccard = jaccard_similarity(left_content, right_content)
        if overlap >= 1.0 - 1e-9:
            # One mention's content is contained in the other's. Never
            # decisive on its own — "Machine Learning" (the journal) is
            # contained in "International Conference on Machine
            # Learning" — but strong supporting evidence that lets one
            # reconciled article (β) or an agreeing year settle it.
            size_gap = abs(len(left_content) - len(right_content))
            if size_gap <= 1 and min(len(left_content), len(right_content)) >= 2:
                scores.append(0.80)
            else:
                scores.append(0.70 + 0.1 * jaccard)
        scores.append(0.55 * jaccard + 0.35 * overlap)

    if _acronym_bridge(left_raw, right_raw):
        scores.append(0.88)

    # Shared distinctive acronym token ("sigmod" on both sides, maybe
    # wrapped in different boilerplate).
    left_acros = {token for token in left_raw if token in KNOWN_ACRONYMS}
    right_acros = {token for token in right_raw if token in KNOWN_ACRONYMS}
    if left_acros & right_acros:
        scores.append(0.95)
    elif left_acros and right_acros:
        # Two different known acronyms are strong negative evidence.
        return min(max(scores), 0.2)

    # Fall back to fuzzy token alignment for typo-level noise.
    scores.append(0.8 * monge_elkan_similarity(left_norm, right_norm))
    scores.append(0.8 * damerau_levenshtein_similarity(left_norm, right_norm))

    return min(max(scores), 1.0)
