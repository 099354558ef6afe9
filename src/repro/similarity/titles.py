"""Article-title and page-range similarity."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .strings import (
    damerau_levenshtein_similarity,
    damerau_levenshtein_within,
    jaccard_similarity,
)
from .tokens import tokenize

__all__ = [
    "TitleFeatures",
    "title_features",
    "title_similarity",
    "title_similarity_features",
    "pages_similarity",
    "year_similarity",
]

_PAGE_RE = re.compile(r"(\d+)\s*(?:--?|–|—)\s*(\d+)")
_NUMBER_RE = re.compile(r"\d+")


def title_similarity(left: str, right: str) -> float:
    """Similarity of two article titles in [0, 1]: the larger of token
    Jaccard and edit similarity (robust to both word drops and
    character typos).
    """
    if not left or not right:
        return 0.0
    left_norm = " ".join(tokenize(left))
    right_norm = " ".join(tokenize(right))
    if left_norm and left_norm == right_norm:
        return 1.0
    token_score = jaccard_similarity(
        tokenize(left, drop_stopwords=True), tokenize(right, drop_stopwords=True)
    )
    char_score = damerau_levenshtein_similarity(left_norm, right_norm)
    return max(token_score, char_score)


@dataclass(frozen=True)
class TitleFeatures:
    """Everything :func:`title_similarity` derives from one title string,
    computed once per distinct value instead of once per pair."""

    empty: bool
    norm: str
    tokens: frozenset[str]


def title_features(value: str) -> TitleFeatures:
    norm = " ".join(tokenize(value))
    return TitleFeatures(
        empty=not value,
        norm=norm,
        tokens=frozenset(tokenize(value, drop_stopwords=True)),
    )


def title_similarity_features(
    left: TitleFeatures, right: TitleFeatures, floor: float = 0.0
) -> float:
    """:func:`title_similarity` over precomputed features.

    Returns the exact ``title_similarity`` value whenever that value is
    at least *floor*; when the true score is below
    *floor* the result is merely guaranteed to also be below *floor*
    (the edit-distance kernel is cut off at the highest bar that still
    matters, which is where the speedup comes from).
    """
    if left.empty or right.empty:
        return 0.0
    if left.norm and left.norm == right.norm:
        return 1.0
    token_score = jaccard_similarity(left.tokens, right.tokens)
    longest = max(len(left.norm), len(right.norm))
    if longest == 0:
        # Both normalise to nothing: token Jaccard (of two empty sets)
        # and edit similarity both say 1.0, exactly as the slow path.
        return 1.0
    bar = token_score if token_score > floor else floor
    # distance <= cutoff  <=>  edit similarity >= bar (the epsilon only
    # ever widens the window, which keeps the result exact).
    cutoff = int((1.0 - bar) * longest + 1e-9)
    distance = damerau_levenshtein_within(left.norm, right.norm, cutoff)
    if distance is None:
        return token_score
    char_score = 1.0 - distance / longest
    return token_score if token_score > char_score else char_score


def _parse_pages(text: str) -> tuple[int, int] | None:
    match = _PAGE_RE.search(text)
    if match:
        start, end = int(match.group(1)), int(match.group(2))
        return (start, end) if start <= end else (end, start)
    numbers = _NUMBER_RE.findall(text)
    if len(numbers) == 1:
        page = int(numbers[0])
        return (page, page)
    return None


def pages_similarity(left: str, right: str) -> float:
    """Similarity of two page-range strings.

    Equal ranges score 1; a bare start page matching a range's start
    scores high (citations often drop the end page); disjoint ranges
    score 0.
    """
    if not left or not right:
        return 0.0
    left_range = _parse_pages(left)
    right_range = _parse_pages(right)
    if left_range is None or right_range is None:
        return 1.0 if left.strip() == right.strip() else 0.0
    if left_range == right_range:
        return 1.0
    if left_range[0] == right_range[0]:
        return 0.9
    # Overlapping ranges still suggest the same article (off-by-one OCR).
    if left_range[0] <= right_range[1] and right_range[0] <= left_range[1]:
        return 0.6
    return 0.0


def year_similarity(left: str, right: str) -> float:
    """Similarity of two publication-year strings.

    Equal years score 1; adjacent years score 0.5 (conference vs
    proceedings-printing year); anything else 0. Two-digit years are
    interpreted in the 19xx/20xx window that makes them closest.
    """
    left_years = _NUMBER_RE.findall(left or "")
    right_years = _NUMBER_RE.findall(right or "")
    if not left_years or not right_years:
        return 0.0
    best = 0.0
    for left_text in left_years:
        for right_text in right_years:
            left_year = _expand_year(int(left_text))
            right_year = _expand_year(int(right_text))
            delta = abs(left_year - right_year)
            if delta == 0:
                best = max(best, 1.0)
            elif delta == 1:
                best = max(best, 0.5)
    return best


def _expand_year(year: int) -> int:
    if year >= 100:
        return year
    return 1900 + year if year >= 30 else 2000 + year
