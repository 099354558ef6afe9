"""Generic string-similarity metrics, implemented from scratch.

All metrics return a score in ``[0.0, 1.0]`` where ``1.0`` means the two
strings are identical (after the metric's own notion of normalisation)
and ``0.0`` means entirely dissimilar. They are symmetric in their two
arguments.

The suite follows the measures surveyed by Cohen, Ravikumar & Fienberg
(IIWeb 2003), which the paper cites as its source of attribute-level
comparators: edit distance, Jaro, Jaro-Winkler, token-set overlap and
the hybrid token-level Monge-Elkan scheme.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .tokens import tokenize

__all__ = [
    "levenshtein_distance",
    "damerau_levenshtein_distance",
    "damerau_levenshtein_within",
    "levenshtein_similarity",
    "damerau_levenshtein_similarity",
    "damerau_levenshtein_similarity_at_least",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "jaccard_similarity",
    "containment_similarity",
    "monge_elkan_similarity",
]


def levenshtein_distance(left: str, right: str) -> int:
    """Classic edit distance (insert / delete / substitute, unit cost)."""
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    # Keep the shorter string in the inner loop for memory locality.
    if len(left) < len(right):
        left, right = right, left
    previous = list(range(len(right) + 1))
    for i, left_ch in enumerate(left, start=1):
        current = [i]
        for j, right_ch in enumerate(right, start=1):
            substitution = previous[j - 1] + (left_ch != right_ch)
            insertion = current[j - 1] + 1
            deletion = previous[j] + 1
            current.append(min(substitution, insertion, deletion))
        previous = current
    return previous[-1]


def damerau_levenshtein_distance(left: str, right: str) -> int:
    """Edit distance that also counts adjacent transpositions as one edit.

    This is the restricted (optimal string alignment) variant, which is
    the standard choice for typo models.
    """
    # The distance never exceeds the longer length, so this is never None.
    return _osa_within(left, right, max(len(left), len(right)))


def damerau_levenshtein_within(left: str, right: str, cutoff: int) -> int | None:
    """:func:`damerau_levenshtein_distance`, or ``None`` when it
    exceeds *cutoff*.

    Values <= cutoff are exact; anything larger is reported as ``None``,
    usually before the whole distance has been computed.
    """
    return _osa_within(left, right, cutoff)


def _osa_within(left: str, right: str, cutoff: int) -> int | None:
    """Optimal-string-alignment distance of *left* and *right*, or
    ``None`` when it exceeds *cutoff*.

    Hyyrö's bit-vector algorithm ("A bit-vector algorithm for computing
    Levenshtein and Damerau edit distances", 2003, extending Myers
    1999): the longer string is the pattern, and one column of the DP
    table is held as vertical +1/-1 delta bit vectors (``vp``/``vn``) in
    Python ints of any width, so each character of the shorter string
    costs a fixed handful of int operations. ``score`` tracks the last
    row. The shared prefix and suffix are stripped first, and the scan
    stops as soon as the last row, less the characters still to scan
    (each lowers it by at most one), exceeds the cutoff.
    """
    if cutoff < 0:
        return None
    if left == right:
        return 0
    # Strip the common prefix and suffix: edits only happen in between.
    len_l, len_r = len(left), len(right)
    start = 0
    while start < len_l and start < len_r and left[start] == right[start]:
        start += 1
    end = 0
    while (
        end < len_l - start
        and end < len_r - start
        and left[len_l - 1 - end] == right[len_r - 1 - end]
    ):
        end += 1
    left = left[start : len_l - end]
    right = right[start : len_r - end]
    if len(left) < len(right):
        left, right = right, left
    rows, cols = len(left), len(right)
    if rows - cols > cutoff:
        return None
    if cols == 0:
        return rows
    # peq[ch]: bit i set where left[i] == ch.
    peq: dict[str, int] = {}
    bit = 1
    for ch in left:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    vp, vn, d0, pm_prev = mask, 0, 0, 0
    score = rows
    remaining = cols
    for ch in right:
        pm = peq.get(ch, 0)
        # Diagonal zero-deltas; the last term is the transposition case.
        d0 = (
            (((pm & vp) + vp) ^ vp)
            | pm
            | vn
            | (((~d0 & pm) << 1) & pm_prev)
        )
        hp = (vn | ~(d0 | vp)) & mask
        hn = d0 & vp
        if hp & last:
            score += 1
        elif hn & last:
            score -= 1
        remaining -= 1
        if score - remaining > cutoff:
            return None
        hp = (hp << 1) | 1
        vp = ((hn << 1) | ~(d0 | hp)) & mask
        vn = hp & d0
        pm_prev = pm
    return score


def _distance_to_similarity(distance: int, left: str, right: str) -> float:
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    return 1.0 - distance / longest


def levenshtein_similarity(left: str, right: str) -> float:
    """Edit distance scaled into [0, 1] by the longer string's length."""
    return _distance_to_similarity(levenshtein_distance(left, right), left, right)


def damerau_levenshtein_similarity(left: str, right: str) -> float:
    """Transposition-aware edit similarity in [0, 1]."""
    return _distance_to_similarity(
        damerau_levenshtein_distance(left, right), left, right
    )


def damerau_levenshtein_similarity_at_least(
    left: str, right: str, floor: float
) -> float:
    """Threshold-aware :func:`damerau_levenshtein_similarity`.

    Returns the exact similarity whenever it is >= *floor*, and some
    value < *floor* (usually 0.0) otherwise, so ``sim_at_least(l, r, t)
    >= t`` is equivalent to ``similarity(l, r) >= t``, while Hyyrö's
    bit-vector kernel stops as soon as the floor is out of reach.
    """
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    # similarity >= floor  <=>  distance <= (1 - floor) * longest. The
    # epsilon guards against 0.999...8 float artifacts truncating away
    # a boundary distance; an over-wide cutoff is harmless because the
    # returned distance (and hence similarity) is still exact.
    cutoff = int((1.0 - floor) * longest + 1e-9)
    distance = damerau_levenshtein_within(left, right, cutoff)
    if distance is None:
        return 0.0
    return 1.0 - distance / longest


def jaro_similarity(left: str, right: str) -> float:
    """Jaro similarity: match-window character agreement with transpositions."""
    if left == right:
        return 1.0
    if not left or not right:
        return 0.0
    window = max(len(left), len(right)) // 2 - 1
    window = max(window, 0)
    left_flags = [False] * len(left)
    right_flags = [False] * len(right)
    matches = 0
    for i, ch in enumerate(left):
        start = max(0, i - window)
        stop = min(i + window + 1, len(right))
        for j in range(start, stop):
            if not right_flags[j] and right[j] == ch:
                left_flags[i] = True
                right_flags[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, flagged in enumerate(left_flags):
        if not flagged:
            continue
        while not right_flags[j]:
            j += 1
        if left[i] != right[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    return (
        matches / len(left)
        + matches / len(right)
        + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_similarity(
    left: str, right: str, *, prefix_scale: float = 0.1, max_prefix: int = 4
) -> float:
    """Jaro similarity boosted for agreeing prefixes (Winkler's variant)."""
    jaro = jaro_similarity(left, right)
    prefix = 0
    for left_ch, right_ch in zip(left, right):
        if left_ch != right_ch or prefix >= max_prefix:
            break
        prefix += 1
    return jaro + prefix * prefix_scale * (1.0 - jaro)


def jaccard_similarity(left: Sequence[str] | set[str], right: Sequence[str] | set[str]) -> float:
    """Jaccard overlap of two token collections."""
    left_set = set(left)
    right_set = set(right)
    if not left_set and not right_set:
        return 1.0
    if not left_set or not right_set:
        return 0.0
    return len(left_set & right_set) / len(left_set | right_set)


def containment_similarity(
    left: Sequence[str] | set[str], right: Sequence[str] | set[str]
) -> float:
    """Overlap divided by the *smaller* set: 1.0 when one contains the other.

    Useful for venue names where one mention is a truncation of the
    other ("SIGMOD" vs "SIGMOD Conference").
    """
    left_set = set(left)
    right_set = set(right)
    if not left_set and not right_set:
        return 1.0
    if not left_set or not right_set:
        return 0.0
    return len(left_set & right_set) / min(len(left_set), len(right_set))


def monge_elkan_similarity(
    left: str,
    right: str,
    *,
    inner: Callable[[str, str], float] = jaro_winkler_similarity,
) -> float:
    """Hybrid token similarity: average best inner-match per left token.

    Monge-Elkan is asymmetric; we symmetrise by taking the mean of the
    two directions so the engine can rely on symmetry.
    """
    left_tokens = tokenize(left)
    right_tokens = tokenize(right)
    if not left_tokens and not right_tokens:
        return 1.0
    if not left_tokens or not right_tokens:
        return 0.0

    def directed(source: list[str], target: list[str]) -> float:
        total = 0.0
        for token in source:
            total += max(inner(token, other) for other in target)
        return total / len(source)

    return (directed(left_tokens, right_tokens) + directed(right_tokens, left_tokens)) / 2.0
