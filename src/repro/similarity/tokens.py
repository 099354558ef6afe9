"""Text normalisation and tokenisation utilities.

Every similarity function in :mod:`repro.similarity` works on strings that
have been pushed through the normalisers in this module, so that case,
punctuation and diacritic noise never reaches the metric code.
"""

from __future__ import annotations

import re
import unicodedata
from collections.abc import Iterable

__all__ = [
    "normalize",
    "strip_accents",
    "tokenize",
    "is_acronym_of",
    "expand_whitespace",
    "STOPWORDS",
]

# Words carrying no discriminative signal in titles and venue names.
STOPWORDS = frozenset(
    {
        "a",
        "an",
        "and",
        "at",
        "by",
        "for",
        "in",
        "of",
        "on",
        "or",
        "the",
        "to",
        "with",
    }
)

_WHITESPACE_RE = re.compile(r"\s+")
_TOKEN_RE = re.compile(r"[a-z0-9]+")


def strip_accents(text: str) -> str:
    """Return *text* with combining diacritical marks removed.

    >>> strip_accents("Müller-Gärtner")
    'Muller-Gartner'
    """
    if text.isascii():
        return text
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def expand_whitespace(text: str) -> str:
    """Collapse runs of whitespace into single spaces and strip ends."""
    return _WHITESPACE_RE.sub(" ", text).strip()


def normalize(text: str) -> str:
    """Lower-case, de-accent and whitespace-normalise *text*.

    Punctuation is preserved: token-level helpers decide how to treat
    it, and name parsing needs to see commas and periods.
    """
    return expand_whitespace(strip_accents(text).lower())


def tokenize(text: str, *, drop_stopwords: bool = False) -> list[str]:
    """Split *text* into lower-case alphanumeric tokens.

    >>> tokenize("Distributed Query-Processing!")
    ['distributed', 'query', 'processing']
    """
    tokens = _TOKEN_RE.findall(normalize(text))
    if drop_stopwords:
        tokens = [token for token in tokens if token not in STOPWORDS]
    return tokens


def is_acronym_of(short: str, long_form: str | Iterable[str]) -> bool:
    """Check whether *short* could abbreviate *long_form*.

    The test is subsequence-based so that partial acronyms also match:
    each character of *short* must pick off the initial of a token of
    *long_form*, in order.

    >>> is_acronym_of("vldb", "Very Large Data Bases")
    True
    >>> is_acronym_of("cacm", "Communications of the ACM")
    False
    """
    short_tokens = tokenize(short)
    if len(short_tokens) != 1:
        return False
    candidate = short_tokens[0]
    if len(candidate) < 2:
        return False
    if len(candidate) < 3:
        return False
    if isinstance(long_form, str):
        long_tokens = tokenize(long_form, drop_stopwords=True)
    else:
        long_tokens = [token for token in long_form if token not in STOPWORDS]
    if len(long_tokens) < 2:
        return False
    initials = "".join(token[0] for token in long_tokens if token)
    # The candidate must cover the full initials string, optionally
    # skipping up to two leading brand/boilerplate tokens ("IEEE
    # International Conference on Data Engineering" -> "icde"). A loose
    # subsequence test would let "acm" claim to abbreviate any phrase
    # with an a..c..m in its initials.
    for skip in range(0, 3):
        if len(initials) - skip < 2:
            break
        if candidate == initials[skip:]:
            return True
    return False
