"""Cross-attribute evidence: comparing a person *name* to an *email*.

This is the paper's "Name&Email" evidence channel (§2.2, §5.3): the
account string of "stonebraker@csail.mit.edu" matches the surname of
"Stonebraker, M.", which is positive evidence that the two references
denote one person even though the references share no attribute type.
"""

from __future__ import annotations

import functools

from .caches import register_cache
from .emails import ParsedEmail, parse_email
from .names import ParsedName, parse_name
from .nicknames import all_name_forms
from .strings import damerau_levenshtein_similarity_at_least

__all__ = ["name_email_similarity"]


# The same (token, word) pairs recur across every candidate pair that
# shares a blocking key, and each call runs an edit distance.
@register_cache
@functools.lru_cache(maxsize=65536)
def _account_matches_word(account_token: str, word: str) -> float:
    """Score how well a single account token encodes a single name word."""
    if not account_token or not word:
        return 0.0
    if account_token == word:
        return 1.0
    if (
        len(account_token) >= 4
        and len(word) >= 4
        and (word.startswith(account_token) or account_token.startswith(word))
    ):
        return 0.9
    if damerau_levenshtein_similarity_at_least(account_token, word, 0.85) >= 0.85:
        return 0.85
    return 0.0


def _score_account_against_name(email: ParsedEmail, name: ParsedName) -> float:
    """Best interpretation of the account string as an encoding of *name*."""
    tokens = email.account_tokens
    if not tokens:
        return 0.0
    account = "".join(tokens)
    surname = name.surname
    # Both directions of the nickname relation: a "mike@" account may
    # encode "Michael ...", and a "michael@" account may belong to the
    # reference displayed as "mike".
    givens = all_name_forms(name.given) if name.given else ()

    candidates: list[float] = [0.0]

    # The scores grade how uniquely the account pins down *this* name:
    # a full given+surname encoding is decisive (1.0); a bare surname
    # or an initial+surname is strong but shared by everyone with that
    # surname (0.85-0.9); a bare given name is weak (many Michaels).
    if surname:
        # Account token encodes the surname: "stonebraker@..."
        candidates.extend(
            0.9 * _account_matches_word(token, surname) for token in tokens
        )
        for given in givens:
            # first-initial + surname fused into one token:
            # "mstonebraker" / "stonebrakerm".
            fused = given[0] + surname
            if account == fused or account == surname + given[0]:
                candidates.append(0.9)
            elif damerau_levenshtein_similarity_at_least(account, fused, 0.85) >= 0.85:
                candidates.append(0.85)
            # full given + surname fused: "michaelstonebraker". Only a
            # real given name counts — an initial would make this the
            # (weaker) initial+surname pattern above.
            if len(given) >= 2 and (
                account == given + surname or account == surname + given
            ):
                candidates.append(1.0)

    # Account token encodes the given name (or a nickname of it):
    # "mike@...", "michael.s@..."
    for given in givens:
        for token in tokens:
            score = _account_matches_word(token, given)
            if score > 0:
                candidates.append(score * 0.6)

    # Separated tokens encode given+surname: "michael.stonebraker"
    # (decisive), or initial+surname: "m.stonebraker" (strong).
    if surname and len(tokens) >= 2:
        for i, token in enumerate(tokens):
            if _account_matches_word(token, surname) > 0:
                others = tokens[:i] + tokens[i + 1 :]
                for other in others:
                    for given in givens:
                        if _account_matches_word(other, given) > 0:
                            candidates.append(1.0)
                        elif other == given[0]:
                            candidates.append(0.9)

    return max(candidates)


def name_email_similarity(name: ParsedName | str, email: ParsedEmail | str) -> float:
    """Similarity in [0, 1] between a person name and an email address.

    >>> round(name_email_similarity("Stonebraker, M.", "stonebraker@csail.mit.edu"), 2)
    1.0
    >>> name_email_similarity("Eugene Wong", "stonebraker@csail.mit.edu")
    0.0
    """
    if isinstance(name, str):
        name = parse_name(name)
    if isinstance(email, str):
        parsed = parse_email(email)
        if parsed is None:
            return 0.0
        email = parsed
    if not name.raw:
        return 0.0
    return _score_account_against_name(email, name)
