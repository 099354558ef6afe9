"""Email-address parsing and comparison.

Email addresses are the closest thing to a key in personal information:
two references sharing an address denote the same person (modulo
mailing lists). But one person owns several addresses, addresses get
mistyped, and an account often encodes the owner's name — all of which
this module models.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .strings import damerau_levenshtein_similarity
from .tokens import normalize

__all__ = [
    "ParsedEmail",
    "EmailFeatures",
    "email_features",
    "parse_email",
    "email_similarity",
    "email_similarity_features",
    "email_upper_bound",
]

_EMAIL_RE = re.compile(r"^\s*([^@\s]+)@([^@\s]+)\s*$")
# Separators people use inside account names: john.doe, john_doe, john-doe.
_ACCOUNT_SEP_RE = re.compile(r"[._\-+]")


@dataclass(frozen=True)
class ParsedEmail:
    """An email address split into account and domain.

    ``domain_core`` strips the host part down to the organisation
    ("csail.mit.edu" -> "mit"), which lets us treat addresses at
    different hosts of one institution as same-server for the paper's
    constraint 3 ("a person has a unique account on an email server").
    """

    account: str
    domain: str
    raw: str

    @property
    def account_tokens(self) -> tuple[str, ...]:
        return tuple(token for token in _ACCOUNT_SEP_RE.split(self.account) if token)

    @property
    def domain_core(self) -> str:
        parts = self.domain.split(".")
        if len(parts) >= 2:
            return parts[-2]
        return self.domain


def parse_email(address: str) -> ParsedEmail | None:
    """Parse *address*; return ``None`` when it is not a valid address.

    >>> parse_email("stonebraker@csail.mit.edu").account
    'stonebraker'
    >>> parse_email("not an email") is None
    True
    """
    match = _EMAIL_RE.match(normalize(address))
    if match is None:
        return None
    account, domain = match.groups()
    return ParsedEmail(account=account, domain=domain, raw=f"{account}@{domain}")


@dataclass(frozen=True)
class EmailFeatures:
    """Parsed address plus the derived pieces :func:`email_similarity`
    needs, computed once per distinct value instead of once per pair.

    ``parsed`` is ``None`` for strings that are not addresses at all,
    mirroring :func:`parse_email`."""

    parsed: ParsedEmail | None
    #: the account's separator-split tokens, as a set.
    tokens: frozenset[str]
    account_length: int


def email_features(value: str) -> EmailFeatures:
    parsed = parse_email(value)
    if parsed is None:
        return EmailFeatures(parsed=None, tokens=frozenset(), account_length=0)
    return EmailFeatures(
        parsed=parsed,
        tokens=frozenset(parsed.account_tokens),
        account_length=len(parsed.account),
    )


def email_upper_bound(left: EmailFeatures, right: EmailFeatures) -> float:
    """Cheap upper bound on ``email_similarity`` of the two addresses.

    Sound because every branch of the comparator that can exceed the
    returned bound is ruled out by a precomputed feature: account edit
    similarity is at most the account-length ratio, and the token
    branches require the exact set relations tested here.
    """
    if left.parsed is None or right.parsed is None:
        return 0.0
    if left.parsed.raw == right.parsed.raw:
        return 1.0
    length_bound = 1.0 - abs(left.account_length - right.account_length) / max(
        left.account_length, right.account_length
    )
    if length_bound >= 0.85:
        # The typo-range branch (and everything below it) stays <= 0.90.
        return 0.90
    if left.tokens and left.tokens == right.tokens:
        return 0.88
    shared = left.tokens & right.tokens
    if shared and max(len(token) for token in shared) >= 4:
        return 0.65
    return length_bound * 0.5


def email_similarity_features(
    left: EmailFeatures, right: EmailFeatures, floor: float = 0.0
) -> float:
    """:func:`email_similarity` over precomputed features (exact)."""
    if left.parsed is None or right.parsed is None:
        return 0.0
    return email_similarity(left.parsed, right.parsed)


def email_similarity(left: ParsedEmail | str, right: ParsedEmail | str) -> float:
    """Similarity of two email addresses in [0, 1].

    Exact equality is key-like evidence (1.0). Same account at a
    different domain is strong (the same handle reused across
    employers). Otherwise similarity decays with account edit distance;
    the domain contributes only a mild boost because shared domains are
    common among colleagues.
    """
    left = parse_email(left) if isinstance(left, str) else left
    right = parse_email(right) if isinstance(right, str) else right
    if left is None or right is None:
        return 0.0
    if left.raw == right.raw:
        return 1.0
    account_sim = damerau_levenshtein_similarity(left.account, right.account)
    if left.account == right.account:
        # Same handle on another server: suggestive but never decisive,
        # and deliberately below t_rv = 0.7 — "hao@" belongs to many
        # Haos, so this evidence must not open the door to boolean
        # boosts either; reconciling two accounts of one person is the
        # name-vs-email channel's job (§5.3's Name&Email discussion).
        return 0.68
    same_domain = left.domain_core == right.domain_core
    if account_sim >= 0.85:
        # Typo-range accounts: likely the same mailbox when the domain
        # agrees, plausible otherwise.
        return 0.90 if same_domain else 0.68
    # Token-level containment: "john.doe" vs "john_doe" style pairs.
    left_tokens = set(left.account_tokens)
    right_tokens = set(right.account_tokens)
    if left_tokens and left_tokens == right_tokens:
        return 0.88 if same_domain else 0.68
    shared = left_tokens & right_tokens
    if shared and max(len(token) for token in shared) >= 4:
        return 0.65 if same_domain else 0.55
    return account_sim * (0.5 if same_domain else 0.4)
