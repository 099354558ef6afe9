"""The Personal Information Management domain (Figure 1(a), §5.1).

Classes: Person (name, email, coAuthor*, emailContact*), Article
(title, pages, year, authoredBy*, publishedIn*) and Venue (name, year,
location) — conferences and journals merged into one Venue class, as in
the paper's evaluation.

The paper runs one configuration on all datasets (§5.2), so this model
is :class:`~repro.domains.cora.CoraDomainModel` plus what email adds to
Person pairs: the email key channel (exact address = key), the
cross-attribute name-vs-email channel, common contacts through
emailContact as well as coAuthor, and §5.3's constraints 2 and 3.
Article, Venue and the parameters are inherited unchanged.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Mapping

from ..core.model import AtomicChannel
from ..core.references import Reference
from ..core.schema import Attribute, Schema, SchemaClass
from ..similarity import (
    NameCompat,
    email_features as _plain_email_features,
    email_similarity,
    email_similarity_features,
    email_upper_bound,
    name_email_similarity,
    parse_name,
    parsed_name_compatibility,
    register_cache,
)
from .cora import (
    _CACHE_SIZE,
    CORA_SCHEMA,
    CoraDomainModel,
    _article_blocking_keys,
    _name_blocking_keys,
    _venue_blocking_keys,
)

__all__ = ["PIM_SCHEMA", "PimDomainModel"]


PIM_SCHEMA = Schema(
    [
        SchemaClass(
            "Person",
            [
                Attribute.atomic("name"),
                Attribute.atomic("email"),
                Attribute.association("coAuthor", target="Person"),
                Attribute.association("emailContact", target="Person"),
            ],
        ),
        CORA_SCHEMA.cls("Article"),
        CORA_SCHEMA.cls("Venue"),
    ]
)


# The engine scores a channel through its fast comparator when it has
# one, behind its own value-pair memo, so only the constraint checks and
# the channels without a fast path reach these string-keyed caches —
# bounded tightly and registered for clear_similarity_caches().
_cached_email_sim = register_cache(functools.lru_cache(maxsize=_CACHE_SIZE)(email_similarity))
_cached_name_email_sim = register_cache(
    functools.lru_cache(maxsize=_CACHE_SIZE)(name_email_similarity)
)


def _fast_name_email_similarity(name_features, email_feats, floor: float) -> float:
    if email_feats.parsed is None:
        return 0.0
    return name_email_similarity(name_features, email_feats.parsed)


class PimDomainModel(CoraDomainModel):
    """Domain wiring and similarity models for the PIM information space."""

    schema = PIM_SCHEMA
    profiles = {
        **CoraDomainModel.profiles,
        "Person": (
            (("name", 1.0),),
            (("email", 1.0),),
            (("name", 0.4), ("name_email", 0.6)),
            (("name_email", 0.75),),
        ),
    }
    contact_attrs = ("coAuthor", "emailContact")

    def __init__(self) -> None:
        super().__init__()
        email_features = self.feature_cache.extractor("email")
        self._email_features = email_features
        self._atomic["Person"] += (
            AtomicChannel(
                name="email",
                class_name="Person",
                left_attr="email",
                right_attr="email",
                comparator=_cached_email_sim,
                liberal_threshold=0.5,
                is_key=True,
                features_left=email_features,
                features_right=email_features,
                fast_comparator=email_similarity_features,
                score_upper_bound=email_upper_bound,
            ),
            AtomicChannel(
                name="name_email",
                class_name="Person",
                left_attr="name",
                right_attr="email",
                comparator=_cached_name_email_sim,
                liberal_threshold=0.6,
                features_left=self._name_features,
                features_right=email_features,
                fast_comparator=_fast_name_email_similarity,
            ),
        )

    # -- candidates & keys ----------------------------------------------------
    def blocking_keys(self, reference: Reference) -> Iterable[str]:
        if reference.class_name == "Person":
            return sorted(
                _name_blocking_keys(reference, self._name_features)
                | _email_blocking_keys(reference, self._email_features)
            )
        if reference.class_name == "Article":
            return _article_blocking_keys(reference)
        return _venue_blocking_keys(reference, self._venue_features)

    def key_values(self, reference: Reference) -> Iterable[str]:
        if reference.class_name == "Person":
            # Identical email addresses denote one mailbox owner.
            return [
                "em:" + parsed.raw
                for value in reference.get("email")
                if (parsed := self._email_features(value).parsed) is not None
            ]
        return super().key_values(reference)

    def boolean_evidence_allowed(
        self, class_name: str, left: Mapping, right: Mapping
    ) -> bool:
        """§4's stricter condition for persons: boolean boosts apply
        only when each side carries a surname-bearing name *or* an
        email account that strongly encodes the other side's name
        (serving as a name form) — a bare "ping" plus a couple of
        shared contacts must not merge onto somebody else's Ping."""
        if class_name != "Person":
            return True
        if _has_structured_name(left, self._name_features) and _has_structured_name(
            right, self._name_features
        ):
            return True
        return _cross_name_evidence(left, right) >= 0.9

    # -- negative evidence -------------------------------------------------
    def conflict(
        self, class_name: str, left: Mapping, right: Mapping
    ) -> bool:
        if class_name != "Person":
            return False
        return _person_conflict(
            left, right, self._email_features, self._name_features
        )


def _email_blocking_keys(reference: Reference, email_features) -> set[str]:
    keys: set[str] = set()
    for value in reference.get("email"):
        parsed_email = email_features(value).parsed
        if parsed_email is None:
            continue
        keys.add("e:" + parsed_email.raw)
        for token in parsed_email.account_tokens:
            if len(token) >= 3:
                keys.add("t:" + token)
    return keys


#: Webmail organisations where distinct accounts say nothing about
#: distinct servers "belonging" to one person (constraint 3 exemption).
_PUBLIC_MAIL_HOSTS = frozenset(
    {"gmail", "yahoo", "hotmail", "aol", "outlook", "mail", "gmx", "protonmail"}
)


def _cross_name_evidence(left: Mapping, right: Mapping) -> float:
    """Best name-vs-email score across the two clusters' values."""
    best = 0.0
    for name in left.get("name", ()):
        for email in right.get("email", ()):
            best = max(best, _cached_name_email_sim(name, email))
    for name in right.get("name", ()):
        for email in left.get("email", ()):
            best = max(best, _cached_name_email_sim(name, email))
    return best


def _has_structured_name(values: Mapping, name_features) -> bool:
    return any(
        name_features(mention).surname for mention in values.get("name", ())
    )


def _person_conflict(
    left: Mapping,
    right: Mapping,
    email_features=_plain_email_features,
    name_features=parse_name,
) -> bool:
    """Constraints 2 and 3 of §5.3 over pooled cluster values."""
    left_emails = [
        parsed
        for value in left.get("email", ())
        if (parsed := email_features(value).parsed) is not None
    ]
    right_emails = [
        parsed
        for value in right.get("email", ())
        if (parsed := email_features(value).parsed) is not None
    ]
    # Constraint 2's escape hatch: a shared address trumps everything.
    left_raw = {parsed.raw for parsed in left_emails}
    if left_raw & {parsed.raw for parsed in right_emails}:
        return False
    # Constraint 3: one account per person per email server. It only
    # makes sense for institutional servers — everyone has a Gmail
    # account, so public webmail hosts are exempt — and accounts in
    # typo range of each other are tolerated (multi-valued noise, §3.3).
    for parsed_l in left_emails:
        for parsed_r in right_emails:
            if (
                parsed_l.domain_core == parsed_r.domain_core
                and parsed_l.domain_core not in _PUBLIC_MAIL_HOSTS
                and parsed_l.account != parsed_r.account
                and _cached_email_sim(parsed_l.raw, parsed_r.raw) < 0.85
            ):
                return True
    # Constraint 2: same first name + completely different last name (or
    # vice versa), detected by the name-compatibility classifier.
    right_names = [name_features(value) for value in right.get("name", ())]
    for value in left.get("name", ()):
        parsed_l = name_features(value)
        for parsed_r in right_names:
            if parsed_name_compatibility(parsed_l, parsed_r) is NameCompat.CONFLICT:
                return True
    return False
