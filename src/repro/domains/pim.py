"""The Personal Information Management domain (Figure 1(a), §5.1).

Classes: Person (name, email, coAuthor*, emailContact*), Article
(title, pages, year, authoredBy*, publishedIn*) and Venue (name, year,
location) — conferences and journals merged into one Venue class, as in
the paper's evaluation.

The evidence wiring follows §2.2/§4/§5.2:

* Person pairs: name vs name, email vs email (exact address = key),
  and the cross-attribute name-vs-email channel; strong-boolean
  evidence from reconciled articles (aligned authors); weak-boolean
  evidence from common contacts (coAuthor + emailContact).
* Article pairs: title/pages/year plus real-valued evidence from the
  aligned author pair nodes and the venue pair node (Figure 2(a)).
* Venue pairs: name (acronym-aware) and year; strong-boolean evidence
  from reconciled articles — "a single article cannot be published in
  two different conferences".

Parameters are the paper's (§5.2): merge-threshold 0.85, attribute
merge-threshold 1.0, β = 0.1 (0.2 for Venue), γ = 0.05, t_rv = 0.7
(0.1 for Venue), shared across *all* datasets.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Mapping

from ..core.model import (
    AssociationChannel,
    AtomicChannel,
    DomainModel,
    EngineConfig,
    StrongDependency,
    WeakDependency,
)
from ..core.references import Reference
from ..core.schema import Attribute, Schema, SchemaClass
from ..perf.features import FeatureCache
from ..similarity import (
    NameCompat,
    email_features as _plain_email_features,
    canonical_given_names,
    email_similarity,
    email_similarity_features,
    email_upper_bound,
    monge_elkan_similarity,
    name_compatibility,
    name_email_similarity,
    name_similarity,
    pages_similarity,
    register_cache,
    title_similarity,
    title_similarity_features,
    title_upper_bound,
    venue_name_similarity,
    venue_similarity_features,
    venue_upper_bound,
    year_similarity,
)
from ..similarity.tokens import tokenize
from .base import PAPER_BETA, PAPER_GAMMA, PAPER_MERGE_THRESHOLD, max_of_profiles

__all__ = ["PIM_SCHEMA", "PimDomainModel", "depgraph_config"]


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
        SchemaClass(
            "Article",
            [
                Attribute.atomic("title"),
                Attribute.atomic("pages"),
                Attribute.atomic("year"),
                Attribute.association("authoredBy", target="Person"),
                Attribute.association("publishedIn", target="Venue"),
            ],
        ),
        SchemaClass(
            "Venue",
            [
                Attribute.atomic("name"),
                Attribute.atomic("year"),
                Attribute.atomic("location"),
            ],
        ),
    ]
)


# The engine scores a channel through its fast comparator when it has
# one, behind its own value-pair memo, so only the constraint checks and
# the channels without a fast path reach these string-keyed caches —
# bounded tightly and registered for clear_similarity_caches().
_CACHE_SIZE = 20_000
_cached_email_sim = register_cache(functools.lru_cache(maxsize=_CACHE_SIZE)(email_similarity))
_cached_name_email_sim = register_cache(
    functools.lru_cache(maxsize=_CACHE_SIZE)(name_email_similarity)
)
_cached_name_compat = register_cache(
    functools.lru_cache(maxsize=_CACHE_SIZE)(name_compatibility)
)


@register_cache
@functools.lru_cache(maxsize=_CACHE_SIZE)
def _location_similarity(left: str, right: str) -> float:
    return monge_elkan_similarity(left, right)


# Fast-path comparators over precomputed features. Each is exact
# whenever the true score reaches the floor the engine compares against
# (property-tested in tests/test_perf_features.py).
def _fast_name_similarity(left, right, floor: float) -> float:
    return name_similarity(left, right)  # accepts ParsedName directly


def _fast_name_email_similarity(name_features, email_feats, floor: float) -> float:
    if email_feats.parsed is None:
        return 0.0
    return name_email_similarity(name_features, email_feats.parsed)


# S_rv decision trees, realised as max-over-profiles (see domains.base).
_PERSON_PROFILES = (
    (("name", 1.0),),
    (("email", 1.0),),
    (("name", 0.4), ("name_email", 0.6)),
    (("name_email", 0.75),),
)

_ARTICLE_PROFILES = (
    (("title", 0.80),),
    (("title", 0.70), ("pages", 0.30)),
    (("title", 0.75), ("year", 0.25)),
    (("title", 0.70), ("authors", 0.30)),
    (("title", 0.60), ("pages", 0.25), ("authors", 0.15)),
    (("title", 0.65), ("year", 0.15), ("authors", 0.20)),
    (("title", 0.55), ("pages", 0.20), ("authors", 0.15), ("venue", 0.10)),
)

# Venue identity is the *series* (SIGMOD-1994 and SIGMOD-2004 are one
# venue), so the year contributes nothing; with MAX pooling over
# enriched clusters a year channel would always saturate anyway.
_VENUE_PROFILES = (
    (("name", 0.90),),
    (("name", 0.82), ("location", 0.10)),
)

_PROFILES = {
    "Person": _PERSON_PROFILES,
    "Article": _ARTICLE_PROFILES,
    "Venue": _VENUE_PROFILES,
}


class PimDomainModel(DomainModel):
    """Domain wiring and similarity models for the PIM information space."""

    schema = PIM_SCHEMA

    def __init__(self) -> None:
        # One feature cache per domain instance: every channel fast
        # path, blocking-key derivation and constraint check shares the
        # precomputed per-value features.
        self.feature_cache = FeatureCache()
        name_features = self.feature_cache.extractor("name")
        email_features = self.feature_cache.extractor("email")
        title_features = self.feature_cache.extractor("title")
        venue_features = self.feature_cache.extractor("venue")
        self._name_features = name_features
        self._email_features = email_features
        self._venue_features = venue_features
        self._atomic = {
            "Person": (
                AtomicChannel(
                    name="name",
                    class_name="Person",
                    left_attr="name",
                    right_attr="name",
                    comparator=name_similarity,
                    liberal_threshold=0.5,
                    features_left=name_features,
                    features_right=name_features,
                    fast_comparator=_fast_name_similarity,
                ),
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
                    features_left=name_features,
                    features_right=email_features,
                    fast_comparator=_fast_name_email_similarity,
                ),
            ),
            "Article": (
                AtomicChannel(
                    name="title",
                    class_name="Article",
                    left_attr="title",
                    right_attr="title",
                    comparator=title_similarity,
                    liberal_threshold=0.5,
                    features_left=title_features,
                    features_right=title_features,
                    fast_comparator=title_similarity_features,
                    score_upper_bound=title_upper_bound,
                ),
                AtomicChannel(
                    name="pages",
                    class_name="Article",
                    left_attr="pages",
                    right_attr="pages",
                    comparator=pages_similarity,
                    liberal_threshold=0.5,
                ),
                AtomicChannel(
                    name="year",
                    class_name="Article",
                    left_attr="year",
                    right_attr="year",
                    comparator=year_similarity,
                    liberal_threshold=0.5,
                ),
            ),
            "Venue": (
                AtomicChannel(
                    name="name",
                    class_name="Venue",
                    left_attr="name",
                    right_attr="name",
                    comparator=venue_name_similarity,
                    liberal_threshold=0.25,
                    features_left=venue_features,
                    features_right=venue_features,
                    fast_comparator=venue_similarity_features,
                    score_upper_bound=venue_upper_bound,
                ),
                AtomicChannel(
                    name="year",
                    class_name="Venue",
                    left_attr="year",
                    right_attr="year",
                    comparator=year_similarity,
                    liberal_threshold=0.5,
                ),
                AtomicChannel(
                    name="location",
                    class_name="Venue",
                    left_attr="location",
                    right_attr="location",
                    comparator=_location_similarity,
                    liberal_threshold=0.6,
                ),
            ),
        }
        self._assoc = {
            "Person": (),
            "Article": (
                AssociationChannel(
                    name="authors",
                    class_name="Article",
                    attr="authoredBy",
                    target_class="Person",
                    aggregate="mean_aligned",
                ),
                AssociationChannel(
                    name="venue",
                    class_name="Article",
                    attr="publishedIn",
                    target_class="Venue",
                    aggregate="max",
                ),
            ),
            "Venue": (),
        }

    # -- wiring -----------------------------------------------------------
    def atomic_channels(self, class_name: str):
        return self._atomic[class_name]

    def association_channels(self, class_name: str):
        return self._assoc[class_name]

    def strong_dependencies(self):
        return (
            StrongDependency("Article", "authoredBy", "Person"),
            StrongDependency(
                "Article", "publishedIn", "Venue", ensure_target_nodes=True
            ),
        )

    def weak_dependencies(self):
        return (WeakDependency("Person", ("coAuthor", "emailContact")),)

    # -- scoring ------------------------------------------------------------
    def rv_score(self, class_name: str, evidence: Mapping[str, float]) -> float:
        return max_of_profiles(evidence, _PROFILES[class_name])

    def merge_threshold(self, class_name: str) -> float:
        return PAPER_MERGE_THRESHOLD

    def beta(self, class_name: str) -> float:
        return 0.2 if class_name == "Venue" else PAPER_BETA

    def gamma(self, class_name: str) -> float:
        return PAPER_GAMMA

    def t_rv(self, class_name: str) -> float:
        return 0.1 if class_name == "Venue" else 0.7

    # -- candidates & keys ----------------------------------------------------
    def blocking_keys(self, reference: Reference) -> Iterable[str]:
        if reference.class_name == "Person":
            return _person_blocking_keys(
                reference, self._name_features, self._email_features
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
        if reference.class_name == "Venue":
            # Identical normalised venue strings denote one venue.
            return [
                "vn:" + features.norm
                for value in reference.get("name")
                if (features := self._venue_features(value)).norm
            ]
        return ()

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
        return _person_conflict(left, right, self._email_features)

    def distinct_pairs(self, references: Iterable[Reference]):
        """§5.3 constraint 1: authors of a paper are distinct persons."""
        for reference in references:
            if reference.class_name != "Article":
                continue
            authors = reference.get("authoredBy")
            for i, left in enumerate(authors):
                for right in authors[i + 1 :]:
                    yield left, right

    def class_order(self):
        # Venue and Person pairs feed Article pairs as real-valued
        # neighbours, so they are computed first (§3.2 heuristic).
        return ("Venue", "Person", "Article")


def _person_blocking_keys(
    reference: Reference, name_features, email_features
) -> Iterable[str]:
    keys: set[str] = set()
    for value in reference.get("name"):
        parsed = name_features(value)
        if parsed.surname:
            for part in parsed.surname.split():
                keys.add("t:" + part)
        if parsed.given and len(parsed.given) >= 3:
            for canonical in canonical_given_names(parsed.given):
                keys.add("t:" + canonical)
    for value in reference.get("email"):
        parsed_email = email_features(value).parsed
        if parsed_email is None:
            continue
        keys.add("e:" + parsed_email.raw)
        for token in parsed_email.account_tokens:
            if len(token) >= 3:
                keys.add("t:" + token)
    return sorted(keys)


def _article_blocking_keys(reference: Reference) -> Iterable[str]:
    keys: set[str] = set()
    for value in reference.get("title"):
        tokens = tokenize(value, drop_stopwords=True)
        # The longest tokens are the most selective ones; three keys
        # give typo'd titles three chances to co-block.
        for token in sorted(tokens, key=lambda t: (-len(t), t))[:3]:
            keys.add("w:" + token)
    for value in reference.get("pages"):
        digits = "".join(ch for ch in value if ch.isdigit() or ch == "-")
        head = digits.split("-", 1)[0]
        if head:
            keys.add("p:" + head)
    return sorted(keys)


def _venue_blocking_keys(reference: Reference, venue_features) -> Iterable[str]:
    keys: set[str] = set()
    for value in reference.get("name"):
        features = venue_features(value)
        for token in features.content:
            keys.add("v:" + token)
        if features.norm:
            keys.add("n:" + features.norm)
    return sorted(keys)


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
    left: Mapping, right: Mapping, email_features=_plain_email_features
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
    for name_l in left.get("name", ()):
        for name_r in right.get("name", ()):
            if _cached_name_compat(name_l, name_r) is NameCompat.CONFLICT:
                return True
    return False


def depgraph_config() -> EngineConfig:
    """The full DepGraph configuration used in the paper's evaluation."""
    return EngineConfig()
