"""The Cora citation domain (Figure 5, §5.4).

Schema: Person (name, coAuthor*), Article (title, pages, authoredBy*,
publishedIn*), Venue (name, year, location). Compared to PIM, person
references carry *only a name* — no email, hence no key attribute and
no cross-attribute channel — and the weak-boolean evidence comes from
co-authors alone. Everything else (parameters, thresholds, the venue
machinery) matches the PIM model, because the paper runs the same
similarity functions and thresholds on all datasets.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Mapping

from ..core.model import (
    AssociationChannel,
    AtomicChannel,
    DomainModel,
    StrongDependency,
    WeakDependency,
)
from ..core.references import Reference
from ..core.schema import Attribute, Schema, SchemaClass
from ..perf.features import FeatureCache
from ..similarity import (
    monge_elkan_similarity,
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
from ..similarity.nicknames import canonical_given_names
from ..similarity.tokens import tokenize
from .base import PAPER_BETA, PAPER_GAMMA, PAPER_MERGE_THRESHOLD, max_of_profiles

__all__ = ["CORA_SCHEMA", "CoraDomainModel"]


CORA_SCHEMA = Schema(
    [
        SchemaClass(
            "Person",
            [
                Attribute.atomic("name"),
                Attribute.association("coAuthor", target="Person"),
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

# The engine calls a channel's plain comparator only when it has no fast
# path; Monge-Elkan over locations is the costly one of those, so it is
# memoised and registered for clear_similarity_caches().
_CACHE_SIZE = 20_000


@register_cache
@functools.lru_cache(maxsize=_CACHE_SIZE)
def _location_similarity(left: str, right: str) -> float:
    return monge_elkan_similarity(left, right)


def _fast_name_similarity(left, right, floor: float) -> float:
    return name_similarity(left, right)  # accepts ParsedName directly


_PERSON_PROFILES = ((("name", 1.0),),)

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


class CoraDomainModel(DomainModel):
    """Domain wiring for the citation-portal information space."""

    schema = CORA_SCHEMA

    def __init__(self) -> None:
        self.feature_cache = FeatureCache()
        name_features = self.feature_cache.extractor("name")
        title_features = self.feature_cache.extractor("title")
        venue_features = self.feature_cache.extractor("venue")
        self._name_features = name_features
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
        return (WeakDependency("Person", ("coAuthor",)),)

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

    def blocking_keys(self, reference: Reference) -> Iterable[str]:
        if reference.class_name == "Person":
            return _person_blocking_keys(reference, self._name_features)
        if reference.class_name == "Article":
            return _article_blocking_keys(reference)
        return _venue_blocking_keys(reference, self._venue_features)

    def key_values(self, reference: Reference) -> Iterable[str]:
        if reference.class_name == "Venue":
            return [
                "vn:" + features.norm
                for value in reference.get("name")
                if (features := self._venue_features(value)).norm
            ]
        return ()

    def distinct_pairs(self, references: Iterable[Reference]):
        """Constraint 1: co-authors of one citation are distinct."""
        for reference in references:
            if reference.class_name != "Article":
                continue
            authors = reference.get("authoredBy")
            for i, left in enumerate(authors):
                for right in authors[i + 1 :]:
                    yield left, right

    def class_order(self):
        return ("Venue", "Person", "Article")


def _person_blocking_keys(reference: Reference, name_features) -> Iterable[str]:
    keys: set[str] = set()
    for value in reference.get("name"):
        parsed = name_features(value)
        if parsed.surname:
            for part in parsed.surname.split():
                keys.add("t:" + part)
        if parsed.given and len(parsed.given) >= 3:
            for canonical in canonical_given_names(parsed.given):
                keys.add("t:" + canonical)
    return sorted(keys)


def _article_blocking_keys(reference: Reference) -> Iterable[str]:
    keys: set[str] = set()
    for value in reference.get("title"):
        tokens = tokenize(value, drop_stopwords=True)
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
