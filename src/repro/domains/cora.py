"""The Cora citation domain (Figure 5, §5.4) — the shared model.

Schema: Person (name, coAuthor*), Article (title, pages, year,
authoredBy*, publishedIn*), Venue (name, year, location). Person
references carry *only a name*, and the weak-boolean evidence comes
from co-authors alone.

The evidence wiring follows §2.2/§4/§5.2:

* Person pairs: name vs name; strong-boolean evidence from reconciled
  articles (aligned authors); weak-boolean evidence from common
  contacts.
* Article pairs: title/pages/year plus real-valued evidence from the
  aligned author pair nodes and the venue pair node (Figure 2(a)).
* Venue pairs: name (acronym-aware) and year; strong-boolean evidence
  from reconciled articles — "a single article cannot be published in
  two different conferences".

Parameters are the paper's (§5.2): merge-threshold 0.85, attribute
merge-threshold 1.0, β = 0.1 (0.2 for Venue), γ = 0.05, t_rv = 0.7
(0.1 for Venue). The paper runs the same similarity functions and
thresholds on all datasets, so the PIM model
(:mod:`repro.domains.pim`) is this model plus email.
"""

from __future__ import annotations

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
    title_similarity,
    title_similarity_features,
    venue_name_similarity,
    venue_similarity_features,
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

# Fast-path comparators over precomputed features. Each is exact
# whenever the true score reaches the floor the engine compares against
# (property-tested in tests/test_perf_features.py).
def _fast_name_similarity(left, right, floor: float) -> float:
    return name_similarity(left, right)  # accepts ParsedName directly


# S_rv decision trees, realised as max-over-profiles (see domains.base).
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


class CoraDomainModel(DomainModel):
    """Domain wiring for the citation-portal information space."""

    schema = CORA_SCHEMA
    #: S_rv profiles per class.
    profiles = {
        "Person": ((("name", 1.0),),),
        "Article": _ARTICLE_PROFILES,
        "Venue": _VENUE_PROFILES,
    }
    #: Person attributes whose shared targets count as common contacts.
    contact_attrs = ("coAuthor",)

    def __init__(self) -> None:
        # One feature cache per domain instance: every channel fast
        # path, blocking-key derivation and constraint check shares the
        # precomputed per-value features.
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
                    comparator=monge_elkan_similarity,
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
        return (WeakDependency("Person", self.contact_attrs),)

    # -- scoring ------------------------------------------------------------
    def rv_score(self, class_name: str, evidence: Mapping[str, float]) -> float:
        return max_of_profiles(evidence, self.profiles[class_name])

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
            return sorted(_name_blocking_keys(reference, self._name_features))
        if reference.class_name == "Article":
            return _article_blocking_keys(reference)
        return _venue_blocking_keys(reference, self._venue_features)

    def key_values(self, reference: Reference) -> Iterable[str]:
        if reference.class_name == "Venue":
            # Identical normalised venue strings denote one venue.
            return [
                "vn:" + features.norm
                for value in reference.get("name")
                if (features := self._venue_features(value)).norm
            ]
        return ()

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


def _name_blocking_keys(reference: Reference, name_features) -> set[str]:
    keys: set[str] = set()
    for value in reference.get("name"):
        parsed = name_features(value)
        if parsed.surname:
            for part in parsed.surname.split():
                keys.add("t:" + part)
        if parsed.given and len(parsed.given) >= 3:
            for canonical in canonical_given_names(parsed.given):
                keys.add("t:" + canonical)
    return keys


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
