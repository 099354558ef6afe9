"""Attribute-level similarity substrate.

Everything the reconciliation engine knows about *strings* lives here:
generic metrics (:mod:`repro.similarity.strings`), domain comparators
for names, emails, venues, titles and pages, and the cross-attribute
name-vs-email evidence. Where a channel has a feature-based fast path
(``*_similarity_features``) the engine calls that; the plain
comparators are the reference those fast paths are tested against.
"""

from .caches import clear_similarity_caches, register_cache, registered_caches
from .emails import (
    EmailFeatures,
    ParsedEmail,
    email_features,
    email_similarity,
    email_similarity_features,
    email_upper_bound,
    parse_email,
)
from .name_email import name_email_similarity
from .names import (
    NameCompat,
    ParsedName,
    name_compatibility,
    name_similarity,
    parse_name,
    parsed_name_compatibility,
)
from .nicknames import all_name_forms, canonical_given_names, share_canonical_given_name
from .strings import (
    containment_similarity,
    damerau_levenshtein_distance,
    damerau_levenshtein_similarity,
    damerau_levenshtein_within,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    monge_elkan_similarity,
)
from .titles import (
    TitleFeatures,
    pages_similarity,
    title_features,
    title_similarity,
    title_similarity_features,
    title_upper_bound,
    year_similarity,
)
from .tokens import is_acronym_of, normalize, tokenize
from .venues import (
    VenueFeatures,
    venue_features,
    venue_name_similarity,
    venue_similarity_features,
    venue_upper_bound,
)

__all__ = [
    "clear_similarity_caches",
    "register_cache",
    "registered_caches",
    "EmailFeatures",
    "email_features",
    "email_similarity_features",
    "email_upper_bound",
    "TitleFeatures",
    "title_features",
    "title_similarity_features",
    "title_upper_bound",
    "VenueFeatures",
    "venue_features",
    "venue_similarity_features",
    "venue_upper_bound",
    "damerau_levenshtein_within",
    "ParsedEmail",
    "email_similarity",
    "parse_email",
    "name_email_similarity",
    "NameCompat",
    "ParsedName",
    "name_compatibility",
    "name_similarity",
    "parsed_name_compatibility",
    "parse_name",
    "all_name_forms",
    "canonical_given_names",
    "share_canonical_given_name",
    "containment_similarity",
    "damerau_levenshtein_distance",
    "damerau_levenshtein_similarity",
    "jaccard_similarity",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "levenshtein_distance",
    "levenshtein_similarity",
    "monge_elkan_similarity",
    "pages_similarity",
    "title_similarity",
    "year_similarity",
    "is_acronym_of",
    "normalize",
    "tokenize",
    "venue_name_similarity",
]
