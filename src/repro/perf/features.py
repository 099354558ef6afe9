"""Per-value feature precomputation for the hot comparator paths.

Profiling the graph build shows the comparators spend most of their
time *re-deriving* the same per-value artifacts for every candidate
pair: tokenising and normalising titles, parsing names and email
addresses, expanding venue acronyms. A :class:`FeatureCache` computes
each value's features exactly once per process and hands the similarity
layer's fast-path comparators (``*_similarity_features``) precomputed
inputs, so per-pair work reduces to set operations plus the occasional
bounded edit-distance kernel.
"""

from __future__ import annotations

from collections.abc import Callable

from ..similarity.emails import email_features
from ..similarity.names import parse_name
from ..similarity.titles import title_features
from ..similarity.venues import venue_features

__all__ = ["FeatureCache", "STANDARD_EXTRACTORS"]

_MISSING = object()


#: The extractors the shipped domains wire into their channels. Keyed
#: by feature kind; each maps a raw attribute value to its features.
STANDARD_EXTRACTORS: dict[str, Callable[[str], object]] = {
    "name": parse_name,
    "email": email_features,
    "title": title_features,
    "venue": venue_features,
}


class FeatureCache:
    """Process-local memo of derived per-value features.

    Entries are keyed ``(kind, value)`` so one cache serves every
    extractor of a domain. ``hits`` / ``misses`` feed the engine's
    cache-effectiveness stats; they are cumulative over the cache's
    lifetime (a domain instance reused across runs keeps counting).
    """

    __slots__ = ("_store", "hits", "misses")

    def __init__(self) -> None:
        self._store: dict[tuple[str, str], object] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def get(self, kind: str, value: str, compute: Callable[[str], object]):
        """The features of *value* under *kind*, computing on first use."""
        key = (kind, value)
        found = self._store.get(key, _MISSING)
        if found is not _MISSING:
            self.hits += 1
            return found
        self.misses += 1
        features = compute(value)
        self._store[key] = features
        return features

    def extractor(self, kind: str, compute: Callable[[str], object] | None = None):
        """A single-argument extractor closure over this cache.

        *compute* defaults to the standard extractor registered for
        *kind*. The closure is what gets attached to an
        :class:`~repro.core.model.AtomicChannel` as ``features_left`` /
        ``features_right``.
        """
        if compute is None:
            compute = STANDARD_EXTRACTORS[kind]

        def extract(value: str):
            return self.get(kind, value, compute)

        extract.__name__ = f"extract_{kind}"
        return extract

    def clear(self) -> int:
        """Drop every entry; returns how many were held."""
        dropped = len(self._store)
        self._store.clear()
        return dropped

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "entries": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / total) if total else 0.0,
        }
