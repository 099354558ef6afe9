"""Registry of the similarity layer's memoisation caches.

The engine's pair memo already caches every channel score, so a cache
here must answer a question below the channel: one name-word edit test
(``_account_matches_word``), one venue-token Jaro-Winkler score
(``_token_jw``), or the name-compatibility verdict the name channel
and constraint 2 both ask (``parsed_name_compatibility``). Those three
register here. A long-lived process — resumed runs, benchmark loops,
services reconciling many datasets — would otherwise accumulate
entries for values it will never see again, so
:func:`clear_similarity_caches` empties them all at once.
"""

from __future__ import annotations

from collections import namedtuple

__all__ = ["PairMemo", "register_cache", "clear_similarity_caches", "registered_caches"]

_REGISTRY: list = []
_MISSING = object()
#: ``functools.lru_cache``'s ``cache_info()`` fields.
CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def register_cache(cached):
    """Register an ``lru_cache``-wrapped function (anything exposing
    ``cache_clear`` and ``cache_info``) for :func:`clear_similarity_caches`;
    returns it so the call composes with the decorator."""
    _REGISTRY.append(cached)
    return cached


def registered_caches() -> tuple:
    return tuple(_REGISTRY)


def clear_similarity_caches() -> int:
    """Empty every registered cache; returns how many were cleared."""
    for cached in _REGISTRY:
        cached.cache_clear()
    return len(_REGISTRY)


class PairMemo:
    """A bounded memo of a two-argument function, ``left -> {right: value}``.

    ``functools.lru_cache`` keeps one argument tuple per entry, and a
    tuple holding objects the garbage collector tracks (parsed names,
    say) stays tracked for as long as the entry lives. Nested dicts
    keep the arguments themselves as keys, so the memo adds one tracked
    object per distinct *left* argument, not one per pair. When it
    holds *maxsize* pairs it is emptied. Register it like an
    ``lru_cache``: it exposes ``cache_clear`` and ``cache_info``.
    """

    __slots__ = ("_function", "_maxsize", "_rows", "_size", "_hits", "_misses")

    def __init__(self, function, maxsize: int) -> None:
        self._function = function
        self._maxsize = maxsize
        self._rows: dict = {}
        self._size = self._hits = self._misses = 0

    def __call__(self, left, right):
        row = self._rows.get(left)
        if row is None:
            row = self._rows[left] = {}
        else:
            value = row.get(right, _MISSING)
            if value is not _MISSING:
                self._hits += 1
                return value
        if self._size >= self._maxsize:
            self.cache_clear()
            row = self._rows[left] = {}
        value = row[right] = self._function(left, right)
        self._size += 1
        self._misses += 1
        return value

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self._hits, self._misses, self._maxsize, self._size)

    def cache_clear(self) -> None:
        self._rows.clear()
        self._size = self._hits = self._misses = 0
