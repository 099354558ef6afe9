"""Tests for the performance layer: feature cache, bounded kernels,
fast-path comparator exactness, the pair memo, and the fine-grained
contact-cache invalidation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Reconciler, ReferenceStore
from repro.domains import CoraDomainModel, PimDomainModel
from repro.perf import FeatureCache
from repro.perf.scoring import memoised_score, score_value_pair
from repro.similarity import (
    clear_similarity_caches,
    email_similarity,
    email_similarity_features,
    name_similarity,
    parse_email,
    parsed_name_compatibility,
    registered_caches,
    title_features,
    title_similarity,
    title_similarity_features,
    venue_features,
    venue_name_similarity,
    venue_similarity_features,
)
from repro.similarity.caches import PairMemo
from repro.similarity.strings import (
    damerau_levenshtein_distance,
    damerau_levenshtein_similarity,
    damerau_levenshtein_similarity_at_least,
    damerau_levenshtein_within,
)

from .conftest import example1_references


class TestFeatureCache:
    def test_hit_miss_counting(self):
        cache = FeatureCache()
        calls = []

        def compute(value):
            calls.append(value)
            return value.upper()

        assert cache.get("k", "a", compute) == "A"
        assert cache.get("k", "a", compute) == "A"
        assert cache.get("k", "b", compute) == "B"
        assert calls == ["a", "b"]
        assert cache.hits == 1
        assert cache.misses == 2
        assert len(cache) == 2

    def test_kinds_do_not_collide(self):
        cache = FeatureCache()
        assert cache.get("upper", "x", str.upper) == "X"
        assert cache.get("title", "x", str.title) == "X"
        assert cache.misses == 2

    def test_none_results_are_cached(self):
        cache = FeatureCache()
        calls = []

        def compute(value):
            calls.append(value)
            return None

        assert cache.get("k", "a", compute) is None
        assert cache.get("k", "a", compute) is None
        assert calls == ["a"]
        assert cache.hits == 1

    def test_clear_and_stats(self):
        cache = FeatureCache()
        cache.get("k", "a", str.upper)
        assert cache.clear() == 1
        assert len(cache) == 0
        stats = cache.stats()
        assert stats["entries"] == 0
        assert stats["hits"] + stats["misses"] == 1

    def test_standard_extractor(self):
        cache = FeatureCache()
        extract = cache.extractor("title")
        features = extract("Query Processing in Databases")
        assert features == title_features("Query Processing in Databases")
        assert extract("Query Processing in Databases") is features


def _osa_distance(left: str, right: str) -> int:
    """Textbook optimal-string-alignment DP over the full table: the
    independent oracle for the bit-vector kernel."""
    rows, cols = len(left) + 1, len(right) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        table[i][0] = i
    for j in range(cols):
        table[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if left[i - 1] == right[j - 1] else 1
            best = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + cost,
            )
            if (
                i > 1
                and j > 1
                and left[i - 1] == right[j - 2]
                and left[i - 2] == right[j - 1]
            ):
                best = min(best, table[i - 2][j - 2] + 1)
            table[i][j] = best
    return table[-1][-1]


def _osa_similarity(left: str, right: str) -> float:
    longest = max(len(left), len(right))
    return 1.0 - _osa_distance(left, right) / longest if longest else 1.0


def _assert_kernels_match_oracle(left: str, right: str) -> None:
    exact = _osa_distance(left, right)
    assert damerau_levenshtein_distance(left, right) == exact
    assert damerau_levenshtein_distance(right, left) == exact
    for cutoff in (-1, 0, exact - 1, exact, exact + 1, 10**9):
        expected = exact if 0 <= cutoff and exact <= cutoff else None
        assert damerau_levenshtein_within(left, right, cutoff) == expected, cutoff
    similarity = _osa_similarity(left, right)
    assert damerau_levenshtein_similarity(left, right) == similarity
    for floor in (0.0, 0.5, 0.8, 0.9, 1.0, similarity):
        bounded = damerau_levenshtein_similarity_at_least(left, right, floor)
        if similarity >= floor:
            assert bounded == pytest.approx(similarity, abs=1e-12)
        else:
            assert bounded < floor


@st.composite
def _transposed(draw, alphabet="abcde", max_size=150):
    """A base string and a copy with adjacent transpositions (and the
    odd substitution) injected."""
    base = draw(st.text(alphabet=alphabet, max_size=max_size))
    chars = list(base)
    for position in draw(st.lists(st.integers(0, max_size), max_size=4)):
        if len(chars) > 1:
            position %= len(chars) - 1
            chars[position], chars[position + 1] = chars[position + 1], chars[position]
    if chars and draw(st.booleans()):
        chars[draw(st.integers(0, len(chars) - 1))] = draw(st.sampled_from(alphabet))
    return base, "".join(chars)


# Non-BMP letters and emoji, combining marks, and a precomposed letter.
_UNICODE = "ae\u00e9\u0301\u0308\u4e2d\U0001d518\U0001f600"


class TestBoundedDamerauLevenshtein:
    @given(
        st.text(alphabet="abcde ", max_size=12),
        st.text(alphabet="abcde ", max_size=12),
        st.integers(0, 14),
    )
    @settings(max_examples=400)
    def test_matches_exact_distance_within_cutoff(self, left, right, cutoff):
        exact = _osa_distance(left, right)
        bounded = damerau_levenshtein_within(left, right, cutoff)
        if exact <= cutoff:
            assert bounded == exact
        else:
            assert bounded is None

    def test_negative_cutoff(self):
        assert damerau_levenshtein_within("a", "b", -1) is None

    def test_equal_strings(self):
        assert damerau_levenshtein_within("same", "same", 0) == 0

    def test_optimal_string_alignment_not_unrestricted(self):
        # Unrestricted Damerau gives 2 ("ca" -> "ac" -> "abc"); OSA may
        # not edit a transposed pair again, so it gives 3.
        assert _osa_distance("ca", "abc") == 3
        assert damerau_levenshtein_within("ca", "abc", 2) is None
        assert damerau_levenshtein_within("ca", "abc", 3) == 3

    @given(
        st.text(alphabet="abcde", max_size=10),
        st.text(alphabet="abcde", max_size=10),
        st.sampled_from([0.0, 0.60, 0.65, 0.80, 0.85, 0.90, 1.0]),
    )
    @settings(max_examples=400)
    def test_similarity_at_least_thresholds(self, left, right, floor):
        exact = _osa_similarity(left, right)
        bounded = damerau_levenshtein_similarity_at_least(left, right, floor)
        if exact >= floor:
            assert bounded == pytest.approx(exact, abs=1e-12)
        else:
            assert bounded < floor


class TestBitVectorKernelDifferential:
    """Every public Damerau-Levenshtein entry point against the
    full-table oracle, at the cutoffs around the true distance."""

    @given(_transposed())
    @settings(max_examples=150, deadline=None)
    def test_injected_transpositions(self, pair):
        _assert_kernels_match_oracle(*pair)

    @given(st.text(alphabet=_UNICODE, max_size=16), st.text(alphabet=_UNICODE, max_size=16))
    @settings(max_examples=200)
    def test_unicode(self, left, right):
        _assert_kernels_match_oracle(left, right)

    @given(st.text(max_size=20), st.text(max_size=20))
    @settings(max_examples=150)
    def test_arbitrary_text(self, left, right):
        _assert_kernels_match_oracle(left, right)

    @pytest.mark.parametrize("other", ["", "a", "ab", "\U0001f600", "e\u0301"])
    def test_empty_strings(self, other):
        _assert_kernels_match_oracle("", other)
        _assert_kernels_match_oracle(other, "")

    @given(
        st.sampled_from([65, 100, 129, 200]),
        st.text(alphabet="abc", min_size=129, max_size=200),
        _transposed(alphabet="abc", max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_vectors_wider_than_machine_words(self, size, text, edit):
        # Pattern lengths past 64 and 128 bits: an edited head keeps the
        # distance small, so the scan runs to the end; a shifted copy
        # makes it large, so the early exit fires.
        head, edited = edit
        left = (head + text)[:size]
        right = edited + text[: size - len(head)]
        _assert_kernels_match_oracle(left, right)
        _assert_kernels_match_oracle(text[:size], text[size // 3 :][:size])


def _pim_values():
    """Realistic value pools: Example 1 plus adversarial variants."""
    titles, venues, emails = set(), set(), set()
    for reference in example1_references():
        titles.update(reference.get("title"))
        venues.update(reference.values.get("name", ()) if reference.class_name == "Venue" else ())
        emails.update(reference.values.get("email", ()))
    titles.update({"", "query", "Distributed query processing", "a b c d e f"})
    venues.update({"", "SIGMOD", "VLDB", "Proc. ACM SIGMOD", "journal of the acm"})
    emails.update({"", "not an email", "eugene@berkeley.edu", "e.wong@berkeley.edu",
                   "stonebraker@mit.edu", "mike@gmail.com"})
    return sorted(titles), sorted(venues), sorted(emails)


_TITLES, _VENUES, _EMAILS = _pim_values()
_FLOORS = [0.0, 0.02, 0.25, 0.5, 0.8]


class TestFastPathExactness:
    """fast(lf, rf, floor) must equal the slow comparator whenever the
    slow score clears the floor, and stay below the floor otherwise —
    the engine only tests ``score >= floor``, so decisions match."""

    @pytest.mark.parametrize("floor", _FLOORS)
    def test_title(self, floor):
        for left in _TITLES:
            for right in _TITLES:
                slow = title_similarity(left, right)
                fast = title_similarity_features(
                    title_features(left), title_features(right), floor
                )
                if slow >= floor:
                    assert fast == pytest.approx(slow, abs=1e-12), (left, right)
                else:
                    assert fast < floor, (left, right)

    @pytest.mark.parametrize("floor", _FLOORS)
    def test_venue(self, floor):
        for left in _VENUES:
            for right in _VENUES:
                slow = venue_name_similarity(left, right)
                fast = venue_similarity_features(
                    venue_features(left), venue_features(right), floor
                )
                if slow >= floor:
                    assert fast == pytest.approx(slow, abs=1e-12), (left, right)
                else:
                    assert fast < floor, (left, right)

    @pytest.mark.parametrize("floor", _FLOORS)
    def test_email(self, floor):
        for left in _EMAILS:
            for right in _EMAILS:
                slow = email_similarity(left, right)
                fast = email_similarity_features(
                    parse_email(left), parse_email(right), floor
                )
                assert fast == pytest.approx(slow, abs=1e-12), (left, right)


class TestChannelPrefilterNeverExcludes:
    """End-to-end over the wired channels: score_value_pair at each
    channel's liberal threshold must agree with the slow comparator on
    every value pair that clears the threshold."""

    @pytest.mark.parametrize("domain_cls", [PimDomainModel, CoraDomainModel])
    def test_channels(self, domain_cls):
        domain = domain_cls()
        pools = {
            "name": ["Michael Stonebraker", "Stonebraker, M.", "mike",
                     "Eugene Wong", "Wong, E.", ""],
            "email": _EMAILS,
            "title": _TITLES,
            "pages": ["169-180", "169", "201-210", ""],
            "year": ["1978", "1979", "2004", ""],
            "location": ["Austin, Texas", "austin tx", "Paris", ""],
        }
        venue_pool = {"name": _VENUES, "year": pools["year"], "location": pools["location"]}
        for class_name in domain.class_order():
            for channel in domain.atomic_channels(class_name):
                left_pool = (venue_pool if class_name == "Venue" else pools)[channel.left_attr]
                right_pool = (venue_pool if class_name == "Venue" else pools)[channel.right_attr]
                threshold = channel.liberal_threshold
                for left in left_pool:
                    for right in right_pool:
                        slow = channel.comparator(left, right)
                        fast = score_value_pair(channel, left, right, threshold)
                        if slow >= threshold:
                            assert fast == pytest.approx(slow, abs=1e-12), (
                                class_name, channel.name, left, right)
                        else:
                            assert fast is None or fast < threshold, (
                                class_name, channel.name, left, right)


class TestScoreMemo:
    def test_memo_reuse_and_floor_semantics(self):
        domain = PimDomainModel()
        channel = next(
            c for c in domain.atomic_channels("Article") if c.name == "title"
        )
        memo = {}
        left, right = "query processing", "query processing systems"
        score1, outcome1 = memoised_score(channel, left, right, 0.5, memo)
        score2, outcome2 = memoised_score(channel, left, right, 0.5, memo)
        assert outcome1 == "miss"
        assert outcome2 == "hit"
        assert score2 == score1
        # Raising the floor may reuse the entry; lowering it recomputes.
        score3, outcome3 = memoised_score(channel, left, right, 0.8, memo)
        assert outcome3 == "hit"
        _, outcome4 = memoised_score(channel, left, right, 0.02, memo)
        assert outcome4 == "miss"
        # After the lower-floor recompute the entry serves both floors.
        _, outcome5 = memoised_score(channel, left, right, 0.5, memo)
        assert outcome5 == "hit"


class TestRegisteredCaches:
    def test_clear_similarity_caches(self):
        # Touch a registered cache so at least one has entries.
        PimDomainModel()  # ensure the domain module's caches registered
        title_similarity("a b", "a c")
        count = clear_similarity_caches()
        assert count == len(registered_caches())
        assert count > 0
        for cached in registered_caches():
            assert cached.cache_info().currsize == 0

    def test_pair_memo_is_bounded_and_exact(self):
        calls = []

        def product(left, right):
            calls.append((left, right))
            return None if left == right else left * right

        memo = PairMemo(product, maxsize=3)
        assert [memo(2, 3), memo(2, 3), memo(3, 2), memo(4, 4), memo(4, 4)] == [
            6, 6, 6, None, None
        ]
        assert calls == [(2, 3), (3, 2), (4, 4)]  # None is a value, not a miss
        assert memo.cache_info() == (2, 3, 3, 3)
        memo(5, 6)  # full: emptied first, then holds the new pair
        assert memo.cache_info().currsize == 1
        memo.cache_clear()
        assert memo.cache_info() == (0, 0, 3, 0)

    def test_conflict_check_shares_the_name_channel_cache(self):
        """The name channel's scoring fills the parsed-name compatibility
        memo; the PIM constraint-2 check on the same names then hits it."""
        domain = PimDomainModel()
        clear_similarity_caches()
        parse = domain.feature_cache.extractor("name")
        left, right = "Michael Stonebraker", "Michael Carey"
        name_similarity(parse(left), parse(right))
        before = parsed_name_compatibility.cache_info()
        assert before.currsize == 1
        assert domain.conflict("Person", {"name": (left,)}, {"name": (right,)})
        after = parsed_name_compatibility.cache_info()
        assert (after.hits, after.currsize) == (before.hits + 1, 1)


class TestContactCacheInvalidation:
    def test_merge_refreshes_weak_counts(self, example1_store):
        engine = Reconciler(example1_store, PimDomainModel())
        engine.build()
        # Prime the cache for p1/p4 (coAuthor contacts).
        before_l = engine._contact_roots("p1", "Person")
        before_r = engine._contact_roots("p4", "Person")
        assert engine.stats.contacts_cache_misses >= 2
        assert not (before_l & before_r)
        # Merge a contact of each side; both cached sets must refresh.
        assert engine.uf.union("p2", "p5") is not None
        after_l = engine._contact_roots("p1", "Person")
        after_r = engine._contact_roots("p4", "Person")
        assert after_l & after_r, "merged contact must become a common root"

    def test_unrelated_merge_keeps_cache_warm(self, example1_store):
        engine = Reconciler(example1_store, PimDomainModel())
        engine.build()
        engine._contact_roots("p1", "Person")
        misses = engine.stats.contacts_cache_misses
        # p7/p8 are unrelated to p1's contacts (p2, p3).
        assert engine.uf.union("p7", "p8") is not None
        engine._contact_roots("p1", "Person")
        assert engine.stats.contacts_cache_misses == misses
        assert engine.stats.contacts_cache_hits >= 1

    def test_full_run_matches_versioned_cache_semantics(self, example1_store):
        # The paper's Example 1 end state must be unchanged by the
        # invalidation rework: all Stonebraker/Wong/Epstein mentions
        # reconcile, and the two venue mentions do.
        engine = Reconciler(example1_store, PimDomainModel())
        result = engine.run()
        assert engine.uf.connected("p2", "p9")  # mike == Stonebraker
        assert engine.uf.connected("p3", "p7")  # both Eugene Wongs
        assert engine.uf.connected("c1", "c2")
        assert result.completed
