"""Tests for normalisation, tokenisation and acronym handling."""

from hypothesis import given
from hypothesis import strategies as st

from repro.similarity.tokens import (
    expand_whitespace,
    is_acronym_of,
    normalize,
    strip_accents,
    tokenize,
)


class TestNormalize:
    def test_accents(self):
        assert strip_accents("Müller-Gärtner") == "Muller-Gartner"
        assert strip_accents("José") == "Jose"

    def test_whitespace(self):
        assert expand_whitespace("  a \t b\n c ") == "a b c"

    def test_normalize_keeps_punctuation(self):
        assert normalize("Stonebraker, M.") == "stonebraker, m."

    @given(st.text(max_size=30))
    def test_normalize_idempotent(self, text):
        assert normalize(normalize(text)) == normalize(text)


class TestTokenize:
    def test_alnum_tokens(self):
        assert tokenize("Query-Processing (2nd ed.)") == [
            "query",
            "processing",
            "2nd",
            "ed",
        ]

    def test_stopwords(self):
        assert tokenize("the art of computer programming", drop_stopwords=True) == [
            "art",
            "computer",
            "programming",
        ]

    @given(st.text(max_size=30))
    def test_tokens_are_lowercase_alnum(self, text):
        for token in tokenize(text):
            assert token == token.lower()
            assert token.isalnum()


class TestAcronyms:
    def test_is_acronym_full_cover(self):
        assert is_acronym_of("vldb", "Very Large Data Bases")
        assert is_acronym_of("sosp", "Symposium on Operating Systems Principles")

    def test_is_acronym_with_brand_prefix_skip(self):
        assert is_acronym_of("icde", "IEEE International Conference on Data Engineering")
        assert is_acronym_of("vldb", "International Conference on Very Large Data Bases")

    def test_loose_subsequences_rejected(self):
        # "acm" is NOT an acronym of a phrase merely containing a..c..m
        # initials somewhere.
        assert not is_acronym_of("acm", "Proceedings of the ACM Conference on Management of Data")
        assert not is_acronym_of("kdd", "Knowledge Discovery and Dissemination Domains Extra")

    def test_too_short(self):
        assert not is_acronym_of("ab", "Aardvark Breeding")
        assert not is_acronym_of("x", "X-rays")

    def test_multi_token_candidate_rejected(self):
        assert not is_acronym_of("very large", "Very Large Data Bases")
