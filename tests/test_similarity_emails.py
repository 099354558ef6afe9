"""Tests for email parsing and comparison."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity.emails import email_similarity, parse_email

MERGE = 0.85
T_RV = 0.7


class TestParseEmail:
    def test_basic(self):
        parsed = parse_email("stonebraker@csail.mit.edu")
        assert parsed.account == "stonebraker"
        assert parsed.domain == "csail.mit.edu"
        assert parsed.domain_core == "mit"

    def test_account_tokens(self):
        assert parse_email("john.doe@x.com").account_tokens == ("john", "doe")
        assert parse_email("john_doe@x.com").account_tokens == ("john", "doe")
        assert parse_email("jdoe@x.com").account_tokens == ("jdoe",)

    def test_invalid(self):
        assert parse_email("not an email") is None
        assert parse_email("two@@ats.com") is None
        assert parse_email("") is None

    def test_case_insensitive(self):
        assert parse_email("Bob@Example.COM").raw == "bob@example.com"


class TestEmailSimilarity:
    def test_exact_is_key(self):
        assert email_similarity("a@b.edu", "a@b.edu") == 1.0

    def test_same_account_elsewhere_is_below_trv(self):
        # "hao@" belongs to many Haos; must not open boolean boosts.
        score = email_similarity("hao@csail.mit.edu", "hao@acm.org")
        assert score < T_RV

    def test_typo_same_server_is_strong(self):
        score = email_similarity("stonebraker@mit.edu", "stonebraker2@mit.edu")
        assert T_RV < score < 1.0

    def test_unrelated(self):
        assert email_similarity("alice@a.com", "bob@b.com") < 0.3

    def test_invalid(self):
        assert email_similarity("garbage", "a@b.com") == 0.0

    @given(
        st.sampled_from(
            [
                "stonebraker@csail.mit.edu",
                "stonebraker@mit.edu",
                "mike@gmail.com",
                "m.stonebraker@mit.edu",
                "wong@berkeley.edu",
            ]
        ),
        st.sampled_from(
            [
                "stonebraker@csail.mit.edu",
                "stonebraker@gmail.com",
                "eugene@berkeley.edu",
            ]
        ),
    )
    @settings(max_examples=15)
    def test_range_and_symmetry(self, left, right):
        score = email_similarity(left, right)
        assert 0.0 <= score <= 1.0
        assert score == pytest.approx(email_similarity(right, left))

    def test_never_merges_without_exact_match_except_typos(self):
        # Everything short of exact equality or a same-server typo
        # stays below the merge threshold.
        pairs = [
            ("davis@cs.wisc.edu", "davis@gmail.com"),
            ("john.doe@x.com", "john_doe@y.com"),
            ("adavis@x.com", "amydavis@x.com"),
        ]
        for left, right in pairs:
            assert email_similarity(left, right) < MERGE, (left, right)
