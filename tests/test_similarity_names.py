"""Tests for person-name parsing, compatibility and similarity."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.similarity.names import (
    NameCompat,
    name_compatibility,
    name_similarity,
    parse_name,
)

MERGE = 0.85  # the paper's reference merge threshold
T_RV = 0.7  # the paper's boolean-evidence gate for persons


class TestParseName:
    def test_natural_order(self):
        parsed = parse_name("Michael R. Stonebraker")
        assert parsed.given == "michael"
        assert parsed.middle == ("r",)
        assert parsed.surname == "stonebraker"
        assert parsed.is_full

    def test_comma_order(self):
        parsed = parse_name("Stonebraker, Michael")
        assert parsed.given == "michael"
        assert parsed.surname == "stonebraker"

    def test_comma_initials(self):
        parsed = parse_name("Epstein, R.S.")
        assert parsed.surname == "epstein"
        assert parsed.given == "r"
        assert parsed.middle == ("s",)
        assert parsed.given_is_initial
        assert not parsed.is_full

    def test_mononym(self):
        parsed = parse_name("mike")
        assert parsed.is_single_token
        assert parsed.given == "mike"
        assert parsed.surname == ""

    def test_suffixes_dropped(self):
        parsed = parse_name("Martin Luther King Jr.")
        assert parsed.surname == "king"

    def test_empty(self):
        assert parse_name("").raw == ""
        assert parse_name("  ,  ").given == ""

    def test_accented(self):
        assert parse_name("José García").surname == "garcia"


class TestCompatibility:
    @pytest.mark.parametrize(
        "left,right,expected",
        [
            ("Michael Stonebraker", "Michael Stonebraker", NameCompat.EQUAL),
            ("Michael Stonebraker", "Stonebraker, Michael", NameCompat.EQUAL),
            ("Michael Stonebraker", "Stonebraker, M.", NameCompat.COMPATIBLE),
            ("Michael Stonebraker", "M. Stonebraker", NameCompat.COMPATIBLE),
            ("Mike Stonebraker", "Michael Stonebraker", NameCompat.COMPATIBLE),
            ("mike", "Michael Stonebraker", NameCompat.COMPATIBLE),
            ("mike", "Stonebraker, M.", NameCompat.COMPATIBLE),
            ("Michael Stonebraker", "Michael Carey", NameCompat.CONFLICT),
            ("Michael Stonebraker", "David Stonebraker", NameCompat.CONFLICT),
            ("Matt", "Michael Stonebraker", NameCompat.CONFLICT),
            ("Michael Stonebraker", "Eugene Wong", NameCompat.UNRELATED),
            # A typo'd given name lands in the SIMILAR tier (0.80: no
            # attribute-wise merge, context can push it over).
            ("Micheal Stonebraker", "Michael Stonebraker", NameCompat.SIMILAR),
            # A surname within the 0.9 typo band still counts as
            # agreeing, so the pair is COMPATIBLE.
            ("Michael Stonebraker", "Michael Stonebarker", NameCompat.COMPATIBLE),
        ],
    )
    def test_pairs(self, left, right, expected):
        assert name_compatibility(left, right) is expected

    def test_symmetric(self):
        pairs = [
            ("Michael Stonebraker", "Stonebraker, M."),
            ("mike", "Michael Stonebraker"),
            ("Matt", "Michael Stonebraker"),
        ]
        for left, right in pairs:
            assert name_compatibility(left, right) is name_compatibility(right, left)

    def test_typo_mononyms_never_conflict(self):
        # 'debb' is likelier a typo of the nickname 'deb' than a person.
        assert name_compatibility("debb", "Deborah Bennett") is not NameCompat.CONFLICT
        assert name_compatibility("ddeb", "deb") is not NameCompat.CONFLICT

    def test_typo_surnames_never_conflict(self):
        assert (
            name_compatibility("Deborah Bnnett", "Deborah Bennet")
            is not NameCompat.CONFLICT
        )

    def test_near_names_stay_below_merge_threshold(self):
        # "Ramesh" and "Rajesh" are one edit apart — lexically
        # indistinguishable from a typo, so the pair classifies as
        # SIMILAR; what matters is that the score alone cannot merge.
        assert name_similarity("Krishnan, Ramesh", "Krishnan, Rajesh") < MERGE


class TestSimilarityCalibration:
    """The score tiers encode the paper's evidence policy."""

    def test_full_equal_is_decisive(self):
        assert name_similarity("Eugene Wong", "Eugene Wong") == 1.0
        assert name_similarity("Eugene Wong", "Wong, Eugene") == 1.0

    def test_full_compatible_merges_alone(self):
        assert name_similarity("Deb Bennett", "Deborah Bennett") >= MERGE

    def test_initial_match_needs_context(self):
        score = name_similarity("Epstein, R.S.", "Robert S. Epstein")
        assert T_RV <= score < MERGE

    def test_equal_abbreviated_merges(self):
        assert name_similarity("Wong, E.", "E. Wong") >= MERGE

    def test_mononyms_stay_below_trv(self):
        assert name_similarity("jianguo", "jianguo") < T_RV
        assert name_similarity("mike", "Stonebraker, M.") < T_RV
        assert name_similarity("amy", "Amy Clark") < T_RV

    def test_conflicts_score_zero(self):
        assert name_similarity("Michael Stonebraker", "Michael Carey") == 0.0
        assert name_similarity("Matt", "Michael Stonebraker") == 0.0

    @given(
        st.sampled_from(
            [
                "Michael Stonebraker",
                "Stonebraker, M.",
                "mike",
                "Eugene Wong",
                "Wong, E.",
                "Epstein, R.S.",
                "",
                "Deborah Bennett",
            ]
        ),
        st.sampled_from(
            [
                "Michael Stonebraker",
                "M. Stonebraker",
                "matt",
                "Eugene Wong",
                "deb",
                "Robert S. Epstein",
            ]
        ),
    )
    @settings(max_examples=48)
    def test_range_and_symmetry(self, left, right):
        score = name_similarity(left, right)
        assert 0.0 <= score <= 1.0
        assert score == pytest.approx(name_similarity(right, left))


# Counts the edit-distance kernel calls name_compatibility makes over
# every pair of a fixed sample of known given names. _givens_conflict
# stops at the first agreeing name form, so the count is only stable
# when the forms are visited in a fixed order.
_KERNEL_COUNT_SCRIPT = """
import itertools

import repro.similarity.strings as strings
from repro.similarity import clear_similarity_caches, name_compatibility
from repro.similarity.nicknames import KNOWN_GIVEN_NAMES

calls = 0
kernel = strings._osa_within


def counting(*args):
    global calls
    calls += 1
    return kernel(*args)


strings._osa_within = counting
clear_similarity_caches()
for left, right in itertools.combinations(sorted(KNOWN_GIVEN_NAMES)[::7], 2):
    name_compatibility(left + " smith", right + " smith")
print(calls)
"""


class TestHashSeedIndependence:
    def test_kernel_calls_do_not_depend_on_the_hash_seed(self):
        src = Path(repro.__file__).resolve().parent.parent
        counts = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
            completed = subprocess.run(
                [sys.executable, "-c", _KERNEL_COUNT_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            counts.add(int(completed.stdout))
        assert len(counts) == 1, counts
        assert counts.pop() > 0
