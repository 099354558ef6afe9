"""Tests for the PIM and Cora domain models."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.similarity.emails as emails_module
import repro.similarity.name_email as name_email_module
import repro.similarity.names as names_module
from repro.domains import CoraDomainModel, PimDomainModel
from repro.domains.base import max_of_profiles
from repro.domains.pim import _PUBLIC_MAIL_HOSTS, _person_conflict
from repro.similarity import (
    NameCompat,
    clear_similarity_caches,
    email_similarity,
    name_compatibility,
    name_email_similarity,
    parse_email,
    parse_name,
)


@pytest.fixture(scope="module")
def pim():
    return PimDomainModel()


@pytest.fixture(scope="module")
def cora():
    return CoraDomainModel()


class TestWiring:
    def test_pim_channels(self, pim):
        names = {c.name for c in pim.atomic_channels("Person")}
        assert names == {"name", "email", "name_email"}
        cross = next(c for c in pim.atomic_channels("Person") if c.name == "name_email")
        assert cross.is_cross
        key = next(c for c in pim.atomic_channels("Person") if c.name == "email")
        assert key.is_key

    def test_cora_person_has_name_only(self, cora):
        assert {c.name for c in cora.atomic_channels("Person")} == {"name"}

    # The parameter, dependency and order tests check both domains: the
    # paper runs one configuration on all datasets (§5.2).
    def test_strong_dependencies(self, pim, cora):
        for domain in (pim, cora):
            deps = {
                (d.source_class, d.target_class) for d in domain.strong_dependencies()
            }
            assert deps == {("Article", "Person"), ("Article", "Venue")}
            venue_dep = next(
                d for d in domain.strong_dependencies() if d.target_class == "Venue"
            )
            assert venue_dep.ensure_target_nodes

    def test_weak_dependencies(self, pim, cora):
        (pim_weak,) = pim.weak_dependencies()
        assert set(pim_weak.attrs) == {"coAuthor", "emailContact"}
        (cora_weak,) = cora.weak_dependencies()
        assert set(cora_weak.attrs) == {"coAuthor"}

    def test_paper_parameters(self, pim, cora):
        for domain in (pim, cora):
            for class_name in ("Person", "Article", "Venue"):
                assert domain.merge_threshold(class_name) == 0.85
                assert domain.gamma(class_name) == 0.05
            assert domain.beta("Venue") == 0.2
            assert domain.beta("Person") == 0.1
            assert domain.t_rv("Venue") == 0.1
            assert domain.t_rv("Person") == 0.7

    def test_class_order_values_before_dependents(self, pim, cora):
        for domain in (pim, cora):
            order = domain.class_order()
            assert order.index("Venue") < order.index("Article")
            assert order.index("Person") < order.index("Article")


def _channel_view(channel):
    """An atomic channel minus its per-instance feature extractors."""
    return (
        channel.name,
        channel.class_name,
        channel.left_attr,
        channel.right_attr,
        channel.liberal_threshold,
        channel.is_key,
        channel.comparator,
        channel.fast_comparator,
    )


class TestSharedConfiguration:
    def test_only_email_tells_the_domains_apart(self, pim, cora, tiny_pim_a, tiny_cora):
        """Article and Venue are wired, scored, blocked and keyed alike in
        both domains; Person differs only by the email channels."""
        rng = random.Random(7)
        for class_name in ("Article", "Venue"):
            assert pim.schema.cls(class_name) == cora.schema.cls(class_name)
            assert [_channel_view(c) for c in pim.atomic_channels(class_name)] == [
                _channel_view(c) for c in cora.atomic_channels(class_name)
            ]
            assert pim.association_channels(class_name) == cora.association_channels(
                class_name
            )
            channels = [c.name for c in pim.atomic_channels(class_name)] + [
                c.name for c in pim.association_channels(class_name)
            ]
            for _ in range(200):
                evidence = {
                    name: rng.random() for name in channels if rng.random() < 0.6
                }
                assert pim.rv_score(class_name, evidence) == cora.rv_score(
                    class_name, evidence
                )
        for store in (tiny_pim_a.store, tiny_cora.store):
            for class_name in ("Article", "Venue"):
                for reference in store.of_class(class_name):
                    assert list(pim.blocking_keys(reference)) == list(
                        cora.blocking_keys(reference)
                    )
                    assert list(pim.key_values(reference)) == list(
                        cora.key_values(reference)
                    )
        # Without an email, a person blocks and keys the same way too.
        for reference in tiny_cora.store.of_class("Person"):
            assert list(pim.blocking_keys(reference)) == list(
                cora.blocking_keys(reference)
            )
            assert list(pim.key_values(reference)) == list(cora.key_values(reference))
        pim_person = [_channel_view(c) for c in pim.atomic_channels("Person")]
        cora_person = [_channel_view(c) for c in cora.atomic_channels("Person")]
        assert pim_person[: len(cora_person)] == cora_person
        assert [view[0] for view in pim_person[len(cora_person) :]] == [
            "email",
            "name_email",
        ]
        assert pim.association_channels("Person") == cora.association_channels("Person")


class TestRvScores:
    def test_missing_channels_skip_profiles(self, pim):
        assert pim.rv_score("Person", {}) == 0.0
        assert pim.rv_score("Person", {"name": 0.9}) == pytest.approx(0.9)

    def test_cross_profile(self, pim):
        score = pim.rv_score("Person", {"name": 0.72, "name_email": 0.9})
        assert score == pytest.approx(0.4 * 0.72 + 0.6 * 0.9)

    def test_article_needs_title(self, pim):
        assert pim.rv_score("Article", {"pages": 1.0, "authors": 1.0}) == 0.0
        assert pim.rv_score("Article", {"title": 1.0, "pages": 1.0}) == 1.0

    @given(
        st.dictionaries(
            st.sampled_from(["name", "email", "name_email"]),
            st.floats(0, 1),
            max_size=3,
        ),
        st.sampled_from(["name", "email", "name_email"]),
        st.floats(0, 0.3),
    )
    @settings(max_examples=60)
    def test_monotone_in_every_channel(self, pim, evidence, channel, bump):
        """§3.2's termination requirement: raising any input never
        lowers S_rv."""
        before = pim.rv_score("Person", evidence)
        raised = dict(evidence)
        raised[channel] = min(1.0, raised.get(channel, 0.0) + bump)
        after = pim.rv_score("Person", raised)
        assert after >= before - 1e-12

    def test_max_of_profiles_bounds(self):
        profiles = ((("a", 0.7), ("b", 0.5)),)
        assert max_of_profiles({"a": 1.0, "b": 1.0}, profiles) == 1.0  # clipped


class TestConflicts:
    def test_constraint2_name_conflict(self, pim):
        left = {"name": ("Michael Stonebraker",)}
        right = {"name": ("Michael Carey",)}
        assert pim.conflict("Person", left, right)

    def test_constraint2_shared_email_escape(self, pim):
        left = {"name": ("Michael Stonebraker",), "email": ("m@x.edu",)}
        right = {"name": ("Michael Carey",), "email": ("m@x.edu",)}
        assert not pim.conflict("Person", left, right)

    def test_constraint3_same_server_different_accounts(self, pim):
        left = {"email": ("jsmith@cs.washington.edu",)}
        right = {"email": ("john.smith27@cs.washington.edu",)}
        assert pim.conflict("Person", left, right)

    def test_constraint3_webmail_exempt(self, pim):
        left = {"email": ("jsmith@gmail.com",)}
        right = {"email": ("john.smith@gmail.com",)}
        assert not pim.conflict("Person", left, right)

    def test_constraint3_typo_tolerated(self, pim):
        left = {"email": ("stonebraker@mit.edu",)}
        right = {"email": ("stonebroker@mit.edu",)}
        assert not pim.conflict("Person", left, right)

    def test_non_person_never_conflicts(self, pim):
        assert not pim.conflict("Venue", {"name": ("A",)}, {"name": ("B",)})

    def test_person_conflict_helper_symmetric(self):
        left = {"name": ("Michael Stonebraker",)}
        right = {"name": ("Michael Carey",)}
        assert _person_conflict(left, right) == _person_conflict(right, left)


class TestDistinctPairs:
    def test_coauthors_of_one_article(self, pim, example1_store):
        pairs = set(pim.distinct_pairs(example1_store))
        assert ("p1", "p2") in pairs
        assert ("p4", "p6") in pairs
        assert all(left != right for left, right in pairs)
        # 2 articles x C(3,2) author pairs.
        assert len(pairs) == 6

    def test_cora_distinct_pairs(self, cora):
        from repro.core import Reference

        refs = [
            Reference("p1", "Person", {"name": ("A. B.",)}),
            Reference("p2", "Person", {"name": ("C. D.",)}),
            Reference(
                "a1", "Article", {"title": ("T",), "authoredBy": ("p1", "p2")}
            ),
        ]
        assert list(cora.distinct_pairs(refs)) == [("p1", "p2")]


class TestKeysAndGates:
    def test_person_key_values(self, pim):
        from repro.core import Reference

        ref = Reference("r", "Person", {"email": ("A@B.edu", "not an email")})
        assert list(pim.key_values(ref)) == ["em:a@b.edu"]

    def test_venue_key_values(self, pim):
        from repro.core import Reference

        ref = Reference("v", "Venue", {"name": ("ACM  SIGMOD!",)})
        assert list(pim.key_values(ref)) == ["vn:acm sigmod"]

    def test_boolean_gate_requires_structure_or_cross(self, pim):
        bare = {"name": ("ping",)}
        structured = {"name": ("Ping Luo",)}
        assert pim.boolean_evidence_allowed("Person", structured, structured)
        assert not pim.boolean_evidence_allowed("Person", bare, structured)
        # A surname-encoding account opens the gate.
        with_email = {"name": ("mike",), "email": ("stonebraker@csail.mit.edu",)}
        other = {"name": ("Stonebraker, M.",)}
        assert pim.boolean_evidence_allowed("Person", with_email, other)


# Independent reference for the two Person checks, written over the
# plain string functions: it parses every value it touches.
def _reference_conflict(left, right) -> bool:
    left_emails = [v for v in left.get("email", ()) if parse_email(v) is not None]
    right_emails = [v for v in right.get("email", ()) if parse_email(v) is not None]
    if {parse_email(v).raw for v in left_emails} & {
        parse_email(v).raw for v in right_emails
    }:
        return False
    for value_l in left_emails:
        for value_r in right_emails:
            parsed_l, parsed_r = parse_email(value_l), parse_email(value_r)
            if (
                parsed_l.domain_core == parsed_r.domain_core
                and parsed_l.domain_core not in _PUBLIC_MAIL_HOSTS
                and parsed_l.account != parsed_r.account
                and email_similarity(value_l, value_r) < 0.85
            ):
                return True
    return any(
        name_compatibility(name_l, name_r) is NameCompat.CONFLICT
        for name_l in left.get("name", ())
        for name_r in right.get("name", ())
    )


def _reference_boolean_allowed(left, right) -> bool:
    def structured(values):
        return any(parse_name(name).surname for name in values.get("name", ()))

    if structured(left) and structured(right):
        return True
    scores = [
        name_email_similarity(name, email)
        for names, emails in ((left, right), (right, left))
        for name in names.get("name", ())
        for email in emails.get("email", ())
    ]
    return max(scores, default=0.0) >= 0.9


_CHECK_NAMES = (
    "ping", "Ping Wang", "Wang, P.", "mike", "Michael Stonebraker",
    "Stonebraker, M.", "Michael Carey", "deb", "Deborah Smith", "",
)
_CHECK_EMAILS = (
    "ping.wang@cs.stanford.edu", "pwang@stanford.edu", "wangp@stanford.edu",
    "stonebraker@csail.mit.edu", "mike@mit.edu", "stonebroker@mit.edu",
    "mcarey@mit.edu", "deb.smith@gmail.com", "dsmith@gmail.com", "not an email",
)


class TestPersonChecksReadCachedFeatures:
    def _value_sets(self):
        rng = random.Random(11)
        sets = [
            # Constraint 3 fires: same institution, different accounts.
            (
                {"name": ("ping",), "email": ("ping.wang@cs.stanford.edu",)},
                {"name": ("Ping Wang",), "email": ("pwang@stanford.edu",)},
            ),
        ]
        for _ in range(300):
            sets.append(
                tuple(
                    {
                        "name": tuple(rng.sample(_CHECK_NAMES, rng.randint(0, 2))),
                        "email": tuple(rng.sample(_CHECK_EMAILS, rng.randint(0, 2))),
                    }
                    for _ in range(2)
                )
            )
        return sets

    def test_checks_match_reference_and_reparse_nothing(self, monkeypatch):
        domain = PimDomainModel()
        value_sets = self._value_sets()
        for left, right in value_sets:
            for values in (left, right):
                for name in values["name"]:
                    domain._name_features(name)
                for email in values["email"]:
                    domain._email_features(email)
        clear_similarity_caches()
        misses = domain.feature_cache.misses

        parses = []
        for module, name in (
            (emails_module, "parse_email"),
            (name_email_module, "parse_email"),
            (name_email_module, "parse_name"),
            (names_module, "parse_name"),
        ):
            original = getattr(module, name)
            monkeypatch.setattr(
                module,
                name,
                lambda value, original=original: parses.append(value) or original(value),
            )
        verdicts = [
            (
                domain.conflict("Person", left, right),
                domain.boolean_evidence_allowed("Person", left, right),
            )
            for left, right in value_sets
        ]
        assert parses == []
        assert domain.feature_cache.misses == misses
        monkeypatch.undo()

        assert verdicts == [
            (_reference_conflict(left, right), _reference_boolean_allowed(left, right))
            for left, right in value_sets
        ]
        assert verdicts[0][0]  # constraint 3 was reached and fired
        assert {conflict for conflict, _ in verdicts} == {True, False}
        assert {allowed for _, allowed in verdicts} == {True, False}
