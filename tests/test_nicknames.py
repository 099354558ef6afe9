"""Tests for the nickname knowledge base."""

from repro.similarity.nicknames import (
    KNOWN_GIVEN_NAMES,
    NICKNAMES,
    all_name_forms,
    canonical_given_names,
    share_canonical_given_name,
)


class TestCanonical:
    def test_nickname_maps_to_formal(self):
        assert "michael" in canonical_given_names("mike")
        assert "deborah" in canonical_given_names("deb")

    def test_formal_maps_to_itself(self):
        assert canonical_given_names("michael") == {"michael"}

    def test_nickname_keeps_itself(self):
        assert "mike" in canonical_given_names("mike")


class TestSharing:
    def test_share(self):
        assert share_canonical_given_name("Mike", "Michael")
        assert share_canonical_given_name("kathy", "katherine")
        assert share_canonical_given_name("bill", "william")

    def test_no_share(self):
        assert not share_canonical_given_name("mike", "matt")
        assert not share_canonical_given_name("deborah", "dorothy")

    def test_two_nicknames_of_one_formal(self):
        assert share_canonical_given_name("bill", "will")


class TestAllForms:
    def test_round_trip(self):
        forms = all_name_forms("deborah")
        assert "deb" in forms and "debbie" in forms

    def test_from_nickname(self):
        forms = all_name_forms("deb")
        assert "deborah" in forms

    def test_known_names_cover_table(self):
        for nickname, formals in NICKNAMES.items():
            assert nickname in KNOWN_GIVEN_NAMES
            for formal in formals:
                assert formal in KNOWN_GIVEN_NAMES


def _old_forms(name: str) -> tuple[str, ...]:
    """The per-call closure the import-time tables replaced."""
    formal_to_nicknames: dict[str, set[str]] = {}
    for nickname, formals in NICKNAMES.items():
        for formal in formals:
            formal_to_nicknames.setdefault(formal, set()).add(nickname)
    name = name.lower()
    forms = {name} | NICKNAMES.get(name, frozenset())
    for formal in list(forms):
        forms |= formal_to_nicknames.get(formal, set())
    return tuple(sorted(forms))


def _old_canonical(name: str) -> frozenset[str]:
    name = name.lower()
    return NICKNAMES.get(name, frozenset()) | {name}


def _every_name() -> list[str]:
    names = set(NICKNAMES) | {f for formals in NICKNAMES.values() for f in formals}
    names |= {name.upper() for name in names} | {name.title() for name in names}
    names |= {"", "x", "Wei", "priya", "ZHANG", "o'brien", "jean-luc"}
    return sorted(names)


class TestTablesMatchTheClosure:
    def test_all_name_forms(self):
        for name in _every_name():
            assert all_name_forms(name) == _old_forms(name), name

    def test_canonical_given_names(self):
        for name in _every_name():
            canonical = canonical_given_names(name)
            assert canonical == _old_canonical(name), name
            assert isinstance(canonical, frozenset)

    def test_share_canonical_given_name(self):
        names = _every_name()
        for left in names:
            for right in names[::5]:
                expected = bool(_old_canonical(left) & _old_canonical(right))
                assert share_canonical_given_name(left, right) == expected, (left, right)
