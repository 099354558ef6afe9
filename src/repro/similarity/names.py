"""Person-name parsing and comparison.

Person references in complex information spaces mention the same person
in wildly different formats: ``"Michael Stonebraker"``,
``"Stonebraker, M."``, ``"M. R. Stonebraker"``, or just ``"mike"``.
This module parses such mentions into a structured form and compares
two parsed names for *compatibility* (could they denote the same
person?) and graded similarity.

The compatibility levels feed two different parts of the engine:

* the similarity score of a candidate pair (real-valued evidence), and
* the paper's §5.3 constraint 2 ("same first name but completely
  different last name ... are distinct persons"), which needs an
  explicit *conflict* signal rather than just a low score.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

from .caches import PairMemo, register_cache
from .nicknames import KNOWN_GIVEN_NAMES, all_name_forms, share_canonical_given_name
from .strings import damerau_levenshtein_similarity_at_least
from .tokens import normalize

__all__ = [
    "ParsedName",
    "NameCompat",
    "parse_name",
    "name_compatibility",
    "parsed_name_compatibility",
    "name_similarity",
]

_SUFFIXES = frozenset({"jr", "sr", "ii", "iii", "iv", "phd", "md"})
_NAME_TOKEN_RE = re.compile(r"[a-z]+\.?|[a-z]\.")


class NameCompat(enum.Enum):
    """Qualitative relation between two person-name mentions."""

    EQUAL = "equal"  # same tokens after normalisation
    COMPATIBLE = "compatible"  # one could abbreviate / nickname the other
    SIMILAR = "similar"  # close by edit distance (typo range)
    CONFLICT = "conflict"  # same given name, clearly different surname
    # (or vice versa) - the §5.3 constraint-2 signal
    UNRELATED = "unrelated"  # nothing in common


@dataclass(frozen=True)
class ParsedName:
    """A person-name mention split into given / middle / surname parts.

    ``given`` and ``middle`` hold either full words ("michael") or bare
    initials ("m"). A part is the empty string when absent. ``raw``
    preserves the normalised mention for fallback string comparison.
    """

    given: str = ""
    middle: tuple[str, ...] = field(default_factory=tuple)
    surname: str = ""
    raw: str = ""

    @property
    def given_is_initial(self) -> bool:
        return len(self.given) == 1

    @property
    def is_single_token(self) -> bool:
        """True for mononym mentions such as ``"mike"``."""
        return bool(self.given) and not self.surname

    @property
    def is_full(self) -> bool:
        """True when both a spelled-out given name and a surname exist."""
        return bool(self.surname) and bool(self.given) and not self.given_is_initial


def _clean_tokens(text: str) -> list[str]:
    tokens = _NAME_TOKEN_RE.findall(normalize(text))
    cleaned = []
    for token in tokens:
        token = token.rstrip(".")
        if token and token not in _SUFFIXES:
            cleaned.append(token)
    return cleaned


def parse_name(mention: str) -> ParsedName:
    """Parse a person-name mention into a :class:`ParsedName`.

    Handles both natural order ("Michael R. Stonebraker") and
    bibliography order ("Stonebraker, Michael R."); in the comma form
    the head is always taken as the surname.

    >>> parse_name("Stonebraker, M.").surname
    'stonebraker'
    >>> parse_name("Stonebraker, M.").given
    'm'
    >>> parse_name("mike").is_single_token
    True
    """
    normalized = normalize(mention)
    if "," in normalized:
        head, _, tail = normalized.partition(",")
        surname_tokens = _clean_tokens(head)
        rest = _clean_tokens(tail)
        surname = " ".join(surname_tokens)
        given = rest[0] if rest else ""
        middle = tuple(rest[1:])
        return ParsedName(given=given, middle=middle, surname=surname, raw=normalized)
    tokens = _clean_tokens(normalized)
    if not tokens:
        return ParsedName(raw=normalized)
    if len(tokens) == 1:
        return ParsedName(given=tokens[0], raw=normalized)
    return ParsedName(
        given=tokens[0],
        middle=tuple(tokens[1:-1]),
        surname=tokens[-1],
        raw=normalized,
    )


def _given_names_agree(left: str, right: str) -> bool:
    """Compatible given names: equal, initial-match, or nickname pair."""
    if not left or not right:
        return True  # a missing part never disagrees
    if left == right:
        return True
    if len(left) == 1 or len(right) == 1:
        return left[0] == right[0]
    if share_canonical_given_name(left, right):
        return True
    # Prefix abbreviation without a period: "rob" ~ "robert".
    shorter, longer = sorted((left, right), key=len)
    return len(shorter) >= 3 and longer.startswith(shorter)


def _surnames_agree(left: str, right: str) -> bool:
    if not left or not right:
        return True
    if left == right:
        return True
    # Hyphenated / compound surnames: agreement on any component.
    left_parts = set(left.split())
    right_parts = set(right.split())
    if left_parts & right_parts:
        return True
    return damerau_levenshtein_similarity_at_least(left, right, 0.90) >= 0.90


def _surnames_conflict(left: str, right: str) -> bool:
    """Completely different last names in the §5.3 constraint-2 sense.

    Deliberately conservative: negative evidence is irreversible, so
    two surnames that could be typo variants of one name ("Bnnett" /
    "Bennet") must not conflict. The 0.60 bar keeps one-edit typos of a
    common original on the safe side.
    """
    if not left or not right:
        return False
    if _surnames_agree(left, right):
        return False
    return damerau_levenshtein_similarity_at_least(left, right, 0.60) < 0.60


def _givens_conflict(left: str, right: str) -> bool:
    """Completely different spelled-out first names.

    Compares every known form of each name (formal expansions plus
    their nicknames) so that a typo'd nickname ("debb") never conflicts
    with the formal name ("Deborah"), and a shared >= 3-letter prefix
    always exonerates.
    """
    if not left or not right:
        return False
    if len(left) == 1 or len(right) == 1:
        return left[0] != right[0]
    if _given_names_agree(left, right):
        return False
    pairs = [
        (form_l, form_r)
        for form_l in all_name_forms(left)
        for form_r in all_name_forms(right)
    ]
    # The prefix test is free; run the edit-distance kernel only when no
    # pair of forms shares a prefix.
    if any(form_l[:3] == form_r[:3] for form_l, form_r in pairs):
        return False
    return not any(
        damerau_levenshtein_similarity_at_least(form_l, form_r, 0.65) >= 0.65
        for form_l, form_r in pairs
    )


def name_compatibility(left: ParsedName | str, right: ParsedName | str) -> NameCompat:
    """Classify the relation between two name mentions.

    >>> name_compatibility("Michael Stonebraker", "Stonebraker, M.")
    <NameCompat.COMPATIBLE: 'compatible'>
    >>> name_compatibility("Michael Stonebraker", "Michael Carey")
    <NameCompat.CONFLICT: 'conflict'>
    """
    if isinstance(left, str):
        left = parse_name(left)
    if isinstance(right, str):
        right = parse_name(right)
    if not left.raw or not right.raw:
        return NameCompat.UNRELATED
    if left.raw == right.raw or (
        left.given == right.given
        and left.surname == right.surname
        and left.middle == right.middle
    ):
        return NameCompat.EQUAL

    givens_ok = _given_names_agree(left.given, right.given)
    surnames_ok = _surnames_agree(left.surname, right.surname)
    middles_ok = _middles_agree(left.middle, right.middle)

    if left.surname and right.surname:
        if surnames_ok and givens_ok and middles_ok:
            return NameCompat.COMPATIBLE
        # Constraint-2 signals require one side to agree and the other
        # to be *completely* different.
        given_conflict = _givens_conflict(left.given, right.given)
        surname_conflict = _surnames_conflict(left.surname, right.surname)
        if surnames_ok and given_conflict:
            return NameCompat.CONFLICT
        if givens_ok and not left.given_is_initial and not right.given_is_initial:
            if surname_conflict:
                return NameCompat.CONFLICT
        # SIMILAR covers typo variants only: one part must agree while
        # the other stays in typo range. A raw-string blend like
        # "Krishnan, Ramesh" vs "Krishnan, Rajesh" (two real people)
        # must NOT qualify even though most characters coincide.
        if surnames_ok and damerau_levenshtein_similarity_at_least(
            left.given, right.given, 0.80
        ) >= 0.80:
            return NameCompat.SIMILAR
        if givens_ok and damerau_levenshtein_similarity_at_least(
            left.surname, right.surname, 0.80
        ) >= 0.80:
            return NameCompat.SIMILAR
        return NameCompat.UNRELATED

    # At least one mononym: compatible if it matches the other's given
    # name (nicknames included) or surname.
    mono, other = (left, right) if left.is_single_token else (right, left)
    if not mono.is_single_token:
        # Both lack surnames: compare givens directly.
        if _given_names_agree(left.given, right.given):
            return NameCompat.COMPATIBLE
        if damerau_levenshtein_similarity_at_least(left.given, right.given, 0.80) >= 0.80:
            return NameCompat.SIMILAR
        return NameCompat.UNRELATED
    if _given_names_agree(mono.given, other.given):
        return NameCompat.COMPATIBLE
    if other.surname and _surnames_agree(mono.given, other.surname):
        return NameCompat.COMPATIBLE
    if damerau_levenshtein_similarity_at_least(mono.raw, other.raw, 0.80) >= 0.80:
        return NameCompat.SIMILAR
    # A spelled-out mononym that matches neither the given name (after
    # nickname expansion) nor the surname of a *full* name is positive
    # evidence of a different person: this is what keeps ("Matt",
    # "stonebraker@csail...") away from "Michael Stonebraker" (§3.4).
    # The mononym must be a *known* name token — an out-of-vocabulary
    # string ("debb", "ddeb") is more likely a typo'd nickname than a
    # different person, and negative evidence is irreversible. Bare
    # mononym pairs never conflict at all.
    if (
        other.surname
        and len(mono.given) >= 3
        and len(other.given) >= 3
        and mono.given in KNOWN_GIVEN_NAMES
        and _givens_conflict(mono.given, other.given)
    ):
        return NameCompat.CONFLICT
    return NameCompat.UNRELATED


#: :func:`name_compatibility` of two parsed names, memoised: the one
#: cache :func:`name_similarity` (the name channel's scoring) and the
#: PIM constraint-2 check share.
parsed_name_compatibility = register_cache(PairMemo(name_compatibility, maxsize=65536))


def _middles_agree(left: tuple[str, ...], right: tuple[str, ...]) -> bool:
    if not left or not right:
        return True
    for left_part, right_part in zip(left, right):
        if not _given_names_agree(left_part, right_part):
            return False
    return True


def name_similarity(left: ParsedName | str, right: ParsedName | str) -> float:
    """Graded similarity of two person-name mentions in [0, 1].

    Compatibility dominates raw string distance: "Stonebraker, M." and
    "Michael Stonebraker" score high despite few shared characters,
    while "Michael Stonebraker" and "Michael Carey" score low despite
    a shared token.
    """
    if isinstance(left, str):
        left = parse_name(left)
    if isinstance(right, str):
        right = parse_name(right)
    compat = parsed_name_compatibility(left, right)
    if compat is NameCompat.CONFLICT or compat is NameCompat.UNRELATED:
        return 0.0
    # Any pair missing a surname on either side is capped below
    # t_rv = 0.7: a bare "jianguo" (even twice, even in typo range)
    # must not open the door to boolean boosts — mononyms collide
    # across people far too easily. Such pairs reconcile only through
    # cross-attribute corroboration.
    if not (left.surname and right.surname):
        if compat is NameCompat.EQUAL:
            return 0.68
        if compat is NameCompat.SIMILAR:
            return 0.65
        # COMPATIBLE mononym evidence.
        if left.is_single_token and right.is_single_token:
            return 0.60
        return 0.65
    if compat is NameCompat.EQUAL:
        # Equality of full names is decisive. Equality of abbreviated
        # mentions ("L. Zhou" twice) still merges — citation corpora
        # repeat initials verbatim — but scores lower, acknowledging
        # that initials collide ("Lin Zhou" / "Ling Zhou").
        if left.is_full and right.is_full:
            return 1.0
        return 0.88
    if compat is NameCompat.SIMILAR:
        return 0.80
    # COMPATIBLE with surnames on both sides: a full/full match
    # ("Deb Bennett" ~ "Deborah Bennett") is near-decisive; an
    # initial-based match ("Epstein, R.S." ~ "Robert S. Epstein") is
    # deliberately held below the 0.85 merge threshold but above
    # t_rv = 0.7 — one shared article (β = 0.1) or two common contacts
    # (2γ) reconcile it, one common contact alone does not, because
    # initials collide too easily within a research circle.
    if left.is_full and right.is_full:
        return 0.95
    return 0.75

