"""Nickname knowledge base for person-name matching.

The paper's running example reconciles "mike" with "Michael
Stonebraker"; resolving such hypocorisms requires a (small, curated)
nickname table. The table below covers the common English given names
plus the transliteration habits the PIM generator uses for Chinese and
Indian names.
"""

from __future__ import annotations

import functools

from .caches import register_cache

__all__ = [
    "canonical_given_names",
    "share_canonical_given_name",
    "all_name_forms",
    "KNOWN_GIVEN_NAMES",
    "NICKNAMES",
]

# nickname -> set of formal given names it may stand for.
NICKNAMES: dict[str, frozenset[str]] = {
    nickname: frozenset(formals)
    for nickname, formals in {
        "abby": ("abigail",),
        "al": ("albert", "alfred", "alan", "alvin"),
        "alex": ("alexander", "alexandra", "alexis"),
        "andy": ("andrew", "anderson"),
        "angie": ("angela",),
        "art": ("arthur",),
        "becky": ("rebecca",),
        "ben": ("benjamin", "bennett"),
        "bert": ("albert", "robert", "herbert"),
        "beth": ("elizabeth", "bethany"),
        "betty": ("elizabeth",),
        "bill": ("william",),
        "billy": ("william",),
        "bob": ("robert",),
        "bobby": ("robert",),
        "brad": ("bradley", "bradford"),
        "cathy": ("catherine", "kathryn"),
        "charlie": ("charles", "charlotte"),
        "chris": ("christopher", "christine", "christian", "christina"),
        "chuck": ("charles",),
        "cindy": ("cynthia",),
        "dan": ("daniel",),
        "danny": ("daniel",),
        "dave": ("david",),
        "davey": ("david",),
        "deb": ("deborah", "debra"),
        "debbie": ("deborah", "debra"),
        "dick": ("richard",),
        "don": ("donald",),
        "donny": ("donald",),
        "doug": ("douglas",),
        "ed": ("edward", "edwin", "edmund"),
        "eddie": ("edward", "edwin"),
        "fred": ("frederick", "alfred"),
        "gabe": ("gabriel",),
        "gene": ("eugene",),
        "greg": ("gregory",),
        "hank": ("henry",),
        "harry": ("harold", "henry", "harrison"),
        "jack": ("john", "jackson"),
        "jake": ("jacob",),
        "jeff": ("jeffrey", "jefferson"),
        "jen": ("jennifer",),
        "jenny": ("jennifer",),
        "jerry": ("gerald", "jerome"),
        "jim": ("james",),
        "jimmy": ("james",),
        "joe": ("joseph",),
        "joey": ("joseph",),
        "john": ("jonathan",),
        "jon": ("jonathan", "john"),
        "josh": ("joshua",),
        "judy": ("judith",),
        "kate": ("katherine", "kathryn", "catherine"),
        "kathy": ("katherine", "kathryn", "catherine"),
        "katie": ("katherine", "kathryn"),
        "ken": ("kenneth",),
        "kenny": ("kenneth",),
        "kim": ("kimberly",),
        "larry": ("lawrence", "laurence"),
        "len": ("leonard",),
        "leo": ("leonard", "leopold"),
        "liz": ("elizabeth",),
        "lou": ("louis", "louise"),
        "maggie": ("margaret",),
        "mandy": ("amanda",),
        "matt": ("matthew",),
        "meg": ("margaret", "megan"),
        "mike": ("michael",),
        "mikey": ("michael",),
        "nate": ("nathan", "nathaniel"),
        "ned": ("edward", "edmund"),
        "nick": ("nicholas",),
        "pam": ("pamela",),
        "pat": ("patrick", "patricia"),
        "patty": ("patricia",),
        "peg": ("margaret",),
        "peggy": ("margaret",),
        "pete": ("peter",),
        "phil": ("philip", "phillip"),
        "rafa": ("rafael",),
        "ray": ("raymond",),
        "rich": ("richard",),
        "rick": ("richard", "frederick"),
        "ricky": ("richard",),
        "rob": ("robert",),
        "robbie": ("robert",),
        "ron": ("ronald",),
        "ronnie": ("ronald", "veronica"),
        "rosie": ("rosemary", "rose", "rosalind"),
        "russ": ("russell",),
        "sam": ("samuel", "samantha"),
        "sammy": ("samuel",),
        "sandy": ("sandra", "alexander"),
        "steve": ("steven", "stephen"),
        "stevie": ("steven", "stephen"),
        "stu": ("stuart",),
        "sue": ("susan", "suzanne"),
        "susie": ("susan", "suzanne"),
        "ted": ("theodore", "edward"),
        "teddy": ("theodore", "edward"),
        "terry": ("terence", "theresa"),
        "tim": ("timothy",),
        "timmy": ("timothy",),
        "toby": ("tobias",),
        "tom": ("thomas",),
        "tommy": ("thomas",),
        "tony": ("anthony", "antonio"),
        "trish": ("patricia",),
        "vicky": ("victoria",),
        "vince": ("vincent",),
        "walt": ("walter",),
        "wendy": ("gwendolyn",),
        "will": ("william",),
        "willy": ("william",),
        "zach": ("zachary",),
        # Transliteration-style short forms used by the synthetic
        # generator for Chinese and Indian given names.
        "xiao": ("xiaoming", "xiaohui", "xiaowei", "xiaoyan"),
        "raj": ("rajesh", "rajiv", "rajan", "rajendra"),
        "venkat": ("venkatesh", "venkataraman"),
        "subra": ("subramanian",),
        "krish": ("krishna", "krishnan"),
    }.items()
}


_FORMAL_TO_NICKNAMES: dict[str, set[str]] = {}
for _nickname, _formals in NICKNAMES.items():
    for _formal in _formals:
        _FORMAL_TO_NICKNAMES.setdefault(_formal, set()).add(_nickname)


@register_cache
@functools.lru_cache(maxsize=8192)
def all_name_forms(name: str) -> tuple[str, ...]:
    """Every form *name* is known under: itself, its formal expansions,
    and the nicknames of those formals, in sorted order.

    Sorted rather than a set so callers that stop at the first agreeing
    form do the same work under every string-hash seed.

    >>> "debbie" in all_name_forms("deborah")
    True
    >>> "deborah" in all_name_forms("deb")
    True
    """
    name = name.lower()
    forms = {name} | NICKNAMES.get(name, frozenset())
    for formal in list(forms):
        forms |= _FORMAL_TO_NICKNAMES.get(formal, set())
    return tuple(sorted(forms))


#: All name tokens the table knows (nicknames and formal names alike).
KNOWN_GIVEN_NAMES: frozenset[str] = frozenset(NICKNAMES) | frozenset(
    formal for formals in NICKNAMES.values() for formal in formals
)


@register_cache
@functools.lru_cache(maxsize=8192)
def canonical_given_names(name: str) -> frozenset[str]:
    """Return the set of formal given names *name* may stand for.

    A formal name canonicalises to itself; a known nickname
    canonicalises to its formal expansions *and* itself (because some
    people use the short form as their legal name).
    """
    name = name.lower()
    formals = NICKNAMES.get(name, frozenset())
    return formals | {name}


@register_cache
@functools.lru_cache(maxsize=8192)
def share_canonical_given_name(left: str, right: str) -> bool:
    """True when the two given names may denote the same formal name.

    >>> share_canonical_given_name("Mike", "Michael")
    True
    >>> share_canonical_given_name("Mike", "Matt")
    False
    """
    return bool(canonical_given_names(left) & canonical_given_names(right))
