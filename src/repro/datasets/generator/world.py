"""Ground-truth entity worlds for the synthetic PIM datasets.

A :class:`World` is what actually exists: persons (with all their email
accounts and name history), venues, papers, and the social structure
(research circles) that the email and bibliography corpora are sampled
from. References never see the world directly — an extractor produces
them from the corpora — but the world provides the gold standard.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .names import NamePool, PersonName

__all__ = [
    "PersonEntity",
    "VenueEntity",
    "PaperEntity",
    "World",
    "WorldConfig",
    "build_world",
]


@dataclass
class PersonEntity:
    """A real person (or mailing list) in the ground truth."""

    entity_id: str
    name: PersonName
    emails: list[str]  # all accounts ever owned, oldest first
    former_name: PersonName | None = None  # pre-marriage name, if changed
    is_mailing_list: bool = False


@dataclass(frozen=True)
class VenueEntity:
    """A publication venue (series identity: SIGMOD-1978 == SIGMOD-1979)."""

    entity_id: str
    acronym: str  # "" when the venue has no acronym
    full_name: str
    kind: str  # "conference" | "journal" | "workshop"
    #: True when the acronym cannot be derived from the full name and is
    #: not in the curated expansion table — the hard case for
    #: attribute-wise venue matching.
    obscure: bool = False


@dataclass(frozen=True)
class PaperEntity:
    entity_id: str
    title: str
    author_ids: tuple[str, ...]
    venue_id: str
    year: int
    pages: str


@dataclass
class World:
    persons: dict[str, PersonEntity] = field(default_factory=dict)
    venues: dict[str, VenueEntity] = field(default_factory=dict)
    papers: dict[str, PaperEntity] = field(default_factory=dict)
    owner_id: str = ""
    #: research circles: groups of person ids that co-author and email.
    circles: list[list[str]] = field(default_factory=list)

    @property
    def owner(self) -> PersonEntity:
        return self.persons[self.owner_id]


@dataclass(frozen=True)
class WorldConfig:
    """Knobs for one ground-truth world.

    ``same_server_second_account`` gives some persons a second account
    on the *same* mail server — the situation §5.3's constraint 3
    misjudges (dataset D's owner).
    """

    n_persons: int = 150
    n_mailing_lists: int = 4
    n_venues: int = 18
    n_papers: int = 60
    circle_size: tuple[int, int] = (3, 7)
    culture_mix: dict[str, float] | None = None
    homonym_rate: float = 0.0
    extra_email_rate: float = 0.35  # chance of a 2nd (3rd...) account
    same_server_second_account: float = 0.0
    #: probability that a homonym (deliberate name collision) works at
    #: the same institution as the person it collides with — their
    #: accounts then live on one server and §5.3's constraint 3 can
    #: tell them apart even though their names agree.
    homonym_same_server: float = 0.6
    owner_changes_name: bool = False
    owner_changes_account_same_server: bool = False
    year_range: tuple[int, int] = (1994, 2004)
    #: bias venue selection towards obscure (hard-to-match) venues —
    #: citation corpora like Cora are full of workshops whose acronyms
    #: nothing can derive.
    prefer_obscure_venues: bool = False


_DOMAINS = [
    "cs.washington.edu",
    "csail.mit.edu",
    "cs.berkeley.edu",
    "cs.stanford.edu",
    "cs.wisc.edu",
    "cs.umass.edu",
    "research.microsoft.com",
    "almaden.ibm.com",
    "bell-labs.com",
    "hp.com",
    "gmail.com",
    "yahoo.com",
    "hotmail.com",
    "acm.org",
    "cs.cornell.edu",
    "cs.cmu.edu",
]

_ACCOUNT_PATTERNS = (
    "surname",  # stonebraker@
    "first.surname",  # michael.stonebraker@
    "initial+surname",  # mstonebraker@
    "first",  # michael@
    "nickname",  # mike@
    "surname+digit",  # stonebraker7@
    "first_surname",  # michael_stonebraker@
)

# (acronym, full name, kind, obscure). Obscure venues have acronyms that
# neither the similarity layer's table nor initial-matching can bridge.
_VENUE_POOL: tuple[tuple[str, str, str, bool], ...] = (
    ("SIGMOD", "ACM Conference on Management of Data", "conference", False),
    ("VLDB", "International Conference on Very Large Data Bases", "conference", False),
    ("ICDE", "IEEE International Conference on Data Engineering", "conference", False),
    ("PODS", "Symposium on Principles of Database Systems", "conference", False),
    ("CIDR", "Conference on Innovative Data Systems Research", "conference", False),
    ("EDBT", "International Conference on Extending Database Technology", "conference", False),
    ("CIKM", "Conference on Information and Knowledge Management", "conference", False),
    ("KDD", "International Conference on Knowledge Discovery and Data Mining", "conference", False),
    ("SIGIR", "Conference on Research and Development in Information Retrieval", "conference", False),
    ("ICML", "International Conference on Machine Learning", "conference", False),
    ("AAAI", "National Conference on Artificial Intelligence", "conference", False),
    ("IJCAI", "International Joint Conference on Artificial Intelligence", "conference", False),
    ("NIPS", "Advances in Neural Information Processing Systems", "conference", False),
    ("UAI", "Conference on Uncertainty in Artificial Intelligence", "conference", False),
    ("STOC", "ACM Symposium on Theory of Computing", "conference", False),
    ("FOCS", "IEEE Symposium on Foundations of Computer Science", "conference", False),
    ("SODA", "ACM-SIAM Symposium on Discrete Algorithms", "conference", False),
    ("WWW", "International World Wide Web Conference", "conference", False),
    ("TODS", "ACM Transactions on Database Systems", "journal", False),
    ("TKDE", "IEEE Transactions on Knowledge and Data Engineering", "journal", False),
    ("CACM", "Communications of the ACM", "journal", False),
    ("JACM", "Journal of the ACM", "journal", False),
    ("SOSP", "ACM Symposium on Operating Systems Principles", "conference", False),
    ("OSDI", "Symposium on Operating Systems Design and Implementation", "conference", False),
    # Obscure venues: acronym unrelated to the (short) full name.
    ("WebDB", "International Workshop on the Web and Databases", "workshop", True),
    ("DMKD", "Workshop on Research Issues in Data Mining and Knowledge Discovery", "workshop", True),
    ("IIWeb", "Workshop on Information Integration on the Web", "workshop", True),
    ("QDB", "Workshop on Quality in Databases", "workshop", True),
    ("MRDM", "Workshop on Multi-Relational Data Mining", "workshop", True),
    ("PersDB", "Workshop on Personalized Access to Web Information", "workshop", True),
    ("Snowbird", "Learning Workshop", "workshop", True),
    ("AIStats", "Workshop on Artificial Intelligence and Statistics", "workshop", True),
    ("CoNLL", "Conference on Computational Natural Language Learning", "workshop", True),
    ("MLJ", "Machine Learning", "journal", True),
    ("AIJ", "Artificial Intelligence", "journal", True),
    ("JAIR", "Journal of Artificial Intelligence Research", "journal", True),
    ("PAMI", "IEEE Transactions on Pattern Analysis and Machine Intelligence", "journal", True),
    ("IJCV", "International Journal of Computer Vision", "journal", True),
    ("NN", "Neural Networks", "journal", True),
    ("NC", "Neural Computation", "journal", True),
)

_TITLE_HEADS = [
    "Efficient", "Scalable", "Adaptive", "Incremental", "Distributed",
    "Approximate", "Robust", "Optimal", "Parallel", "Declarative",
    "Online", "Interactive", "Probabilistic", "Secure", "Streaming",
]

_TITLE_TOPICS = [
    "query processing", "query optimization", "data integration",
    "schema matching", "record linkage", "duplicate detection",
    "view maintenance", "index structures", "join algorithms",
    "data cleaning", "information extraction", "top-k retrieval",
    "similarity search", "stream processing", "transaction management",
    "concurrency control", "data warehousing", "selectivity estimation",
    "keyword search", "graph mining", "entity resolution",
    "provenance tracking", "access control", "load shedding",
    "cache management", "buffer replacement", "log recovery",
    "sensor networks", "peer-to-peer systems", "web services",
]

_TITLE_TAILS = [
    "in relational databases", "for large data sets", "over data streams",
    "in distributed systems", "with probabilistic guarantees",
    "using machine learning", "on the web", "for personal information",
    "in sensor networks", "with limited memory", "at scale",
    "for heterogeneous sources", "under uncertainty", "revisited",
    "in practice", "with user feedback",
]


def _make_email(
    name: PersonName, pattern: str, domain: str, rng: random.Random
) -> str:
    given = name.given
    surname = name.surname.replace(" ", "")
    if pattern == "surname":
        account = surname
    elif pattern == "first.surname":
        account = f"{given}.{surname}"
    elif pattern == "initial+surname":
        account = given[0] + surname
    elif pattern == "first":
        account = given
    elif pattern == "nickname":
        account = name.nickname or given
    elif pattern == "surname+digit":
        account = surname + str(rng.randrange(1, 99))
    elif pattern == "first_surname":
        account = f"{given}_{surname}"
    else:
        raise ValueError(f"unknown account pattern {pattern!r}")
    return f"{account}@{domain}"


def _draw_accounts(
    name: PersonName, config: WorldConfig, rng: random.Random, used: set[str]
) -> list[str]:
    count = 1
    while count < 3 and rng.random() < config.extra_email_rate:
        count += 1
    accounts: list[str] = []
    domains_used: list[str] = []
    attempts = 0
    while len(accounts) < count and attempts < 40:
        attempts += 1
        pattern = rng.choice(_ACCOUNT_PATTERNS)
        if accounts and rng.random() < config.same_server_second_account:
            domain = rng.choice(domains_used)
        else:
            domain = rng.choice(_DOMAINS)
        email = _make_email(name, pattern, domain, rng)
        if email in used or email in accounts:
            continue
        if domain in domains_used and not (
            rng.random() < config.same_server_second_account
        ):
            continue
        accounts.append(email)
        domains_used.append(domain)
    if not accounts:  # pathological pool exhaustion: synthesise one
        accounts = [f"{name.given}.{name.surname}{len(used)}@{rng.choice(_DOMAINS)}"]
    used.update(accounts)
    return accounts


def _draw_title(rng: random.Random, used: set[str]) -> str:
    for _ in range(50):
        head = rng.choice(_TITLE_HEADS)
        topic = rng.choice(_TITLE_TOPICS)
        tail = rng.choice(_TITLE_TAILS)
        title = f"{head} {topic} {tail}"
        if title not in used:
            used.add(title)
            return title.capitalize()
    # Exhausted the pattern space: disambiguate explicitly.
    title = f"{rng.choice(_TITLE_HEADS)} {rng.choice(_TITLE_TOPICS)} study {len(used)}"
    used.add(title)
    return title.capitalize()


def build_world(config: WorldConfig, rng: random.Random) -> World:
    """Sample a ground-truth world under *config*."""
    world = World()
    pool = NamePool(
        rng,
        culture_mix=config.culture_mix,
        homonym_rate=config.homonym_rate,
    )
    used_emails: set[str] = set()

    first_with_name: dict[tuple[str, str], PersonEntity] = {}
    for index in range(config.n_persons):
        name = pool.draw()
        entity_id = f"person{index:04d}"
        person = PersonEntity(
            entity_id=entity_id,
            name=name,
            emails=_draw_accounts(name, config, rng, used_emails),
        )
        name_key = (name.given, name.surname)
        template = first_with_name.get(name_key)
        if template is None:
            first_with_name[name_key] = person
        else:
            # A deliberate homonym. Its accounts must not sit in typo
            # range of the twin's (mail servers disambiguate twins with
            # digits): drop any near-clash, then optionally plant one
            # clearly-different account on the twin's server — the
            # §5.3 constraint-3 scenario.
            twin_domains = {email.split("@", 1)[1] for email in template.emails}
            person.emails = [
                email
                for email in person.emails
                if email.split("@", 1)[1] not in twin_domains
            ]
            if not person.emails or rng.random() < config.homonym_same_server:
                twin_domain = template.emails[0].split("@", 1)[1]
                candidate = _make_email(name, "surname+digit", twin_domain, rng)
                while candidate in used_emails:
                    candidate = _make_email(name, "surname+digit", twin_domain, rng)
                used_emails.add(candidate)
                person.emails.append(candidate)
        world.persons[entity_id] = person
    world.owner_id = "person0000"

    if config.owner_changes_name:
        owner = world.owner
        new_surname = rng.choice(_US_SURNAME_FOR_CHANGE)
        while new_surname == owner.name.surname:
            new_surname = rng.choice(_US_SURNAME_FOR_CHANGE)
        former = owner.name
        owner.former_name = former
        owner.name = PersonName(
            given=former.given,
            middle=former.middle,
            surname=new_surname,
            nickname=former.nickname,
        )
        if config.owner_changes_account_same_server:
            # New surname, new account, same institutional server: the
            # configuration constraint 3 splits (Table 4, dataset D).
            old_domain = owner.emails[-1].split("@", 1)[1]
            new_email = f"{owner.name.surname}@{old_domain}"
            if new_email not in used_emails:
                owner.emails.append(new_email)
                used_emails.add(new_email)
        else:
            new_email = _make_email(
                owner.name, "surname", rng.choice(_DOMAINS), rng
            )
            if new_email not in used_emails:
                owner.emails.append(new_email)
                used_emails.add(new_email)

    list_names = ["dbgroup", "systems-lab", "seminar", "students", "faculty",
                  "reading-group", "colloquium", "staff"]
    rng.shuffle(list_names)
    for index in range(config.n_mailing_lists):
        # Distinct names per list: two lists that both display as
        # "students" would trivially (and wrongly) reconcile.
        list_name = list_names[index % len(list_names)]
        domain = rng.choice(_DOMAINS[:8])
        email = f"{list_name}@{domain}"
        if email in used_emails:
            email = f"{list_name}{index}@{domain}"
        used_emails.add(email)
        entity_id = f"mlist{index:02d}"
        world.persons[entity_id] = PersonEntity(
            entity_id=entity_id,
            name=PersonName(given=list_name, middle="", surname="", nickname=""),
            emails=[email],
            is_mailing_list=True,
        )

    venue_pool = list(_VENUE_POOL)
    rng.shuffle(venue_pool)
    if config.prefer_obscure_venues:
        venue_pool.sort(key=lambda entry: not entry[3])
    for index, (acronym, full_name, kind, obscure) in enumerate(
        venue_pool[: config.n_venues]
    ):
        entity_id = f"venue{index:02d}"
        world.venues[entity_id] = VenueEntity(
            entity_id=entity_id,
            acronym=acronym,
            full_name=full_name,
            kind=kind,
            obscure=obscure,
        )

    # Research circles: the owner belongs to the first one; papers are
    # authored by subsets of a circle.
    person_ids = [
        person_id
        for person_id, person in world.persons.items()
        if not person.is_mailing_list
    ]
    remaining = person_ids[1:]
    rng.shuffle(remaining)
    circles: list[list[str]] = []
    cursor = 0
    first_size = rng.randint(*config.circle_size)
    circles.append([world.owner_id] + remaining[:first_size])
    cursor = first_size
    while cursor < len(remaining):
        size = rng.randint(*config.circle_size)
        circle = remaining[cursor : cursor + size]
        cursor += size
        if circle:
            circles.append(circle)
    world.circles = circles

    used_titles: set[str] = set()
    venue_ids = sorted(world.venues)
    for index in range(config.n_papers):
        circle = circles[index % len(circles)]
        n_authors = rng.randint(1, min(4, len(circle)))
        authors = tuple(rng.sample(circle, n_authors))
        start_page = rng.randrange(1, 600)
        entity_id = f"paper{index:04d}"
        world.papers[entity_id] = PaperEntity(
            entity_id=entity_id,
            title=_draw_title(rng, used_titles),
            author_ids=authors,
            venue_id=rng.choice(venue_ids),
            year=rng.randint(*config.year_range),
            pages=f"{start_page}-{start_page + rng.randrange(8, 25)}",
        )
    return world


# Surnames used for the dataset-D owner's post-marriage name.
_US_SURNAME_FOR_CHANGE = [
    "harrington", "whitfield", "lancaster", "pemberton", "ashworth",
    "colvin", "mercer", "sterling", "winslow", "radcliffe",
]
