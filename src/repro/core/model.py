"""Domain-model interface and engine configuration.

The dependency-graph engine is domain-agnostic (§4: "the similarity
functions are orthogonal to the dependency graph framework"). A
:class:`DomainModel` packages everything domain-specific:

* which atomic attribute pairs are *comparable* and how to compare
  them (:class:`AtomicChannel`, including cross-attribute channels
  such as name-vs-email),
* which association attributes feed real-valued evidence into which
  class (:class:`AssociationChannel`),
* which reconciliations *imply* which (:class:`StrongDependency`) and
  which merely *support* which (:class:`WeakDependency`),
* the S_rv combination function per class, the paper's per-class
  parameters (β, γ, t_rv), blocking keys, key attributes and
  constraints.

:class:`EngineConfig` holds the algorithm-level switches that the
experiments of §5.3 toggle (propagation, enrichment, constraints,
individual evidence channels).
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, replace

from .references import Reference
from .schema import Schema

__all__ = [
    "AtomicChannel",
    "AssociationChannel",
    "StrongDependency",
    "WeakDependency",
    "ClusterValues",
    "DomainModel",
    "EngineConfig",
    "Mode",
    "TRADITIONAL",
    "PROPAGATION",
    "MERGE",
    "FULL",
]

# Pooled attribute values of one cluster: attribute name -> values.
ClusterValues = Mapping[str, tuple[str, ...]]


@dataclass(frozen=True)
class AtomicChannel:
    """One stream of atomic-value evidence for pairs of one class.

    For symmetric channels ``left_attr == right_attr`` (name vs name).
    Cross channels compare different attributes (name vs email) and are
    evaluated in both directions.

    ``liberal_threshold`` is the low bar of §3.1: a value node is
    created only when the comparator scores at least this much, "in
    order not to lose important nodes" while pruning the graph.

    ``is_key`` marks channels whose exact match (score 1.0) alone
    implies reconciliation (§4: "some attributes serving as keys").

    The optional fast-path fields are pure optimisations wired by the
    domain (see :mod:`repro.perf`): ``features_left`` / ``features_right``
    map a raw value to precomputed features, ``fast_comparator(lf, rf,
    floor)`` must return the exact ``comparator`` score whenever that
    score is at least ``floor`` (anything below ``floor`` otherwise),
    and ``score_upper_bound(lf, rf)`` must never be below the true
    score. When ``fast_comparator`` is ``None`` the engine calls
    ``comparator`` directly.
    """

    name: str
    class_name: str
    left_attr: str
    right_attr: str
    comparator: Callable[[str, str], float]
    liberal_threshold: float = 0.5
    is_key: bool = False
    features_left: Callable[[str], object] | None = None
    features_right: Callable[[str], object] | None = None
    fast_comparator: Callable[[object, object, float], float] | None = None
    score_upper_bound: Callable[[object, object], float] | None = None

    @property
    def is_cross(self) -> bool:
        return self.left_attr != self.right_attr


@dataclass(frozen=True)
class AssociationChannel:
    """Real-valued evidence flowing from related pair nodes.

    For a pair of ``class_name`` references, the pair nodes of the
    references linked through ``attr`` feed the channel: e.g. Article
    pairs receive an ``authors`` channel aggregated over the aligned
    author pair nodes (Figure 2(a): m2..m4 -> m1) and a ``venue``
    channel from the venue pair node (m5 -> m1).

    ``aggregate`` is ``"mean_aligned"`` (greedy one-to-one alignment of
    linked references by current pair-node score, averaged over the
    smaller link list) or ``"max"`` (best single pair).
    """

    name: str
    class_name: str
    attr: str
    target_class: str
    aggregate: str = "mean_aligned"


@dataclass(frozen=True)
class StrongDependency:
    """Merging a ``source_class`` pair implies merging the pairs of
    references linked via ``attr`` (strong-boolean edges, §3.1).

    E.g. merging two Articles implies merging their aligned authors
    (attr ``authoredBy`` -> Person) and their venues (``publishedIn``
    -> Venue).

    ``ensure_target_nodes`` forces creation of the target pair node even
    when the targets share no similar atomic values. The paper needs
    this for venues: two venue mentions of reconciled articles
    "potentially refer to the same entity" (§3.1) no matter how their
    names look, and with t_rv = 0.1 the β boosts alone can carry them
    over the merge threshold (the Cora effect of §5.4). Author pairs,
    in contrast, are only merged "with similar names", so their
    dependency leaves the flag off.
    """

    source_class: str
    attr: str
    target_class: str
    ensure_target_nodes: bool = False


@dataclass(frozen=True)
class WeakDependency:
    """Shared associates boost a pair (weak-boolean edges, §3.1).

    For a pair of ``class_name`` references, every reconciled pair
    (x, y) with x linked from one side and y from the other through any
    attribute in ``attrs`` counts one unit of γ evidence — the paper's
    "common contact" count for persons via coAuthor and emailContact.
    """

    class_name: str
    attrs: tuple[str, ...]


class DomainModel(abc.ABC):
    """Everything the engine must know about one domain."""

    #: The domain schema (Figure 1(a) / Figure 5).
    schema: Schema

    # -- evidence wiring ------------------------------------------------
    @abc.abstractmethod
    def atomic_channels(self, class_name: str) -> tuple[AtomicChannel, ...]:
        """Atomic evidence channels for pairs of *class_name*."""

    @abc.abstractmethod
    def association_channels(self, class_name: str) -> tuple[AssociationChannel, ...]:
        """Real-valued association channels for pairs of *class_name*."""

    @abc.abstractmethod
    def strong_dependencies(self) -> tuple[StrongDependency, ...]:
        """All strong-boolean dependency templates of the domain."""

    @abc.abstractmethod
    def weak_dependencies(self) -> tuple[WeakDependency, ...]:
        """All weak-boolean dependency templates of the domain."""

    # -- scoring --------------------------------------------------------
    @abc.abstractmethod
    def rv_score(self, class_name: str, evidence: Mapping[str, float]) -> float:
        """Combine available channel scores into S_rv (Equation 1).

        *evidence* maps channel name to its (MAX-aggregated) score;
        missing channels are absent from the mapping. Implementations
        must be monotone: adding channels or raising scores never
        lowers the result (§3.2's termination requirement).
        """

    @abc.abstractmethod
    def merge_threshold(self, class_name: str) -> float:
        """Reference-pair merge threshold (paper: 0.85 for all)."""

    @abc.abstractmethod
    def beta(self, class_name: str) -> float:
        """Strong-boolean increment β (paper: 0.1; 0.2 for Venue)."""

    @abc.abstractmethod
    def gamma(self, class_name: str) -> float:
        """Weak-boolean increment γ (paper: 0.05)."""

    @abc.abstractmethod
    def t_rv(self, class_name: str) -> float:
        """Minimum S_rv for boolean evidence to apply (paper: 0.7 for
        Person/Article, 0.1 for Venue)."""

    # -- candidate generation & keys -------------------------------------
    @abc.abstractmethod
    def blocking_keys(self, reference: Reference) -> Iterable[str]:
        """Cheap keys; references sharing a key become candidate pairs
        (the canopy-style pruning of §3.1/§6)."""

    def key_values(self, reference: Reference) -> Iterable[str]:
        """Values whose exact equality identifies the entity (used for
        the §3.4 pre-merge optimisation). Default: none."""
        return ()

    def boolean_evidence_allowed(
        self, class_name: str, left: ClusterValues, right: ClusterValues
    ) -> bool:
        """Gate for S_sb / S_wb beyond the t_rv threshold (§4's
        "sophisticated function can require stricter conditions", e.g.
        rewarding person pairs only when both carry real names).
        Default: always allowed."""
        return True

    # -- negative evidence ------------------------------------------------
    def conflict(
        self, class_name: str, left: ClusterValues, right: ClusterValues
    ) -> bool:
        """Domain test for "these two clusters are distinct" given their
        pooled attribute values (constraints 2 and 3 of §5.3). Default:
        never."""
        return False

    def distinct_pairs(self, references: Iterable[Reference]) -> Iterable[tuple[str, str]]:
        """Pairs of reference ids guaranteed distinct a priori
        (constraint 1 of §5.3: co-authors of one paper). Default: none."""
        return ()

    # -- ordering ----------------------------------------------------------
    def class_order(self) -> tuple[str, ...]:
        """Order in which classes are seeded into the queue, chosen so a
        node precedes its outgoing real-valued neighbours (§3.2: compare
        authors and venues before articles). Default: schema order."""
        return self.schema.class_names


@dataclass(frozen=True)
class Mode:
    """One cell of the §5.3 mode dimension."""

    name: str
    propagate: bool
    enrich: bool


TRADITIONAL = Mode("Traditional", propagate=False, enrich=False)
PROPAGATION = Mode("Propagation", propagate=True, enrich=False)
MERGE = Mode("Merge", propagate=False, enrich=True)
FULL = Mode("Full", propagate=True, enrich=True)


@dataclass(frozen=True)
class EngineConfig:
    """Algorithm-level switches.

    The defaults are the full DepGraph configuration; the experiment
    harness derives InDepDec and the §5.3 ablation cells with
    :meth:`with_mode` and the ``disabled_*`` filters.
    """

    propagate: bool = True
    enrich: bool = True
    constraints: bool = True
    premerge_keys: bool = True
    #: evidence filters (by channel name / dependency endpoints).
    disabled_channels: frozenset[str] = frozenset()
    disabled_strong: frozenset[tuple[str, str]] = frozenset()
    disabled_weak: frozenset[str] = frozenset()
    #: skip blocking buckets larger than this (a key shared by half the
    #: dataset carries no signal); None = unbounded.
    max_block_size: int | None = 1000
    #: §3.2's ordering heuristic: strong-boolean reactivations jump the
    #: queue. Disable to measure the heuristic's effect (plain FIFO).
    strong_to_front: bool = True
    #: worker processes for candidate-pair scoring during build; 1 runs
    #: serially. Any value yields byte-identical results (see
    #: :mod:`repro.perf.parallel`), so this is excluded from checkpoint
    #: fingerprints — a run may resume with a different worker count.
    workers: int = 1

    def with_mode(self, mode: Mode) -> "EngineConfig":
        return replace(self, propagate=mode.propagate, enrich=mode.enrich)

    def channel_enabled(self, channel_name: str) -> bool:
        return channel_name not in self.disabled_channels

    def strong_enabled(self, source_class: str, target_class: str) -> bool:
        return (source_class, target_class) not in self.disabled_strong

    def weak_enabled(self, class_name: str) -> bool:
        return class_name not in self.disabled_weak
