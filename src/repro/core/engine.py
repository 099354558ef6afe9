"""The reconciliation engine (Figure 4 of the paper).

:class:`Reconciler` wires together the dependency graph, the active
queue, the union-find partition and a :class:`~repro.core.model.DomainModel`:

1. **Build** — pre-merge references that agree on key values, generate
   candidate pairs per class by blocking, create pair nodes with their
   atomic value evidence (two-pass construction of §3.1), wire
   association / strong / weak dependency edges, and install
   constraint (non-merge) nodes.
2. **Iterate** — pop active nodes, recompute S = S_rv + S_sb + S_wb,
   merge above threshold, propagate activations along typed edges
   (strong-boolean to the queue front), and enrich by fusing nodes as
   clusters grow (§3.2-§3.4).
3. **Close** — the union-find *is* the transitive closure; enemy sets
   carry the negative evidence through it.

The engine is deliberately configuration-driven so the §5.3 ablations
(TRADITIONAL / PROPAGATION / MERGE / FULL × evidence subsets) are pure
config changes, not separate code paths.
"""

from __future__ import annotations

import bisect
import time
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

from ..obs import FlightRecorder, HotspotSketch, Observer, Observers
from ..perf.scoring import pair_evidence
from ..runtime.guards import DegradationEvent
from .blocking import BlockingIndex
from .graph import DependencyGraph
from .model import DomainModel, EngineConfig
from .nodes import EdgeType, NodeStatus, PairNode, pair_key
from .partition import ConstraintViolation, UnionFind
from .queue import ActiveQueue
from .references import Reference, ReferenceStore
from .result import ReconciliationResult

__all__ = ["Reconciler", "EngineStats"]

# Guard against pathological weak-edge fan-out (popular contacts).
_MAX_WEAK_FANOUT = 20_000
#: Minimum score increase that reactivates neighbours (§3.2's "small
#: constant" that guarantees termination).
_EPSILON = 1e-6


@dataclass
class EngineStats:
    """Counters exposed for the efficiency experiments and Table 6."""

    pair_nodes: int = 0
    value_nodes: int = 0
    graph_nodes: int = 0
    candidate_pairs: int = 0
    recomputations: int = 0
    merges: int = 0
    non_merges: int = 0
    premerged_unions: int = 0
    constraint_pairs: int = 0
    fusions: int = 0
    queue_front_pushes: int = 0
    queue_back_pushes: int = 0
    build_seconds: float = 0.0
    iterate_seconds: float = 0.0
    skipped_weak_fanout: int = 0
    # Cache-effectiveness counters (all plain ints so checkpoints can
    # round-trip them through asdict/EngineStats(**...)).
    values_cache_hits: int = 0
    values_cache_misses: int = 0
    contacts_cache_hits: int = 0
    contacts_cache_misses: int = 0
    feature_cache_hits: int = 0
    feature_cache_misses: int = 0
    pair_memo_hits: int = 0
    pair_memo_misses: int = 0
    prefilter_skips: int = 0
    #: worker processes the build actually used (1 = serial).
    parallel_workers: int = 1
    #: classes re-scored serially after the worker pool failed (see
    #: repro.runtime.supervisor); at most one per build.
    task_retries: int = 0
    #: ActiveQueue deque rebuilds triggered by stale-entry buildup.
    queue_compactions: int = 0
    per_class_nodes: dict[str, int] = field(default_factory=dict)
    #: convergence samples taken during iterate (plain dicts: keyed by
    #: the recomputation counter, never wall-clock, so a resumed run
    #: reproduces an uninterrupted run's samples exactly). Populated
    #: only when :meth:`Reconciler.attach_convergence` was called.
    convergence_samples: list[dict] = field(default_factory=list)
    #: structured trail of everything that degraded during the run
    #: (guard trips, pruned weak fan-out, serial-build fallbacks).
    degradations: list[DegradationEvent] = field(default_factory=list)


_first_member = itemgetter(0)


class _ResultClusters:
    """The result cache: each cluster's sorted member ids under its
    ``(class, root)`` key, and each class's clusters in first-member
    order, one list object in both views. Merges and admitted
    references move clusters with :mod:`bisect`, so a result copies
    the member lists out in order and never sorts."""

    __slots__ = ("by_root", "ordered")

    def __init__(self, class_names: Iterable[str]) -> None:
        self.by_root: dict[tuple[str, str], list[str]] = {}
        self.ordered: dict[str, list[list[str]]] = {name: [] for name in class_names}

    def _take(self, class_name: str, root: str) -> list[str] | None:
        members = self.by_root.pop((class_name, root), None)
        if members is not None:
            ordered = self.ordered[class_name]
            del ordered[bisect.bisect_left(ordered, members[0], key=_first_member)]
        return members

    def _put(self, class_name: str, root: str, members: list[str]) -> None:
        self.by_root[(class_name, root)] = members
        ordered = self.ordered[class_name]
        ordered.insert(
            bisect.bisect_left(ordered, members[0], key=_first_member), members
        )

    def add(self, class_name: str, ref_id: str) -> None:
        """Give a reference new to the partition a cluster of its own."""
        self._put(class_name, ref_id, [ref_id])

    def merge(self, class_name: str, survivor: str, absorbed: str) -> None:
        """Fold *absorbed*'s cluster of *class_name*, if any, into *survivor*'s."""
        moved = self._take(class_name, absorbed)
        if moved is None:
            return
        kept = self._take(class_name, survivor)
        if kept is not None:
            kept.extend(moved)
            kept.sort()  # two sorted runs: a linear merge
            moved = kept
        self._put(class_name, survivor, moved)


class Reconciler:
    """Run the dependency-graph reconciliation over a reference store.

    Everything watching the run subscribes through one fan-out (see
    :mod:`repro.obs.observer`). By default that is a flight recorder
    and a hotspot sketch; an explicit sequence of subscribers is used
    exactly as given, so an empty one gives the bare engine.
    """

    def __init__(
        self,
        store: ReferenceStore,
        domain: DomainModel,
        config: EngineConfig | None = None,
        *,
        observers: Iterable[Observer] | None = None,
    ) -> None:
        self.store = store
        self.domain = domain
        self.config = config or EngineConfig()
        self.observers = Observers(
            (FlightRecorder(), HotspotSketch()) if observers is None else observers
        )
        self.graph = DependencyGraph()
        self.queue = ActiveQueue()
        self.stats = EngineStats()
        # Cluster membership and pooled-value caches (enrichment state).
        self._members: dict[str, list[str]] = {}
        self._values_cache: dict[str, dict[str, tuple[str, ...]]] = {}
        # Contact-root cache with fine-grained invalidation: an entry
        # stays valid across merges that cannot change it. The reverse
        # index maps a cluster root to the elements whose cached contact
        # sets mention it; the union-find notifies us of every merge.
        self._contacts_cache: dict[str, frozenset[str]] = {}
        self._contacts_rdeps: dict[str, set[str]] = {}
        # Result cache (see _ResultClusters), or None until the first
        # _result() fills it from a store scan; kept current and in
        # first-member order by a union-find listener and by _admit()
        # for references added later, so each later result is one list
        # copy per cluster: no store scan and no sort.
        self._result_clusters: _ResultClusters | None = None
        self._use_union_find(UnionFind())
        # Value-pair score memo shared by every candidate pair of a
        # build (see perf.scoring.memoised_score for the semantics).
        self._pair_score_memo: dict = {}
        self._weak_attrs: dict[str, tuple[str, ...]] = {
            dep.class_name: dep.attrs for dep in domain.weak_dependencies()
        }
        # Blocking indexes are retained per class so new references can
        # be folded in later (incremental reconciliation).
        self._block_indexes: dict[str, BlockingIndex] = {}
        self._built = False
        #: why the last run stopped: "converged" or a degradation kind.
        self.stop_reason = "converged"
        #: fault-injection seam for the parallel build: an opaque
        #: object with a ``before_chunk`` method, forwarded to scoring
        #: workers. None in production.
        self.chaos = None
        # Set when a mid-build scorer failure disabled parallelism for
        # the remaining classes (the scorer is already shut down).
        self._parallel_disabled = False
        # Convergence sampling (run manifests): (gold entity_of, every).
        self._convergence: tuple[dict[str, str], int] | None = None

    def attach_convergence(
        self, gold_entity_of: Mapping[str, str], *, every: int = 250
    ) -> None:
        """Record convergence samples against a gold standard.

        Every *every* recomputations (and once at the end of the run)
        the engine appends ``{recomputations, merges, queued,
        precision, recall}`` to ``stats.convergence_samples`` — the
        per-iteration curve a run manifest embeds. Samples are keyed by
        the recomputation counter, which is checkpointed, so a resumed
        run continues the exact sample sequence an uninterrupted run
        produces. Sampling is read-only: it cannot change any decision.
        """
        if gold_entity_of:
            self._convergence = (dict(gold_entity_of), max(1, int(every)))

    def _sample_convergence(self, *, final: bool = False) -> None:
        gold, every = self._convergence
        n = self.stats.recomputations
        samples = self.stats.convergence_samples
        if not final and n % every:
            return
        if samples and samples[-1]["recomputations"] == n:
            if not final:
                return
            samples.pop()  # the final state supersedes the boundary sample
        from ..evaluation.metrics import combine_scores, pairwise_scores

        per_class: dict[str, dict[str, list[str]]] = {}
        for reference in self.store:
            if reference.ref_id not in gold:
                continue
            per_class.setdefault(reference.class_name, {}).setdefault(
                self.uf.find(reference.ref_id), []
            ).append(reference.ref_id)
        scores = combine_scores(
            pairwise_scores(groups.values(), gold) for groups in per_class.values()
        )
        point = {
            "recomputations": n,
            "merges": self.stats.merges,
            "queued": len(self.queue),
            "precision": round(scores.precision, 6),
            "recall": round(scores.recall, 6),
        }
        samples.append(point)

    def _sync_feature_cache_stats(self) -> None:
        """Mirror the domain's :class:`~repro.perf.features.FeatureCache`
        counters (when the domain has one) into the engine stats."""
        cache = getattr(self.domain, "feature_cache", None)
        if cache is not None:
            self.stats.feature_cache_hits = cache.hits
            self.stats.feature_cache_misses = cache.misses

    def enabled_atomic_channels(self, class_name: str):
        """The atomic channels active under the current config."""
        return [
            channel
            for channel in self.domain.atomic_channels(class_name)
            if self.config.channel_enabled(channel.name)
        ]

    # ------------------------------------------------------------------
    # element identity: in enrich mode nodes are keyed by cluster roots;
    # otherwise by raw reference ids.
    # ------------------------------------------------------------------
    def _elem(self, ref_id: str) -> str:
        if self.config.enrich:
            return self.uf.find(ref_id)
        return ref_id

    def _element_refs(self, element: str) -> list[Reference]:
        if self.config.enrich:
            members = self._members.get(element)
            if members is None:
                members = [element]
            return [self.store.get(ref_id) for ref_id in members]
        return [self.store.get(element)]

    def _element_values(self, element: str) -> Mapping[str, tuple[str, ...]]:
        """Pooled attribute values of the element's cluster (enrichment)
        or the single reference's own values."""
        if not self.config.enrich:
            return self.store.get(element).values
        cached = self._values_cache.get(element)
        if cached is not None:
            self.stats.values_cache_hits += 1
            return cached
        self.stats.values_cache_misses += 1
        pooled: dict[str, list[str]] = {}
        for reference in self._element_refs(element):
            for attribute, values in reference.values.items():
                bucket = pooled.setdefault(attribute, [])
                for value in values:
                    if value not in bucket:
                        bucket.append(value)
        frozen = {attribute: tuple(values) for attribute, values in pooled.items()}
        self._values_cache[element] = frozen
        return frozen

    def _element_assoc(self, element: str, attribute: str) -> tuple[str, ...]:
        return self._element_values(element).get(attribute, ())

    def _contact_roots(self, element: str, class_name: str) -> frozenset[str]:
        """Roots of all contacts of the element (for weak counts).

        Cached per element with *dirty-root* invalidation: the cached
        set can only change when one of the roots it contains is
        absorbed by a merge (the contact's root moved) or when the
        element itself merges (its pooled contact list grew). The
        union-find notifies :meth:`_invalidate_contacts` on every
        union, which evicts exactly those entries — merges elsewhere in
        the dataset leave the cache warm.
        """
        cached = self._contacts_cache.get(element)
        if cached is not None:
            self.stats.contacts_cache_hits += 1
            return cached
        self.stats.contacts_cache_misses += 1
        attrs = self._weak_attrs.get(class_name, ())
        roots: set[str] = set()
        for attribute in attrs:
            for contact_id in self._element_assoc(element, attribute):
                roots.add(self.uf.find(contact_id))
        frozen = frozenset(roots)
        self._contacts_cache[element] = frozen
        for root in frozen:
            self._contacts_rdeps.setdefault(root, set()).add(element)
        return frozen

    def _use_union_find(self, uf: UnionFind) -> None:
        """Install *uf* as the partition (a fresh engine, or a checkpoint
        restore): attach the merge listeners and drop the result cache,
        which was keyed by the old partition's roots."""
        self.uf = uf
        self._result_clusters = None
        uf.add_union_listener(self._invalidate_contacts)
        uf.add_union_listener(self._merge_result_clusters)

    def _admit(self, references: Iterable[Reference]) -> None:
        """Register references just added to the store: a singleton
        partition entry, a member list and a result-cache entry each."""
        clusters = self._result_clusters
        for reference in references:
            ref_id = reference.ref_id
            self.uf.find(ref_id)
            self._members.setdefault(ref_id, [ref_id])
            if clusters is not None:
                clusters.add(reference.class_name, ref_id)

    def _invalidate_contacts(self, survivor: str, absorbed: str) -> None:
        """Union-find merge hook: evict exactly the contact-root cache
        entries the merge invalidated — those whose set contains the
        absorbed root (it stopped being a root) and the merged elements
        themselves (their pooled contact lists grew). Sets containing
        only the survivor stay valid: it is still the root and the set
        membership is unchanged. Spurious evictions would merely cost a
        recompute; missing one would be a correctness bug, hence the
        reverse index is append-only and may over-approximate."""
        for dependent in self._contacts_rdeps.pop(absorbed, ()):
            self._contacts_cache.pop(dependent, None)
        self._contacts_cache.pop(survivor, None)
        self._contacts_cache.pop(absorbed, None)

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    def build(self) -> None:
        """Construct the dependency graph (two passes of §3.1)."""
        started = time.perf_counter()
        self.observers.phase_begin(self, "build", references=len(self.store))
        self.store.validate()
        if self.config.premerge_keys:
            with self.observers.phase(self, "premerge"):
                self._premerge_by_keys()
        self._register_members()
        class_order = self.domain.class_order()
        per_class_nodes: dict[str, list[PairNode]] = {}
        scorer = self._make_scorer()
        try:
            for class_name in class_order:
                with self.observers.phase(self, "build_class", class_name=class_name):
                    nodes = self._build_class_nodes(class_name, scorer=scorer)
                per_class_nodes[class_name] = nodes
                self.observers.blocks(
                    self, class_name, self._block_indexes[class_name], len(nodes)
                )
        finally:
            if scorer is not None:
                scorer.shutdown()
        with self.observers.phase(self, "wire_association"):
            self._wire_association_edges(per_class_nodes)
        with self.observers.phase(self, "wire_weak"):
            self._wire_weak_edges(per_class_nodes)
        if self.config.constraints:
            with self.observers.phase(self, "constraints"):
                self._install_distinct_pairs(self.store)
        # Seed the queue: class order already respects "values before
        # the references that depend on them".
        for class_name in class_order:
            for node in per_class_nodes[class_name]:
                if node.status is NodeStatus.ACTIVE:
                    self.queue.push_back(node.key)
        self.stats.pair_nodes = self.graph.pair_nodes_created
        self.stats.value_nodes = self.graph.value_nodes_created
        self.stats.graph_nodes = self.graph.node_count()
        self.stats.per_class_nodes = {
            class_name: len(nodes) for class_name, nodes in per_class_nodes.items()
        }
        self.stats.build_seconds = time.perf_counter() - started
        self._sync_feature_cache_stats()
        self._report_weak_fanout(self.stats.skipped_weak_fanout)
        self.observers.phase_end(
            self,
            "build",
            seconds=round(self.stats.build_seconds, 6),
            candidate_pairs=self.stats.candidate_pairs,
            pair_nodes=self.stats.pair_nodes,
            value_nodes=self.stats.value_nodes,
            queued=len(self.queue),
        )
        self._built = True

    def _degrade(self, event: DegradationEvent) -> None:
        """Record a degradation in the stats and report it: the one
        path every degradation of a run takes."""
        self.stats.degradations.append(event)
        self.observers.degradation(event)

    def _premerge_by_keys(self) -> None:
        """§3.4's cheap pre-processing: union references that share a
        key value (e.g. the exact same email address)."""
        buckets: dict[str, list[str]] = {}
        for reference in self.store:
            for key_value in self.domain.key_values(reference):
                buckets.setdefault(key_value, []).append(reference.ref_id)
        for key_value in sorted(buckets):
            bucket = buckets[key_value]
            first = bucket[0]
            for other in bucket[1:]:
                if self.uf.union(first, other) is not None:
                    self.stats.premerged_unions += 1

    def _register_members(self) -> None:
        for reference in self.store:
            root = self.uf.find(reference.ref_id)
            self._members.setdefault(root, []).append(reference.ref_id)

    def _make_scorer(self):
        """A worker pool for the build, or ``None`` to run serially
        (``workers=1``, or a domain workers cannot rebuild — recorded
        as a ``parallel_fallback`` degradation, never an error)."""
        self.stats.parallel_workers = 1
        self._parallel_disabled = False
        if self.config.workers <= 1:
            return None
        from ..runtime.supervisor import SupervisedScorer

        try:
            scorer = SupervisedScorer(
                self.domain,
                self.config.workers,
                observers=self.observers,
                chaos=self.chaos,
            )
        except Exception as exc:
            self._degrade(
                DegradationEvent(
                    kind="parallel_fallback",
                    detail=f"serial build: {exc}",
                )
            )
            return None
        self.stats.parallel_workers = self.config.workers
        return scorer

    def _build_class_nodes(
        self, class_name: str, scorer=None
    ) -> list[PairNode]:
        """Blocking + first-pass node construction for one class.

        With a *scorer*, candidate pairs are scored in worker processes
        but nodes are materialised here in the original pair order — a
        parallel build is byte-identical to a serial one. No union
        happens while a class's pairs are scored, so workers only need
        the (immutable during this loop) pooled attribute values.
        """
        references = self.store.of_class(class_name)
        index = BlockingIndex(max_block_size=self.config.max_block_size)
        self._block_indexes[class_name] = index
        for reference in references:
            element = self._elem(reference.ref_id)
            index.add(element, self.domain.blocking_keys(reference))
        channels = self.enabled_atomic_channels(class_name)
        nodes: list[PairNode] = []
        if self._parallel_disabled:
            scorer = None
        if scorer is not None:
            pair_list = list(index.pairs())
            evidences = self._score_pairs_parallel(
                scorer, class_name, channels, pair_list
            )
            if evidences is not None:
                for (left, right), evidence in zip(pair_list, evidences):
                    self.stats.candidate_pairs += 1
                    if self.uf.connected(left, right):
                        continue
                    node = self._node_from_evidence(class_name, left, right, evidence)
                    if node is not None:
                        nodes.append(node)
                return nodes
            pairs = iter(pair_list)  # worker failure: fall back serially
        else:
            pairs = index.pairs()
        for left, right in pairs:
            self.stats.candidate_pairs += 1
            node = self._make_pair_node(class_name, left, right, channels)
            if node is not None:
                nodes.append(node)
        return nodes

    def _score_pairs_parallel(
        self, scorer, class_name: str, channels, pair_list
    ):
        """Evidence lists for *pair_list* from the worker pool, or
        ``None`` (plus a degradation record) when the pool fails.

        Any pool failure — a crashed worker (``BrokenProcessPool``) or
        an exception raised while scoring — degrades to the serial
        build for this and every remaining class; the scorer has
        already killed its workers. A comparator exception therefore
        re-raises from the serial path exactly as with ``workers=1``.
        """
        values: dict[str, dict[str, tuple[str, ...]]] = {}
        for pair in pair_list:
            for element in pair:
                if element not in values:
                    values[element] = dict(self._element_values(element))
        channel_names = tuple(channel.name for channel in channels)
        try:
            return scorer.score(class_name, channel_names, pair_list, values)
        except Exception as exc:
            self._degrade(
                DegradationEvent(
                    kind="parallel_fallback",
                    detail=f"class {class_name} scored serially: {exc}",
                )
            )
            self.stats.parallel_workers = 1
            self.stats.task_retries += 1
            self._parallel_disabled = True
            return None

    def _make_pair_node(
        self, class_name: str, left: str, right: str, channels, *, force: bool = False
    ) -> PairNode | None:
        """Create a pair node with its atomic value evidence; drop the
        node when no channel produced any evidence (§3.1 step 2).

        With ``force=True`` (strong dependencies that guarantee the
        pair "potentially refers to the same entity") the node is
        created regardless, and even weak value evidence is kept.
        """
        if self.uf.connected(left, right):
            return None
        evidence = pair_evidence(
            channels,
            self._element_values(left),
            self._element_values(right),
            self._pair_score_memo,
            floor=0.02 if force else None,
            stats=self.stats,
        )
        return self._node_from_evidence(class_name, left, right, evidence, force=force)

    def _node_from_evidence(
        self,
        class_name: str,
        left: str,
        right: str,
        evidence: list[tuple[str, str, str, float]],
        *,
        force: bool = False,
    ) -> PairNode | None:
        if not evidence and not force:
            return None
        node = self.graph.add_pair_node(class_name, left, right)
        for channel_name, value_l, value_r, score in evidence:
            node.add_value_evidence(
                self.graph.value_node(channel_name, value_l, value_r, score)
            )
        return node

    def _wire_association_edges(self, per_class_nodes) -> None:
        """Second pass of §3.1: edges along association attributes."""
        strong_templates: dict[str, list] = {}
        for dependency in self.domain.strong_dependencies():
            if self.config.strong_enabled(
                dependency.source_class, dependency.target_class
            ):
                strong_templates.setdefault(dependency.source_class, []).append(
                    dependency
                )
        for class_name, nodes in per_class_nodes.items():
            assoc_channels = [
                channel
                for channel in self.domain.association_channels(class_name)
                if self.config.channel_enabled(channel.name)
            ]
            strongs = strong_templates.get(class_name, [])
            if not assoc_channels and not strongs:
                continue
            for node in nodes:
                for channel in assoc_channels:
                    self._wire_assoc_channel(node, channel.attr)
                for dependency in strongs:
                    self._wire_strong(node, dependency, per_class_nodes)

    def _linked_element_pairs(self, node: PairNode, attribute: str):
        """Element pairs linked from the two sides of *node* through
        *attribute*, with their existing pair node (or None)."""
        left_targets = self._element_assoc(node.left, attribute)
        right_targets = self._element_assoc(node.right, attribute)
        seen: set = set()
        for target_l in left_targets:
            element_l = self._elem(target_l)
            for target_r in right_targets:
                element_r = self._elem(target_r)
                if element_l == element_r:
                    continue
                key = pair_key(element_l, element_r)
                if key in seen:
                    continue
                seen.add(key)
                yield key, self.graph.get_key(key)

    def _wire_assoc_channel(self, node: PairNode, attribute: str) -> None:
        for _key, linked in self._linked_element_pairs(node, attribute):
            if linked is not None:
                self.graph.add_edge(linked, node, EdgeType.REAL)

    def _wire_strong(self, node: PairNode, dependency, per_class_nodes) -> None:
        """Strong edges from *node* to its linked target pairs. A forced
        target node made during the build joins its class's list in
        *per_class_nodes*, so it is wired and seeded like the rest; one
        made by an incremental add is queued directly."""
        for key, linked in self._linked_element_pairs(node, dependency.attr):
            if linked is None and dependency.ensure_target_nodes:
                linked = self._make_pair_node(
                    dependency.target_class,
                    key[0],
                    key[1],
                    self.enabled_atomic_channels(dependency.target_class),
                    force=True,
                )
                if linked is not None:
                    # The forced node also feeds the source's real-valued
                    # association channel, mirroring build-time wiring.
                    self.graph.add_edge(linked, node, EdgeType.REAL)
                    if self._built:
                        self.queue.push_back(linked.key)
                    else:
                        per_class_nodes.setdefault(
                            dependency.target_class, []
                        ).append(linked)
            if linked is not None:
                self.graph.add_edge(node, linked, EdgeType.STRONG)

    def _wire_weak_edges(self, per_class_nodes) -> None:
        """Bidirectional weak-boolean edges between contact pairs and
        the pairs of references that list them (Figure 2(b))."""
        for dependency in self.domain.weak_dependencies():
            if not self.config.weak_enabled(dependency.class_name):
                continue
            nodes = per_class_nodes.get(dependency.class_name, [])
            inverse: dict[str, set[str]] = {}
            for reference in self.store.of_class(dependency.class_name):
                owner = self._elem(reference.ref_id)
                for attribute in dependency.attrs:
                    for contact_id in reference.get(attribute):
                        inverse.setdefault(self._elem(contact_id), set()).add(owner)
            for node in nodes:
                self._wire_weak_bundle(
                    node, inverse.get(node.left, ()), inverse.get(node.right, ())
                )

    def _wire_weak_bundle(self, node: PairNode, owners_left, owners_right) -> None:
        """Weak edges both ways between contact pair *node* and every
        existing pair node of one owner from each side. A bundle over
        the fan-out ceiling is skipped and counted instead (see
        :meth:`_report_weak_fanout`)."""
        if not owners_left or not owners_right:
            return
        if len(owners_left) * len(owners_right) > _MAX_WEAK_FANOUT:
            self.stats.skipped_weak_fanout += 1
            return
        for owner_l in owners_left:
            for owner_r in owners_right:
                if owner_l == owner_r:
                    continue
                owner_node = self.graph.get(owner_l, owner_r)
                if owner_node is None or owner_node is node:
                    continue
                self.graph.add_edge(node, owner_node, EdgeType.WEAK)
                self.graph.add_edge(owner_node, node, EdgeType.WEAK)

    def _report_weak_fanout(self, skipped: int) -> None:
        """Record a ``weak_fanout`` degradation for *skipped* bundles."""
        if skipped:
            self._degrade(
                DegradationEvent(
                    kind="weak_fanout",
                    detail=(
                        f"skipped {skipped} weak-edge bundles over the "
                        f"{_MAX_WEAK_FANOUT} fan-out ceiling"
                    ),
                )
            )

    def _install_distinct_pairs(self, references: Iterable[Reference]) -> None:
        """§3.4 modification 1: non-merge nodes and enemy constraints
        for pairs of *references* known distinct a priori."""
        for left, right in self.domain.distinct_pairs(references):
            element_l = self._elem(left)
            element_r = self._elem(right)
            if element_l == element_r:
                continue  # extraction noise: key-premerged "distinct" pair
            try:
                self.uf.add_enemy(element_l, element_r)
            except ConstraintViolation:
                continue
            self.stats.constraint_pairs += 1
            node = self.graph.get(element_l, element_r)
            if node is not None:
                node.status = NodeStatus.NON_MERGE
                self.queue.discard(node.key)

    # ------------------------------------------------------------------
    # iterate
    # ------------------------------------------------------------------
    def run(self, *, guard=None, checkpointer=None) -> ReconciliationResult:
        """Execute the full algorithm and return the partition.

        ``guard`` is an optional :class:`~repro.runtime.guards.RunGuard`,
        the one way a run stops before its fixpoint: its deadline is
        anchored before the build and it is checked once per iteration;
        a trip ends the run gracefully with ``completed=False`` and the
        trip's reason. ``checkpointer`` (a
        :class:`~repro.runtime.checkpoint.Checkpointer`) periodically
        serialises the full engine state so a killed run can continue
        via :meth:`resume`. An exception raised by a subscriber's step
        callback propagates (the fault-injection seam: a simulated crash).
        """
        if guard is not None:
            guard.start()
        if not self._built:
            self.build()
        started = time.perf_counter()
        self.stop_reason = "converged"
        self.observers.phase_begin(self, "iterate", queued=len(self.queue))
        # Always leave at least one checkpoint behind, even if the run
        # dies on its very first step.
        if checkpointer is not None and checkpointer.maybe_save(self, 0) is not None:
            self.observers.event("info", "checkpoint_saved", step=0)
        step = self._iterate_loop(guard=guard, checkpointer=checkpointer)
        if self._convergence is not None:
            self._sample_convergence(final=True)
        self.stats.iterate_seconds += time.perf_counter() - started
        self.stats.queue_front_pushes = self.queue.pushed_front
        self.stats.queue_back_pushes = self.queue.pushed_back
        self.stats.queue_compactions = self.queue.compactions
        self.stats.fusions = self.graph.fusions
        self._sync_feature_cache_stats()
        self.observers.phase_end(
            self,
            "iterate",
            stop_reason=self.stop_reason,
            steps=step,
            seconds=round(self.stats.iterate_seconds, 6),
            merges=self.stats.merges,
            non_merges=self.stats.non_merges,
        )
        return self._result()

    def _iterate_loop(self, *, guard, checkpointer) -> int:
        """The §3.2 pop/process loop. Returns the number of steps."""
        step = 0
        while self.queue:
            if self._convergence is not None:
                self._sample_convergence()
            if guard is not None:
                event = guard.check(
                    recomputations=self.stats.recomputations,
                    queue_size=len(self.queue),
                )
                if event is not None:
                    self.stop_reason = event.kind
                    self._degrade(event)
                    break
            self.observers.step(self, step)
            key = self.queue.pop()
            node = self.graph.get_key(key)
            if node is None or node.status is not NodeStatus.ACTIVE:
                continue
            node.status = NodeStatus.INACTIVE
            self._process(node)
            step += 1
            if checkpointer is not None and checkpointer.maybe_save(self, step) is not None:
                self.observers.event("info", "checkpoint_saved", step=step)
        return step

    @classmethod
    def resume(
        cls,
        path: str | Path,
        *,
        store: ReferenceStore,
        domain: DomainModel,
        config: EngineConfig | None = None,
        observers: Iterable[Observer] | None = None,
    ) -> "Reconciler":
        """Rebuild an engine from a checkpoint written during a run.

        *store*, *domain* and *config* must match the original run (the
        checkpoint carries a configuration fingerprint and refuses a
        mismatch). Calling :meth:`run` on the returned engine continues
        from the checkpointed step and — because iteration is
        deterministic — converges to the same partition an
        uninterrupted run would have produced. Subscribers are fresh
        runtime state, never part of the checkpoint: file-backed sinks
        open in append mode, so the continued run extends the original
        run's event log and audit trail coherently.
        """
        from ..runtime.checkpoint import load_checkpoint, restore_engine

        engine = cls(store, domain, config, observers=observers)
        restore_engine(engine, load_checkpoint(path))
        engine.observers.event(
            "info",
            "resume",
            checkpoint=str(path),
            recomputations=engine.stats.recomputations,
            merges=engine.stats.merges,
        )
        return engine

    def _process(self, node: PairNode) -> None:
        """Take the decision for one popped node: score it, then mark,
        merge or defer, propagate, and report the decision."""
        started = time.perf_counter() if self.observers.timing else None
        if self.uf.connected(node.left, node.right):
            node.status = NodeStatus.MERGED
            node.score = 1.0
            self.observers.decision(self, node, "transitive_merge", None, started)
            return
        old_score = node.score
        capture: dict | None = {} if self.observers.evidence else None
        new_score = self._compute(node, capture)
        node.recompute_count += 1
        self.stats.recomputations += 1
        if new_score is None:  # a conflict: mark non-merge (or late merge)
            self._mark_non_merge(node)
            decision = (
                "transitive_merge"
                if node.status is NodeStatus.MERGED
                else "non_merge_conflict"
            )
        else:
            # Monotone by construction; the max() enforces the §3.2
            # termination requirement even for imperfect domain functions.
            node.score = max(old_score, new_score)
            increased = node.score > old_score + _EPSILON
            if node.score >= self.domain.merge_threshold(node.class_name):
                self._merge(node)
                decision = (
                    "merge" if node.status is NodeStatus.MERGED else "non_merge_enemy"
                )
            else:
                if increased and self.config.propagate:
                    for neighbour in self.graph.real_out_nodes(node):
                        self._activate(neighbour, front=False, cause="real", source=node)
                decision = "defer"
        self.observers.decision(self, node, decision, capture, started)

    def _compute(self, node: PairNode, capture: dict | None = None) -> float | None:
        """S = S_rv + S_sb + S_wb (§4); None when marked non-merge.

        *capture*, when given (an observer wants decision evidence), is
        filled with the evidence the decision rested on — channel
        scores, S_rv and the boolean supports actually used — without
        computing anything the plain path would not.
        """
        config = self.config
        domain = self.domain
        left_values = self._element_values(node.left)
        right_values = self._element_values(node.right)
        if config.constraints and domain.conflict(
            node.class_name, left_values, right_values
        ):
            # Pure sentinel: the caller (:meth:`_process`) applies the
            # non-merge marking, so scoring never mutates engine state.
            return None
        evidence: dict[str, float] = {}
        key_match = False
        for channel in domain.atomic_channels(node.class_name):
            if not config.channel_enabled(channel.name):
                continue
            score = node.channel_score(channel.name)
            if score is None:
                continue
            evidence[channel.name] = score
            if channel.is_key and score >= 1.0:
                key_match = True
        for channel in domain.association_channels(node.class_name):
            if not config.channel_enabled(channel.name):
                continue
            score = self._assoc_score(node, channel)
            if score is not None:
                evidence[channel.name] = score
        s_rv = 1.0 if key_match else domain.rv_score(node.class_name, evidence)
        total = s_rv
        strong = weak = 0
        if s_rv >= domain.t_rv(node.class_name) and domain.boolean_evidence_allowed(
            node.class_name, left_values, right_values
        ):
            strong = self._strong_count(node)
            if strong:
                total += domain.beta(node.class_name) * strong
            if config.weak_enabled(node.class_name):
                weak = self._weak_count(node)
                if weak:
                    total += domain.gamma(node.class_name) * weak
        if capture is not None:
            capture.update(channels=evidence, s_rv=s_rv, strong=strong, weak=weak)
        return min(total, 1.0)

    def _assoc_score(self, node: PairNode, channel) -> float | None:
        left_targets = self._element_assoc(node.left, channel.attr)
        right_targets = self._element_assoc(node.right, channel.attr)
        if not left_targets or not right_targets:
            return None
        left_elements = sorted({self._elem(t) for t in left_targets})
        right_elements = sorted({self._elem(t) for t in right_targets})
        scored: list[tuple[float, str, str]] = []
        for element_l in left_elements:
            for element_r in right_elements:
                if self.uf.connected(element_l, element_r):
                    scored.append((1.0, element_l, element_r))
                    continue
                linked = self.graph.get(element_l, element_r)
                if linked is not None and not linked.is_non_merge:
                    score = 1.0 if linked.is_merged else linked.score
                    if score > 0.0:
                        scored.append((score, element_l, element_r))
        if channel.aggregate == "max":
            return max((score for score, _, _ in scored), default=0.0)
        # mean_aligned: greedy one-to-one matching, normalised by the
        # larger link list so missing counterparts count against.
        scored.sort(key=lambda item: (-item[0], item[1], item[2]))
        used_left: set[str] = set()
        used_right: set[str] = set()
        total = 0.0
        for score, element_l, element_r in scored:
            if element_l in used_left or element_r in used_right:
                continue
            used_left.add(element_l)
            used_right.add(element_r)
            total += score
        return total / max(len(left_elements), len(right_elements))

    def _strong_count(self, node: PairNode) -> int:
        """|N_sb|: merged strong-boolean incoming neighbours, counted
        per *entity pair* — several citation-level pair nodes that all
        collapsed into one real-world article (or article pair) are one
        unit of evidence, not many."""
        seen_entity_pairs: set = set()
        for neighbour in self.graph.strong_in_nodes(node):
            if neighbour.is_merged:
                seen_entity_pairs.add(
                    pair_key(self.uf.find(neighbour.left), self.uf.find(neighbour.right))
                )
        return len(seen_entity_pairs)

    def _weak_count(self, node: PairNode) -> int:
        """Number of common contacts (distinct contact entities linked
        from both sides), the |N_wb| of §4."""
        if node.class_name not in self._weak_attrs:
            return 0
        left_roots = self._contact_roots(node.left, node.class_name)
        right_roots = self._contact_roots(node.right, node.class_name)
        if not left_roots or not right_roots:
            return 0
        common = left_roots & right_roots
        if not common:
            return 0
        exclude = {self.uf.find(node.left), self.uf.find(node.right)}
        return len(common - exclude)

    def _mark_non_merge(self, node: PairNode) -> None:
        if self.uf.connected(node.left, node.right):
            # The clusters already merged through another path before
            # the conflict surfaced; negative evidence arrives too late.
            node.status = NodeStatus.MERGED
            node.score = 1.0
            return None
        node.status = NodeStatus.NON_MERGE
        self.stats.non_merges += 1
        try:
            self.uf.add_enemy(node.left, node.right)
        except ConstraintViolation:  # pragma: no cover - guarded above
            pass
        return None

    def _merge(self, node: PairNode) -> None:
        """A reconciliation decision: union, propagate, enrich."""
        if self.uf.are_enemies(node.left, node.right):
            node.status = NodeStatus.NON_MERGE
            self.stats.non_merges += 1
            return
        left_root = self.uf.find(node.left)
        right_root = self.uf.find(node.right)
        survivor = self.uf.union(left_root, right_root)
        if survivor is None:  # pragma: no cover - enemies checked above
            node.status = NodeStatus.NON_MERGE
            return
        absorbed = right_root if survivor == left_root else left_root
        node.status = NodeStatus.MERGED
        self.stats.merges += 1
        if self.config.propagate:
            self._propagate_merge(node)
        if self.config.enrich:
            self._enrich(survivor, absorbed)

    def _propagate_merge(self, node: PairNode) -> None:
        for neighbour in self.graph.strong_out_nodes(node):
            self._activate(
                neighbour,
                front=self.config.strong_to_front,
                cause="strong",
                source=node,
            )
        for neighbour in self.graph.weak_out_nodes(node):
            self._activate(neighbour, front=False, cause="weak", source=node)
        for neighbour in self.graph.real_out_nodes(node):
            self._activate(neighbour, front=False, cause="real", source=node)

    def _activate(
        self,
        node: PairNode,
        *,
        front: bool,
        cause: str = "seed",
        source: PairNode | None = None,
    ) -> None:
        if node.status in (NodeStatus.MERGED, NodeStatus.NON_MERGE):
            return
        if node.score >= 1.0:
            return
        self.observers.activation(node, cause, source)
        node.status = NodeStatus.ACTIVE
        if front:
            self.queue.push_front(node.key)
        else:
            self.queue.push_back(node.key)

    def _enrich(self, survivor: str, absorbed: str) -> None:
        """§3.3: pool cluster state and fuse graph nodes locally."""
        members = self._members.setdefault(survivor, [survivor])
        members.extend(self._members.pop(absorbed, [absorbed]))
        kept = self._values_cache.pop(survivor, None)
        moved = self._values_cache.pop(absorbed, None)
        if kept is not None and moved is not None:
            # The survivor's members come first, so a rescan of them
            # would find its pooled values first, then the absorbed
            # cluster's values it does not have yet, in their order.
            pooled = dict(kept)
            for attribute, values in moved.items():
                present = pooled.get(attribute)
                if present is None:
                    pooled[attribute] = values
                else:
                    extra = tuple(value for value in values if value not in present)
                    if extra:
                        pooled[attribute] = present + extra
            self._values_cache[survivor] = pooled
        report = self.graph.merge_elements(
            survivor, absorbed, same_cluster=self.uf.connected
        )
        for intra_node in report.intra:
            # A pair that closed transitively is a merge decision too:
            # let it propagate like one.
            if self.config.propagate:
                self._propagate_merge(intra_node)
        for fused_node in report.reactivate:
            self.graph.drop_self_references(fused_node)
            self._activate(fused_node, front=False, cause="fusion")

    # ------------------------------------------------------------------
    # result
    # ------------------------------------------------------------------
    def _merge_result_clusters(self, survivor: str, absorbed: str) -> None:
        """Union-find merge hook: fold the absorbed root's cached
        clusters into the survivor's, class by class."""
        clusters = self._result_clusters
        if clusters is None:
            return
        for class_name in self.store.schema.class_names:
            clusters.merge(class_name, survivor, absorbed)

    def _result(self) -> ReconciliationResult:
        clusters = self._result_clusters
        if clusters is None:
            scanned: dict[tuple[str, str], list[str]] = {}
            for reference in self.store:
                root = self.uf.find(reference.ref_id)
                scanned.setdefault((reference.class_name, root), []).append(
                    reference.ref_id
                )
            for members in scanned.values():
                members.sort()
            clusters = _ResultClusters(self.store.schema.class_names)
            for key, members in sorted(
                scanned.items(), key=lambda item: item[1][0]
            ):
                clusters.by_root[key] = members
                clusters.ordered[key[0]].append(members)
            self._result_clusters = clusters
        # Fresh copies: callers may mutate what they are given.
        partitions = {
            class_name: [list(members) for members in ordered]
            for class_name, ordered in clusters.ordered.items()
        }
        return ReconciliationResult(
            partitions=partitions,
            uf=self.uf,
            stats=self.stats,
            completed=self.stop_reason == "converged",
            stop_reason=self.stop_reason,
            degradations=list(self.stats.degradations),
        )
