"""Incremental reconciliation (the paper's §7 future work, item 1).

When new references arrive after a dataset has been reconciled, a full
re-run wastes all previous work. :class:`IncrementalReconciler` keeps a
live :class:`~repro.core.engine.Reconciler` and folds batches of new
references into it:

* new references are blocked against the retained per-class indexes,
  so candidate pairs form only between new references and their
  bucket-mates (new-vs-old and new-vs-new),
* new pair nodes are scored with enriched cluster values, so a new
  reference immediately benefits from everything already merged,
* only the new nodes enter the queue; propagation then touches exactly
  the region of the graph the new evidence can reach.

Key-value agreement is resolved through the normal key channel (score
1.0 forces a merge) rather than the build-time pre-merge, so no special
casing is needed.

Cost of one :meth:`IncrementalReconciler.add`, for a batch of *b*
references:

* O(b): the store checks (schema, duplicate ids, link targets of the
  batch only), registering the batch in the partition, the member lists
  and the result cache, and appending it to the weak-edge owner index;
* O(touched clusters): blocking the batch into its buckets, scoring the
  new pairs, wiring them (weak-edge owners are read through the members
  of the two clusters a new node joins), and the iterate run, which
  only reaches what the new nodes' evidence propagates to. Each merge
  it makes folds the two clusters' state together at the union: the
  pooled values are the survivor's followed by the absorbed cluster's
  new ones, with no rescan of the members, and the result cache moves
  the merged cluster to its first-member place with a binary search;
* O(clusters): copying the returned partition out of the result cache,
  one list copy per cluster, already in order, so nothing is sorted.

The first add also builds the owner index over the whole store, once.
"""

from __future__ import annotations

from collections.abc import Sequence

from .engine import Reconciler
from .model import DomainModel, EngineConfig, WeakDependency
from .nodes import NodeStatus, PairNode, pair_key
from .references import Reference, ReferenceStore
from .result import ReconciliationResult

__all__ = ["IncrementalReconciler"]


class IncrementalReconciler:
    """Reconcile a base dataset once, then absorb updates cheaply."""

    def __init__(
        self,
        store: ReferenceStore,
        domain: DomainModel,
        config: EngineConfig | None = None,
    ) -> None:
        self._reconciler = Reconciler(store, domain, config)
        self._initialized = False
        # Per enabled weak dependency: contact ref id -> ids of the
        # references listing it. Built over the store by the first add,
        # then extended by each batch (the store only grows).
        self._weak_owners: dict[WeakDependency, dict[str, list[str]]] | None = None

    @property
    def reconciler(self) -> Reconciler:
        return self._reconciler

    @property
    def store(self) -> ReferenceStore:
        return self._reconciler.store

    def initial(self) -> ReconciliationResult:
        """Run the base reconciliation; must be called exactly once."""
        if self._initialized:
            raise RuntimeError("initial() already ran; use add()")
        self._initialized = True
        return self._reconciler.run()

    def add(self, new_references: Sequence[Reference]) -> ReconciliationResult:
        """Fold *new_references* into the reconciled dataset.

        Returns the updated full partition. The batch is checked in full
        before anything changes (unknown class or attribute, duplicate
        ids, dangling or mistyped links): a rejected batch leaves the
        store and the partition as they were. The work done is O(batch)
        plus O(clusters the batch touches), except for copying out the
        returned partition, which is one list copy per cluster with no
        sort; merges fold cluster state together instead of rebuilding
        it. See the module docstring for the breakdown.
        """
        if not self._initialized:
            raise RuntimeError("call initial() before add()")
        engine = self._reconciler
        new_references = engine.store.extend(new_references)
        engine._admit(new_references)
        self._index_weak_owners(new_references)

        new_nodes_by_class: dict[str, list[PairNode]] = {}
        for class_name in engine.domain.class_order():
            incoming = [
                reference
                for reference in new_references
                if reference.class_name == class_name
            ]
            if incoming:
                new_nodes_by_class[class_name] = self._build_new_nodes(
                    class_name, incoming
                )
        skipped = engine.stats.skipped_weak_fanout
        self._wire_new_nodes(new_nodes_by_class)
        engine._report_weak_fanout(engine.stats.skipped_weak_fanout - skipped)
        if engine.config.constraints:
            engine._install_distinct_pairs(new_references)
        for class_name in engine.domain.class_order():
            for node in new_nodes_by_class.get(class_name, ()):
                if node.status is NodeStatus.ACTIVE:
                    engine.queue.push_back(node.key)
        return engine.run()

    # ------------------------------------------------------------------
    def _build_new_nodes(
        self, class_name: str, incoming: Sequence[Reference]
    ) -> list[PairNode]:
        engine = self._reconciler
        index = engine._block_indexes.get(class_name)
        if index is None:
            raise RuntimeError(
                "incremental add requires a built engine with retained "
                "blocking indexes"
            )
        channels = engine.enabled_atomic_channels(class_name)
        nodes: list[PairNode] = []
        seen: set[tuple[str, str]] = set()
        for reference in incoming:
            element = engine._elem(reference.ref_id)
            raw_pairs = index.add_and_pairs(
                element, engine.domain.blocking_keys(reference)
            )
            for left, right in raw_pairs:
                # Index entries may be roots that were absorbed since;
                # resolve to current cluster roots.
                current = pair_key(engine.uf.find(left), engine.uf.find(right))
                if current[0] == current[1] or current in seen:
                    continue
                seen.add(current)
                engine.stats.candidate_pairs += 1
                existing = engine.graph.get_key(current)
                if existing is not None:
                    # The new reference hit a pre-existing pair (both
                    # sides already known): refresh handled elsewhere.
                    continue
                node = engine._make_pair_node(
                    class_name, current[0], current[1], channels
                )
                if node is not None:
                    nodes.append(node)
        return nodes

    def _wire_new_nodes(
        self, new_nodes_by_class: dict[str, list[PairNode]]
    ) -> None:
        """The build's association/strong wiring, then weak wiring,
        for the new nodes only."""
        self._reconciler._wire_association_edges(new_nodes_by_class)
        self._wire_new_weak_edges(new_nodes_by_class)

    def _index_weak_owners(self, new_references: Sequence[Reference]) -> None:
        """Bring the weak-edge owner index up to date with the store."""
        engine = self._reconciler
        if self._weak_owners is None:
            self._weak_owners = {
                dependency: {}
                for dependency in engine.domain.weak_dependencies()
                if engine.config.weak_enabled(dependency.class_name)
            }
            new_references = list(engine.store)  # the batch is in it already
        for dependency, owners in self._weak_owners.items():
            for reference in new_references:
                if reference.class_name != dependency.class_name:
                    continue
                for attribute in dependency.attrs:
                    for contact_id in reference.get(attribute):
                        owners.setdefault(contact_id, []).append(reference.ref_id)

    def _wire_new_weak_edges(
        self, new_nodes_by_class: dict[str, list[PairNode]]
    ) -> None:
        """The build's weak wiring for new nodes only. The build inverts
        the whole class into ``element(contact) -> {element(owner)}``;
        here each side's owner set is gathered from the index through
        the members of that side's cluster, which gives the same sets."""
        engine = self._reconciler
        for dependency, owners in self._weak_owners.items():
            for node in new_nodes_by_class.get(dependency.class_name, ()):
                engine._wire_weak_bundle(
                    node,
                    self._owner_elements(owners, node.left),
                    self._owner_elements(owners, node.right),
                )

    def _owner_elements(
        self, owners: dict[str, list[str]], element: str
    ) -> set[str]:
        """Elements of the references that list a member of *element*'s
        cluster (just *element* itself without enrichment) as a contact."""
        engine = self._reconciler
        if engine.config.enrich:
            members = engine._members.get(element) or (element,)
        else:
            members = (element,)
        return {
            engine._elem(owner)
            for member in members
            for owner in owners.get(member, ())
        }
