"""Tests for the blocking index and the active-node queue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocking import BlockingIndex, candidate_pairs
from repro.core.nodes import pair_key
from repro.core.queue import ActiveQueue
from repro.core.references import Reference
from repro.domains import PIM_SCHEMA
from repro.runtime.errors import QueueEmpty


class TestBlockingIndex:
    def test_pairs_within_buckets(self):
        index = BlockingIndex()
        index.add("r1", ["k1"])
        index.add("r2", ["k1", "k2"])
        index.add("r3", ["k2"])
        pairs = list(index.pairs())
        assert ("r1", "r2") in pairs
        assert ("r2", "r3") in pairs
        assert ("r1", "r3") not in pairs

    def test_pairs_deduplicated(self):
        index = BlockingIndex()
        index.add("r1", ["k1", "k2"])
        index.add("r2", ["k1", "k2"])
        assert list(index.pairs()) == [("r1", "r2")]

    def test_oversized_blocks_skipped(self):
        index = BlockingIndex(max_block_size=2)
        for i in range(5):
            index.add(f"r{i}", ["huge"])
        index.add("a", ["small"])
        index.add("b", ["small"])
        pairs = list(index.pairs())
        assert pairs == [("a", "b")]
        assert index.oversized_blocks == 1

    def test_oversized_counter_stable_across_reiterations(self):
        # Regression: oversized_blocks used to be incremented per
        # pairs() call, so iterating twice doubled the count.
        index = BlockingIndex(max_block_size=2)
        for i in range(5):
            index.add(f"r{i}", ["huge"])
        list(index.pairs())
        list(index.pairs())
        list(index.pairs())
        assert index.oversized_blocks == 1

    def test_oversized_counts_distinct_blocks(self):
        index = BlockingIndex(max_block_size=1)
        for i in range(3):
            index.add(f"r{i}", ["big1", "big2"])
        list(index.pairs())
        assert index.oversized_blocks == 2

    def test_duplicate_adds_deduplicated(self):
        index = BlockingIndex()
        index.add("r1", ["k1", "k1"])
        index.add("r1", ["k1"])
        index.add("r2", ["k1"])
        assert list(index.pairs()) == [("r1", "r2")]

    def test_add_and_pairs_incremental(self):
        index = BlockingIndex()
        index.add("r1", ["k1"])
        index.add("r2", ["k2"])
        new_pairs = index.add_and_pairs("r3", ["k1", "k2"])
        assert new_pairs == [pair_key("r1", "r3"), pair_key("r2", "r3")]

    def test_candidate_pairs_helper(self):
        refs = [
            Reference("r1", "Person", {"name": ("A",)}),
            Reference("r2", "Person", {"name": ("A",)}),
        ]
        pairs = candidate_pairs(refs, lambda ref: ref.get("name"))
        assert pairs == [("r1", "r2")]

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 20),
                st.lists(st.sampled_from("abcde"), min_size=1, max_size=3),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=40)
    def test_each_pair_emitted_once(self, entries):
        index = BlockingIndex()
        for i, (ref, keys) in enumerate(entries):
            index.add(f"r{ref}", keys)
        pairs = list(index.pairs())
        assert len(pairs) == len(set(pairs))
        for left, right in pairs:
            assert left < right


class TestActiveQueue:
    def test_fifo(self):
        queue = ActiveQueue([("a", "b"), ("c", "d")])
        assert queue.pop() == ("a", "b")
        assert queue.pop() == ("c", "d")
        assert not queue

    def test_front_push(self):
        queue = ActiveQueue([("a", "b")])
        queue.push_front(("x", "y"))
        assert queue.pop() == ("x", "y")

    def test_membership_no_duplicates(self):
        queue = ActiveQueue()
        assert queue.push_back(("a", "b"))
        assert not queue.push_back(("a", "b"))
        assert not queue.push_front(("a", "b"))
        assert len(queue) == 1

    def test_discard_then_requeue(self):
        queue = ActiveQueue([("a", "b")])
        queue.discard(("a", "b"))
        assert ("a", "b") not in queue
        # A stale entry remains in the deque but membership is gone;
        # re-adding works.
        assert queue.push_back(("a", "b"))

    def test_repushed_key_pops_where_it_was_pushed(self):
        a, b, c = ("a", "a"), ("b", "b"), ("c", "c")
        queue = ActiveQueue([a, b])
        queue.discard(a)
        queue.push_back(a)
        assert queue.snapshot()["entries"] == [list(b), list(a)]
        assert [queue.pop(), queue.pop()] == [b, a]
        queue = ActiveQueue([a, b, c])
        queue.discard(c)
        queue.push_front(c)
        queue.discard(a)
        queue.push_back(a)
        assert queue.snapshot()["entries"] == [list(c), list(b), list(a)]
        assert [queue.pop() for _ in range(3)] == [c, b, a]
        assert not queue and len(queue._deque) == 0

    def test_counters(self):
        queue = ActiveQueue()
        queue.push_back(("a", "b"))
        queue.push_front(("c", "d"))
        assert queue.pushed_back == 1
        assert queue.pushed_front == 1

    @given(
        st.integers(0, 80),
        st.integers(0, 80),
        st.lists(
            st.tuples(
                st.sampled_from(["back", "front", "discard", "pop"]),
                st.integers(0, 80),
            ),
            max_size=300,
        ),
    )
    @settings(max_examples=80)
    def test_truthy_queue_always_pops_a_live_key(self, prefill, cut, ops):
        """The queue pops exactly what a plain list of live keys would:
        a push appends (or prepends) a key not already live, a discard
        removes it, a pop takes the head. So the engine's ``while queue:
        queue.pop()`` never meets an empty deque, and a key discarded
        and pushed again pops where the push put it. Discarding the
        first *cut* of *prefill* keys first makes compactions reachable."""
        queue = ActiveQueue((f"k{i}", f"m{i}") for i in range(prefill))
        model = [(f"k{i}", f"m{i}") for i in range(prefill)]
        for i in range(min(cut, prefill)):
            queue.discard((f"k{i}", f"m{i}"))
            model.remove((f"k{i}", f"m{i}"))
        for op, i in ops:
            key = (f"k{i}", f"m{i}")
            if op == "back":
                queue.push_back(key)
                if key not in model:
                    model.append(key)
            elif op == "front":
                queue.push_front(key)
                if key not in model:
                    model.insert(0, key)
            elif op == "discard":
                queue.discard(key)
                if key in model:
                    model.remove(key)
            elif queue:
                assert queue.pop() == model.pop(0)
            else:
                with pytest.raises(QueueEmpty):
                    queue.pop()
            assert len(queue) == len(model)
            assert bool(queue) == bool(model)
        assert queue.snapshot()["entries"] == [list(key) for key in model]
        popped = []
        while queue:
            popped.append(queue.pop())
        assert popped == model


class TestQueueCompaction:
    """The lazy-discard leak fix: heavy discarding compacts the deque
    instead of accumulating stale slots forever."""

    def test_discard_heavy_queue_compacts(self):
        queue = ActiveQueue((f"k{i}", f"m{i}") for i in range(100))
        for i in range(80):
            queue.discard((f"k{i}", f"m{i}"))
        assert queue.compactions >= 1
        assert len(queue._deque) <= 2 * len(queue._members)
        # Pop order of the survivors is untouched.
        popped = [queue.pop() for _ in range(len(queue))]
        assert popped == [(f"k{i}", f"m{i}") for i in range(80, 100)]

    def test_tiny_queues_never_compact(self):
        queue = ActiveQueue((f"k{i}", f"m{i}") for i in range(10))
        for i in range(10):
            queue.discard((f"k{i}", f"m{i}"))
        assert queue.compactions == 0


def test_pim_blocking_keys_bridge_names_and_emails():
    from repro.domains import PimDomainModel

    domain = PimDomainModel()
    named = Reference("r1", "Person", {"name": ("Stonebraker, M.",)})
    mailed = Reference("r2", "Person", {"email": ("stonebraker@csail.mit.edu",)})
    keys_named = set(domain.blocking_keys(named))
    keys_mailed = set(domain.blocking_keys(mailed))
    assert keys_named & keys_mailed, "cross-attribute blocking must co-block"


def test_pim_blocking_keys_nicknames():
    from repro.domains import PimDomainModel

    domain = PimDomainModel()
    nick = Reference("r1", "Person", {"name": ("mike",)})
    full = Reference("r2", "Person", {"name": ("Michael Stonebraker",)})
    assert set(domain.blocking_keys(nick)) & set(domain.blocking_keys(full))
