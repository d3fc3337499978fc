"""Tests for the versioned segment tree: keys, weaving, descent."""

import pytest

from repro.blob import (
    BlockDescriptor,
    DescentPlan,
    InnerNode,
    LeafNode,
    NodeKey,
    build_patch,
    collect_blocks_batched,
    latest_intersecting,
    root_span,
)
from repro.blob import segment_tree
from repro.errors import BlobError, InvalidRange


@pytest.fixture
def paper_tree(monkeypatch):
    """Runs of span 1: every write publishes the paper's tree (one leaf
    per block), the shape these weaving and descent tests pin down.
    Run leaves have their own tests in ``test_run_leaves.py``."""
    monkeypatch.setattr(segment_tree, "RUN_SPAN", 1)


def desc(index, version=1, nonce=1):
    return BlockDescriptor(
        blob_id="b",
        version=version,
        index=index,
        size=64,
        providers=("p",),
        nonce=nonce,
        seq=index,
    )


class TestNodeKey:
    def test_valid(self):
        k = NodeKey("b", 1, 4, 4)
        assert (k.offset, k.end) == (4, 8)

    def test_span_power_of_two(self):
        with pytest.raises(ValueError):
            NodeKey("b", 1, 0, 3)
        with pytest.raises(ValueError):
            NodeKey("b", 1, 0, 0)

    def test_offset_alignment(self):
        with pytest.raises(ValueError):
            NodeKey("b", 1, 2, 4)

    def test_version_at_least_one(self):
        with pytest.raises(ValueError):
            NodeKey("b", 0, 0, 1)


class TestNodeShapes:
    def test_leaf_span_must_be_one(self):
        with pytest.raises(ValueError):
            LeafNode(key=NodeKey("b", 1, 0, 2), block=desc(0))

    def test_leaf_offset_matches_block_index(self):
        with pytest.raises(ValueError):
            LeafNode(key=NodeKey("b", 1, 0, 1), block=desc(3))

    def test_inner_children_keys(self):
        node = InnerNode(key=NodeKey("b", 3, 0, 4), left_version=2, right_version=3)
        assert node.left_key == NodeKey("b", 2, 0, 2)
        assert node.right_key == NodeKey("b", 3, 2, 2)

    def test_inner_absent_right(self):
        node = InnerNode(key=NodeKey("b", 1, 0, 4), left_version=1, right_version=None)
        assert node.right_key is None
        assert node.left_key == NodeKey("b", 1, 0, 2)

    def test_right_without_left_rejected(self):
        with pytest.raises(ValueError):
            InnerNode(key=NodeKey("b", 1, 0, 2), left_version=None, right_version=1)

    def test_absent_child_cannot_be_covered(self):
        key = NodeKey("b", 1, 0, 4)
        with pytest.raises(ValueError, match="cannot be covered"):
            InnerNode(key=key, left_version=1, right_version=None, right_covered=True)
        with pytest.raises(ValueError, match="cannot be covered"):
            InnerNode(key=key, left_version=None, right_version=None, left_covered=True)
        assert InnerNode(key=key, left_version=1, right_version=None, left_covered=True)


class TestRootSpan:
    @pytest.mark.parametrize(
        "blocks,span", [(0, 1), (1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (246, 256)]
    )
    def test_values(self, blocks, span):
        assert root_span(blocks) == span

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            root_span(-1)


class TestLatestIntersecting:
    HISTORY = [(1, 0, 4), (2, 0, 2), (3, 4, 5)]

    def test_picks_highest_intersecting(self):
        assert latest_intersecting(self.HISTORY, 0, 2, at_most=3) == (2, 0, 2)
        assert latest_intersecting(self.HISTORY, 2, 4, at_most=3) == (1, 0, 4)
        assert latest_intersecting(self.HISTORY, 4, 5, at_most=3) == (3, 4, 5)

    def test_at_most_excludes_future(self):
        assert latest_intersecting(self.HISTORY, 0, 2, at_most=1) == (1, 0, 4)

    def test_none_when_uncovered(self):
        assert latest_intersecting(self.HISTORY, 8, 16, at_most=3) is None


@pytest.mark.usefixtures("paper_tree")
class TestBuildPatch:
    def test_initial_write_four_blocks(self):
        patch = build_patch("b", 1, 0, 4, 4, history=[], leaf_descriptor=desc)
        by_key = {n.key: n for n in patch}
        # 4 leaves + root: both halves lie inside the write, so no
        # walker enters them at their keys and they are not published.
        assert len(patch) == 5
        root = by_key[NodeKey("b", 1, 0, 4)]
        assert isinstance(root, InnerNode)
        assert root.left_version == 1 and root.right_version == 1
        assert root.left_covered and root.right_covered
        for i in range(4):
            leaf = by_key[NodeKey("b", 1, i, 1)]
            assert isinstance(leaf, LeafNode) and leaf.block.index == i

    def test_children_emitted_before_parents(self):
        patch = build_patch("b", 1, 0, 4, 4, history=[], leaf_descriptor=desc)
        seen = set()
        for node in patch:
            for child, _, _ in segment_tree._references(node, node.key.offset, node.key.end):
                assert child in seen
            seen.add(node.key)
        assert patch[-1].key.span == 4  # root last

    def test_partial_overwrite_shares_subtree(self):
        patch = build_patch(
            "b", 2, 0, 2, 4,
            history=[(1, 0, 4)],
            leaf_descriptor=lambda i: desc(i, version=2, nonce=2),
        )
        by_key = {n.key: n for n in patch}
        root = by_key[NodeKey("b", 2, 0, 4)]
        assert root.left_version == 2
        assert root.right_version == 1  # untouched half references v1
        assert NodeKey("b", 2, 2, 2) not in by_key  # nothing rebuilt there
        # The left half lies inside the write: entered at its leaves.
        assert root.left_covered and NodeKey("b", 2, 0, 2) not in by_key
        assert len(patch) == 3  # 2 leaves + root

    def test_append_grows_root(self):
        patch = build_patch(
            "b", 2, 4, 5, 5,
            history=[(1, 0, 4)],
            leaf_descriptor=lambda i: desc(i, version=2, nonce=2),
        )
        by_key = {n.key: n for n in patch}
        root = by_key[NodeKey("b", 2, 0, 8)]
        assert root.left_version == 1  # old root shared wholesale
        assert root.right_version == 2
        right = by_key[NodeKey("b", 2, 4, 4)]
        assert right.left_version == 2 and right.right_version is None
        deeper = by_key[NodeKey("b", 2, 4, 2)]
        assert deeper.left_version == 2 and deeper.right_version is None
        assert isinstance(by_key[NodeKey("b", 2, 4, 1)], LeafNode)

    def test_empty_write_rejected(self):
        with pytest.raises(InvalidRange):
            build_patch("b", 1, 2, 2, 4, history=[], leaf_descriptor=desc)

    def test_write_beyond_size_rejected(self):
        with pytest.raises(InvalidRange):
            build_patch("b", 1, 0, 5, 4, history=[], leaf_descriptor=desc)

    def test_concurrent_writer_prediction(self):
        """v3 references v2's metadata purely from history hints, even
        though v2's nodes may not be stored yet (§III-D)."""
        patch = build_patch(
            "b", 3, 2, 4, 4,
            history=[(1, 0, 4), (2, 0, 2)],
            leaf_descriptor=lambda i: desc(i, version=3, nonce=3),
        )
        by_key = {n.key: n for n in patch}
        root = by_key[NodeKey("b", 3, 0, 4)]
        assert root.left_version == 2  # predicted from hints alone
        assert root.right_version == 3


class FakeMetadata:
    def __init__(self):
        self.nodes = {}
        self.fetches = 0

    def put(self, patch):
        for node in patch:
            self.nodes[node.key] = node

    def get(self, key):
        self.fetches += 1
        return self.nodes[key]

    def get_many(self, keys):
        return {key: self.get(key) for key in keys}


@pytest.mark.usefixtures("paper_tree")
class TestDescent:
    def _store_versions(self):
        md = FakeMetadata()
        md.put(build_patch("b", 1, 0, 4, 4, history=[], leaf_descriptor=desc))
        md.put(
            build_patch(
                "b", 2, 1, 3, 4,
                history=[(1, 0, 4)],
                leaf_descriptor=lambda i: desc(i, version=2, nonce=2),
            )
        )
        return md

    def test_collect_full_range_latest(self):
        md = self._store_versions()
        blocks = collect_blocks_batched(md.get_many, NodeKey("b", 2, 0, 4), 0, 4)
        assert [b.index for b in blocks] == [0, 1, 2, 3]
        assert [b.version for b in blocks] == [1, 2, 2, 1]

    def test_collect_old_version_untouched(self):
        md = self._store_versions()
        blocks = collect_blocks_batched(md.get_many, NodeKey("b", 1, 0, 4), 0, 4)
        assert [b.version for b in blocks] == [1, 1, 1, 1]

    def test_collect_subrange_prunes_fetches(self):
        md = self._store_versions()
        before = md.fetches
        blocks = collect_blocks_batched(md.get_many, NodeKey("b", 2, 0, 4), 3, 4)
        assert [b.index for b in blocks] == [3]
        # root + right inner + one leaf = 3 fetches, not the whole tree
        assert md.fetches - before == 3

    def test_empty_range(self):
        md = self._store_versions()
        assert collect_blocks_batched(md.get_many, NodeKey("b", 2, 0, 4), 2, 2) == []

    def test_plan_rejects_out_of_root(self):
        with pytest.raises(InvalidRange):
            DescentPlan(NodeKey("b", 1, 0, 4), 0, 5)

    def test_plan_rejects_bad_range(self):
        with pytest.raises(InvalidRange):
            DescentPlan(NodeKey("b", 1, 0, 4), 3, 2)

    def test_plan_feed_unrequested_rejected(self):
        md = self._store_versions()
        plan = DescentPlan(NodeKey("b", 1, 0, 4), 0, 4)
        key = NodeKey("b", 1, 0, 1)
        with pytest.raises(BlobError):
            plan.feed(key, md.get(key))

    def test_plan_feed_mismatched_node_rejected(self):
        md = self._store_versions()
        plan = DescentPlan(NodeKey("b", 1, 0, 4), 0, 4)
        (root_key,) = plan.take_frontier()
        with pytest.raises(BlobError):
            plan.feed(root_key, md.get(NodeKey("b", 2, 0, 4)))

    def test_plan_blocks_before_done_rejected(self):
        plan = DescentPlan(NodeKey("b", 1, 0, 4), 0, 4)
        with pytest.raises(BlobError):
            plan.blocks()

    @staticmethod
    def _level_sizes(md, root):
        plan = DescentPlan(root, 0, root.span)
        level_sizes = []
        while not plan.done:
            frontier = plan.take_frontier()
            level_sizes.append(len(frontier))
            for key in frontier:
                plan.feed(key, md.get(key))
        return level_sizes

    def test_frontier_is_levelwise(self):
        """A full-range descent fetches one tree level per frontier, and
        jumps from a reference covered by one write straight to that
        write's runs: v1 wrote [0, 4) whole, so the root's covered
        children are entered at their leaves."""
        md = self._store_versions()
        level_sizes = self._level_sizes(md, NodeKey("b", 1, 0, 4))
        assert level_sizes == [1, 4]
        assert len(level_sizes) <= len([1, 2, 4])  # the level-by-level descent
        assert sum(level_sizes) <= sum([1, 2, 4])

    def test_frontier_is_levelwise_without_covered_references(self):
        """v2 wrote [1, 3): neither child of its root lies inside its
        write, so the descent walks every level."""
        md = self._store_versions()
        root = md.get(NodeKey("b", 2, 0, 4))
        assert not (root.left_covered or root.right_covered)
        assert self._level_sizes(md, root.key) == [1, 2, 4]


@pytest.mark.usefixtures("paper_tree")
class TestTombstonePatch:
    """Filler patches for aborted versions (DESIGN.md §7)."""

    BS = 16

    def build(self, version, start, end, size_after, prior_size, history):
        from repro.blob import build_tombstone_patch

        return build_tombstone_patch(
            blob_id="b",
            version=version,
            write_start=start,
            write_end=end,
            size_after=size_after,
            prior_size=prior_size,
            block_size=self.BS,
            history=history,
        )

    def test_created_range_becomes_zero_leaves(self):
        # v1 died appending 4 blocks into an empty BLOB.
        nodes = self.build(1, 0, 4, 4 * self.BS, 0, ())
        leaves = [n for n in nodes if isinstance(n, LeafNode)]
        assert len(leaves) == 4
        for leaf in leaves:
            assert leaf.block.is_zero and leaf.block.size == self.BS
            assert leaf.block.block_id is None and leaf.block.providers == ()

    def test_overwritten_range_becomes_redirects(self):
        from repro.blob import RedirectLeaf

        # v2 died rewriting blocks [1, 3) of a 4-block BLOB written by v1.
        nodes = self.build(2, 1, 3, 4 * self.BS, 4 * self.BS, ((1, 0, 4),))
        redirects = {n.key.offset: n for n in nodes if isinstance(n, RedirectLeaf)}
        assert sorted(redirects) == [1, 2]
        assert all(r.target_version == 1 for r in redirects.values())
        assert redirects[1].target_key == NodeKey("b", 1, 1, 1)
        # Ranges outside the dead write are woven references, as usual.
        root = next(n for n in nodes if n.key.span == 4)
        assert isinstance(root, InnerNode)

    def test_extended_partial_block_zero_fills_whole_block(self):
        # v1 left a 4-byte trailing partial in block 1 (size 20); the
        # dead v2 extended that block.  Block-granularity sharing cannot
        # express "old 4 bytes + zeros", so the tombstone defines the
        # whole block as zeros.
        nodes = self.build(2, 1, 2, 2 * self.BS, 20, ((1, 0, 2),))
        leaf = next(n for n in nodes if n.key == NodeKey("b", 2, 1, 1))
        assert isinstance(leaf, LeafNode) and leaf.block.is_zero
        assert leaf.block.size == self.BS

    def test_exact_partial_rewrite_redirects(self):
        from repro.blob import RedirectLeaf

        # Dead v2 rewrote the trailing partial exactly (sizes match):
        # the prior leaf serves the tombstone's content byte-for-byte.
        nodes = self.build(2, 1, 2, 20, 20, ((1, 0, 2),))
        leaf = next(n for n in nodes if n.key == NodeKey("b", 2, 1, 1))
        assert isinstance(leaf, RedirectLeaf) and leaf.target_version == 1

    def test_filler_occupies_exactly_the_real_patch_keys(self):
        """Later writers reference the dead version's canonical nodes;
        the filler must shadow the real patch key-for-key."""
        history = ((1, 0, 4),)
        real = build_patch(
            blob_id="b",
            version=2,
            write_start=2,
            write_end=6,
            size_after_blocks=6,
            history=history,
            leaf_descriptor=lambda i: desc(i, version=2, nonce=9),
        )
        filler = self.build(2, 2, 6, 6 * self.BS, 4 * self.BS, history)
        assert {n.key for n in filler} == {n.key for n in real}

    def test_redirect_validation(self):
        from repro.blob import RedirectLeaf

        with pytest.raises(ValueError):
            RedirectLeaf(key=NodeKey("b", 2, 0, 2), target_version=1)  # span != 1
        with pytest.raises(ValueError):
            RedirectLeaf(key=NodeKey("b", 2, 0, 1), target_version=2)  # not older
        with pytest.raises(ValueError):
            RedirectLeaf(key=NodeKey("b", 2, 0, 1), target_version=0)

    def test_descent_follows_redirect_chains(self):
        """A redirect into an older tombstone's redirect terminates at
        the oldest real leaf."""
        from repro.blob import RedirectLeaf, ZeroBlockDescriptor

        store = {}

        def put(node):
            store[node.key] = node

        put(LeafNode(key=NodeKey("b", 1, 0, 1), block=desc(0)))
        put(RedirectLeaf(key=NodeKey("b", 2, 0, 1), target_version=1))
        put(RedirectLeaf(key=NodeKey("b", 3, 0, 1), target_version=2))
        blocks = collect_blocks_batched(lambda keys: {k: store[k] for k in keys}, NodeKey("b", 3, 0, 1), 0, 1)
        assert blocks == [desc(0)]
        # Zero leaves terminate a chain too.
        put(
            LeafNode(
                key=NodeKey("b", 4, 1, 1),
                block=ZeroBlockDescriptor(blob_id="b", version=4, index=1, size=8),
            )
        )
        put(RedirectLeaf(key=NodeKey("b", 5, 1, 1), target_version=4))
        [zero] = collect_blocks_batched(lambda keys: {k: store[k] for k in keys}, NodeKey("b", 5, 1, 1), 1, 2)
        assert zero.is_zero and zero.size == 8

    def test_zero_descriptor_validation(self):
        from repro.blob import ZeroBlockDescriptor

        with pytest.raises(ValueError):
            ZeroBlockDescriptor(blob_id="b", version=0, index=0, size=8)
        with pytest.raises(ValueError):
            ZeroBlockDescriptor(blob_id="b", version=1, index=-1, size=8)
        with pytest.raises(ValueError):
            ZeroBlockDescriptor(blob_id="b", version=1, index=0, size=0)
        with pytest.raises(ValueError):
            ZeroBlockDescriptor(blob_id="b", version=1, index=0, size=8, providers=("p",))
