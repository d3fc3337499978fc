"""Executable reproduction of paper Figure 1 (metadata tree evolution).

The paper's Figure 1 shows three stages of one BLOB's metadata:

  (a) append of four blocks to an empty BLOB;
  (b) overwrite of two blocks (the figure caption says the first two;
      the body text says the second and third — we assert both variants
      behave correctly);
  (c) append of one more block, growing the root.

These tests pin down the exact node set after each stage, including
which subtrees are shared with earlier versions.  They pin runs to span
1, where every write publishes the paper's tree (one leaf per block);
the last class shows the same three stages with run leaves.
"""

import pytest


from repro.blob import (
    BlockDescriptor,
    InnerNode,
    LeafNode,
    NodeKey,
    RunLeaf,
    build_patch,
)
from repro.blob import segment_tree


@pytest.fixture
def paper_tree(monkeypatch):
    monkeypatch.setattr(segment_tree, "RUN_SPAN", 1)


def leaf_maker(version, nonce, start_block):
    def make(index):
        return BlockDescriptor(
            blob_id="fig1",
            version=version,
            index=index,
            size=64,
            providers=("p",),
            nonce=nonce,
            seq=index - start_block,
        )

    return make


def keys(patch):
    return {n.key for n in patch}


@pytest.mark.usefixtures("paper_tree")
class TestFigure1A:
    """(a) Append four blocks to an empty BLOB: a complete 3-level tree."""

    def test_node_set(self):
        patch = build_patch("fig1", 1, 0, 4, 4, history=[], leaf_descriptor=leaf_maker(1, 1, 0))
        assert keys(patch) == {
            NodeKey("fig1", 1, 0, 4),
            NodeKey("fig1", 1, 0, 2),
            NodeKey("fig1", 1, 2, 2),
            NodeKey("fig1", 1, 0, 1),
            NodeKey("fig1", 1, 1, 1),
            NodeKey("fig1", 1, 2, 1),
            NodeKey("fig1", 1, 3, 1),
        }

    def test_all_references_internal(self):
        patch = build_patch("fig1", 1, 0, 4, 4, history=[], leaf_descriptor=leaf_maker(1, 1, 0))
        for node in patch:
            if isinstance(node, InnerNode):
                assert node.left_version == 1
                assert node.right_version in (1, None)


@pytest.mark.usefixtures("paper_tree")
class TestFigure1B:
    """(b) Overwrite: only the touched half is rebuilt, the rest shared."""

    HISTORY = [(1, 0, 4)]

    def test_overwrite_first_two_blocks(self):
        """Figure caption variant: blocks 0-1 rewritten."""
        patch = build_patch(
            "fig1", 2, 0, 2, 4, history=self.HISTORY, leaf_descriptor=leaf_maker(2, 2, 0)
        )
        by_key = {n.key: n for n in patch}
        assert keys(patch) == {
            NodeKey("fig1", 2, 0, 4),
            NodeKey("fig1", 2, 0, 2),
            NodeKey("fig1", 2, 0, 1),
            NodeKey("fig1", 2, 1, 1),
        }
        root = by_key[NodeKey("fig1", 2, 0, 4)]
        # Right subtree of v2 *is* v1's right subtree (shared node).
        assert root.right_key == NodeKey("fig1", 1, 2, 2)

    def test_overwrite_second_and_third_blocks(self):
        """Body-text variant: blocks 1-2 rewritten — spans both halves."""
        patch = build_patch(
            "fig1", 2, 1, 3, 4, history=self.HISTORY, leaf_descriptor=leaf_maker(2, 2, 1)
        )
        by_key = {n.key: n for n in patch}
        assert keys(patch) == {
            NodeKey("fig1", 2, 0, 4),
            NodeKey("fig1", 2, 0, 2),
            NodeKey("fig1", 2, 2, 2),
            NodeKey("fig1", 2, 1, 1),
            NodeKey("fig1", 2, 2, 1),
        }
        left = by_key[NodeKey("fig1", 2, 0, 2)]
        right = by_key[NodeKey("fig1", 2, 2, 2)]
        # Untouched leaves 0 and 3 are shared with version 1.
        assert left.left_key == NodeKey("fig1", 1, 0, 1)
        assert right.right_key == NodeKey("fig1", 1, 3, 1)


@pytest.mark.usefixtures("paper_tree")
class TestFigure1C:
    """(c) Append one block: the root doubles, the old tree hangs intact."""

    def test_append_after_overwrite(self):
        history = [(1, 0, 4), (2, 0, 2)]
        patch = build_patch(
            "fig1", 3, 4, 5, 5, history=history, leaf_descriptor=leaf_maker(3, 3, 4)
        )
        by_key = {n.key: n for n in patch}
        assert keys(patch) == {
            NodeKey("fig1", 3, 0, 8),
            NodeKey("fig1", 3, 4, 4),
            NodeKey("fig1", 3, 4, 2),
            NodeKey("fig1", 3, 4, 1),
        }
        root = by_key[NodeKey("fig1", 3, 0, 8)]
        # Left half of the doubled root is v2's entire tree, shared.
        assert root.left_key == NodeKey("fig1", 2, 0, 4)
        # Right path narrows down to the single new leaf; beyond-EOF
        # subtrees are absent.
        r4 = by_key[NodeKey("fig1", 3, 4, 4)]
        assert r4.right_version is None
        r2 = by_key[NodeKey("fig1", 3, 4, 2)]
        assert r2.right_version is None
        assert isinstance(by_key[NodeKey("fig1", 3, 4, 1)], LeafNode)

    def test_total_metadata_cost_is_logarithmic(self):
        """The whole point of sharing: stage (c) stores 4 nodes, not a
        9-node tree for the 5-block snapshot."""
        history = [(1, 0, 4), (2, 0, 2)]
        patch = build_patch(
            "fig1", 3, 4, 5, 5, history=history, leaf_descriptor=leaf_maker(3, 3, 4)
        )
        assert len(patch) == 4


class TestFigure1WithRunLeaves:
    """The same three stages at the default ``RUN_SPAN``: each write's
    range inside one canonical subtree is one run node."""

    def test_append_four_blocks_is_one_run(self):
        patch = build_patch("fig1", 1, 0, 4, 4, history=[], leaf_descriptor=leaf_maker(1, 1, 0))
        (run,) = patch
        assert isinstance(run, RunLeaf) and run.key == NodeKey("fig1", 1, 0, 4)
        assert [entry.index for entry in run.entries] == [0, 1, 2, 3]

    def test_overwrite_references_the_old_run(self):
        patch = build_patch(
            "fig1", 2, 1, 3, 4, history=[(1, 0, 4)], leaf_descriptor=leaf_maker(2, 2, 1)
        )
        by_key = {n.key: n for n in patch}
        assert keys(patch) == {
            NodeKey("fig1", 2, 0, 4),
            NodeKey("fig1", 2, 0, 2),
            NodeKey("fig1", 2, 2, 2),
            NodeKey("fig1", 2, 1, 1),
            NodeKey("fig1", 2, 2, 1),
        }
        # Untouched blocks 0 and 3 point into v1's run, not at leaves.
        assert by_key[NodeKey("fig1", 2, 0, 2)].left_key == NodeKey("fig1", 1, 0, 4)
        assert by_key[NodeKey("fig1", 2, 2, 2)].right_key == NodeKey("fig1", 1, 0, 4)

    def test_append_one_block_after_overwrite(self):
        patch = build_patch(
            "fig1", 3, 4, 5, 5, history=[(1, 0, 4), (2, 0, 2)],
            leaf_descriptor=leaf_maker(3, 3, 4),
        )
        assert keys(patch) == {
            NodeKey("fig1", 3, 0, 8),
            NodeKey("fig1", 3, 4, 4),
            NodeKey("fig1", 3, 4, 2),
            NodeKey("fig1", 3, 4, 1),
        }
        root = next(n for n in patch if n.key.span == 8)
        assert root.left_key == NodeKey("fig1", 2, 0, 4)
