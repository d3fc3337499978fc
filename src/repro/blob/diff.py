"""Snapshot differencing over the versioned segment tree.

Because every tree node is labelled with the snapshot version that
created it, two snapshots of a BLOB can be compared **without reading
any data**: descend both trees in lockstep and prune every subtree
whose two sides carry the same node key — identical keys mean the
entire range is shared, bit for bit.  The cost is proportional to the
*changed* region (times log of the BLOB size), not to the BLOB.

This is the machinery behind "datasets are only locally altered from
one Map/Reduce pass to another" (§VI-A): a consumer can ask exactly
which block ranges pass N+1 touched and reprocess only those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.blob.block import AnyBlockDescriptor
from repro.blob.segment_tree import (
    InnerNode,
    NodeKey,
    RedirectLeaf,
    TreeNode,
    clipped_entries,
)
from repro.blob.store import LocalBlobStore

__all__ = ["BlockRange", "diff_snapshots", "changed_ranges"]


@dataclass(frozen=True)
class BlockRange:
    """A maximal run of changed blocks, in block units."""

    start: int
    end: int  # exclusive

    @property
    def blocks(self) -> int:
        """Number of blocks covered."""
        return self.end - self.start

    def to_bytes(self, block_size: int, total_size: int) -> tuple[int, int]:
        """Byte interval ``(offset, length)`` clipped to the BLOB size."""
        offset = self.start * block_size
        length = min(self.end * block_size, total_size) - offset
        return offset, length


def _coalesce(blocks: list[int]) -> list[BlockRange]:
    """Merge sorted block indices into maximal ranges."""
    ranges: list[BlockRange] = []
    for index in blocks:
        if ranges and ranges[-1].end == index:
            ranges[-1] = BlockRange(ranges[-1].start, index + 1)
        else:
            ranges.append(BlockRange(index, index + 1))
    return ranges


def diff_snapshots(
    fetch: Callable[[NodeKey], TreeNode],
    key_a: Optional[NodeKey],
    key_b: Optional[NodeKey],
    resolver: Optional[Callable[[NodeKey], NodeKey]] = None,
) -> list[int]:
    """Block indices whose content differs between two subtrees.

    ``None`` on either side means the range does not exist there (size
    difference); every block present on the other side counts as
    changed.  The two trees are walked position by position; a position
    whose two references resolve to the same key is pruned without
    being visited — the sharing-makes-diff-cheap property.  A reference
    into a run covers only the position it entered, so a run partly
    overwritten on one side differs exactly at the overwritten blocks.
    *resolver* maps keys across branch lineages (see
    ``LocalBlobStore.key_resolver``).
    """
    resolve = resolver if resolver is not None else (lambda k: k)
    changed: list[int] = []
    nodes: dict[NodeKey, TreeNode] = {}

    def node_of(key: NodeKey) -> TreeNode:
        key = resolve(key)
        if key not in nodes:
            nodes[key] = fetch(key)
        return nodes[key]

    def block_at(key: NodeKey, index: int) -> AnyBlockDescriptor:
        """The descriptor of block *index* under *key*, following
        references and tombstone redirects down to it."""
        node = node_of(key)
        while True:
            if isinstance(node, InnerNode):
                mid = node.key.offset + node.half
                key = node.left_key if index < mid else node.right_key
            elif isinstance(node, RedirectLeaf):
                key = node.target_key
            else:
                (entry,) = clipped_entries(node, index, index + 1)
                if type(entry) is not NodeKey:
                    return entry
                key = entry
            node = node_of(key)

    def halves(key: Optional[NodeKey], offset: int, span: int):
        """The references covering the two halves of a position."""
        if key is None:
            return None, None
        if key.span < span:
            # The smaller snapshot's root under the bigger one's: it
            # fills the left half, nothing exists to its right.
            return key, None
        node = node_of(key)
        if isinstance(node, InnerNode) and key.span == span:
            return node.left_key, node.right_key
        return key, key  # a run covering the whole position

    def walk(a: Optional[NodeKey], b: Optional[NodeKey], offset: int, span: int) -> None:
        if a is None and b is None:
            return
        if a is not None and b is not None and resolve(a) == resolve(b):
            return  # identical shared node: nothing changed inside
        if span == 1:
            # Size disambiguates zero blocks, whose block_id is always
            # None; for stored blocks same id implies same size.
            block_a = block_at(a, offset) if a is not None else None
            block_b = block_at(b, offset) if b is not None else None
            if (
                block_a is None
                or block_b is None
                or (block_a.block_id, block_a.size) != (block_b.block_id, block_b.size)
            ):
                changed.append(offset)
            return
        half = span // 2
        a_left, a_right = halves(a, offset, span)
        b_left, b_right = halves(b, offset, span)
        walk(a_left, b_left, offset, half)
        walk(a_right, b_right, offset + half, half)

    roots = [key for key in (key_a, key_b) if key is not None]
    if roots:
        walk(key_a, key_b, 0, max(key.span for key in roots))
    return changed


def changed_ranges(
    store: LocalBlobStore,
    blob_id: str,
    version_a: int,
    version_b: int,
    blob_b: Optional[str] = None,
) -> list[BlockRange]:
    """Changed block ranges between two published snapshots.

    Compares ``(blob_id, version_a)`` against ``(blob_b or blob_id,
    version_b)`` — the second form diffs across a branch and its
    ancestor.  Blocks beyond the shorter snapshot's end count as
    changed.  Ranges are coalesced and sorted.
    """
    other = blob_b if blob_b is not None else blob_id
    info_a = store.snapshot(blob_id, version_a)
    info_b = store.snapshot(other, version_b)
    resolver = store.key_resolver()

    def root_of(owner: str, info) -> Optional[NodeKey]:
        if info.size == 0:
            return None
        return NodeKey(owner, info.version, 0, info.root_span)

    blocks = diff_snapshots(
        store.metadata.get_node,
        root_of(blob_id, info_a),
        root_of(other, info_b),
        resolver,
    )
    return _coalesce(blocks)
