"""Snapshot differencing over the versioned segment tree.

Because every tree node is labelled with the snapshot version that
created it, two snapshots of a BLOB can be compared **without reading
any data**: descend both trees a level per batched round, by the
references a read follows, and prune every range whose two sides carry
the same node key — identical keys mean the entire range is shared,
bit for bit.  The cost is proportional to the *changed* region (times
log of the BLOB size), not to the BLOB.

This is the machinery behind "datasets are only locally altered from
one Map/Reduce pass to another" (§VI-A): a consumer can ask exactly
which block ranges pass N+1 touched and reprocess only those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

from repro.blob.block import AnyBlockDescriptor
from repro.blob.segment_tree import NodeKey, TreeNode, _references, clipped_entries
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


#: A node entered over blocks [lo, hi), or block lo's descriptor.
_Piece = tuple[int, int, Union[NodeKey, AnyBlockDescriptor]]


def _segments(
    a: list[_Piece], b: list[_Piece]
) -> Iterator[tuple[int, int, Optional[_Piece], Optional[_Piece]]]:
    """Split two sorted, disjoint piece lists at every piece boundary:
    each block range either side covers, with each side's piece over it
    (``None`` where that side has none)."""
    cuts = sorted({bound for lo, hi, _ in a + b for bound in (lo, hi)})
    i = j = 0
    for lo, hi in zip(cuts, cuts[1:]):
        while i < len(a) and a[i][1] <= lo:
            i += 1
        while j < len(b) and b[j][1] <= lo:
            j += 1
        pa = a[i] if i < len(a) and a[i][0] <= lo else None
        pb = b[j] if j < len(b) and b[j][0] <= lo else None
        if pa is not None or pb is not None:
            yield lo, hi, pa, pb


def _add(pieces: list[_Piece], lo: int, hi: int, ref) -> None:
    """Append a piece, merging it into the last one it continues."""
    if pieces and pieces[-1][1] == lo and pieces[-1][2] == ref:
        pieces[-1] = (pieces[-1][0], hi, ref)
    else:
        pieces.append((lo, hi, ref))


def diff_snapshots(
    fetch_many: Callable[[list[NodeKey]], dict[NodeKey, TreeNode]],
    side_a: Sequence[tuple[NodeKey, int, int]],
    side_b: Sequence[tuple[NodeKey, int, int]],
    resolver: Optional[Callable[[NodeKey], NodeKey]] = None,
) -> list[int]:
    """Sorted block indices whose content differs between two sides,
    each a list of ``(key, lo, hi)`` pieces: a snapshot is its root over
    ``[0, size in blocks)``, an empty one no piece.

    Blocks only one side covers count as changed.  An overlap whose two
    keys resolve equal is pruned unfetched.  Elsewhere the wider piece
    (both, if equally wide) is expanded through ``_references`` and
    :func:`clipped_entries`, all of a level in one *fetch_many* batch;
    blocks compare by ``(block_id, size)`` (zero blocks have no id).
    *resolver* maps keys across branch lineages.
    """
    resolve = resolver if resolver is not None else (lambda k: k)
    a: list[_Piece] = [(lo, hi, key) for key, lo, hi in side_a]
    b: list[_Piece] = [(lo, hi, key) for key, lo, hi in side_b]
    changed: list[int] = []
    while a or b:
        sides = ([], []), ([], [])  # per side: (kept, to expand)
        for lo, hi, pa, pb in _segments(a, b):
            if pa is None or pb is None:
                changed.extend(range(lo, hi))
                continue
            ref_a, ref_b = pa[2], pb[2]
            node_a, node_b = type(ref_a) is NodeKey, type(ref_b) is NodeKey
            if not (node_a or node_b):
                if (ref_a.block_id, ref_a.size) != (ref_b.block_id, ref_b.size):
                    changed.append(lo)
                continue
            if node_a and node_b and resolve(ref_a) == resolve(ref_b):
                continue  # identical shared node: nothing changed inside
            width_a = pa[1] - pa[0] if node_a else 0
            width_b = pb[1] - pb[0] if node_b else 0
            for (kept, expand), ref, width, other in (
                (sides[0], ref_a, width_a, width_b),
                (sides[1], ref_b, width_b, width_a),
            ):
                _add(expand if width and width >= other else kept, lo, hi, ref)
        wanted = [resolve(key) for _, expand in sides for _, _, key in expand]
        nodes = fetch_many(list(dict.fromkeys(wanted))) if wanted else {}
        for (kept, expand), out in zip(sides, (a, b)):
            out.clear()
            out.extend(kept)
            for lo, hi, key in expand:
                node = nodes[resolve(key)]
                for index, entry in enumerate(clipped_entries(node, lo, hi), lo):
                    if type(entry) is not NodeKey:  # redirects come as references
                        out.append((index, index + 1, entry))
                for sub, sub_lo, sub_hi in _references(node, lo, hi):
                    out.append((sub_lo, sub_hi, sub))
            out.sort(key=lambda piece: piece[0])
    changed.sort()
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

    def side(owner: str, info) -> list[tuple[NodeKey, int, int]]:
        if info.size == 0:
            return []
        return [(NodeKey(owner, info.version, 0, info.root_span), 0, info.size_blocks)]

    blocks = diff_snapshots(
        store.metadata.get_nodes, side(blob_id, info_a), side(other, info_b), resolver
    )
    return _coalesce(blocks)
