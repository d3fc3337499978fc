"""Versioned segment-tree metadata (paper §III-A.3, Figure 1).

Every snapshot version of a BLOB has a binary segment tree over its
blocks: the root covers the whole BLOB, each inner node halves its
range, each leaf covers exactly one block and carries that block's
:class:`~repro.blob.block.BlockDescriptor`.  Tree nodes are **immutable**
and identified by ``(blob_id, version, offset, span)`` (offsets/spans in
block units, spans are powers of two) — precisely the DHT key the paper
describes.

Subtree sharing is what makes versioning cheap: a write for version *v*
creates new nodes **only along the paths covering its range**; children
outside the range are *references to older versions' nodes*.  The
version label of such a reference is computable without reading any
other writer's metadata: it is the highest version ``w <= v`` whose
write range intersects the child's range.  That is how BlobSeer lets a
writer "predict the values corresponding to the metadata that is being
written by concurrent writers" (§III-D) from the version manager's
hints alone — and it is implemented here by :func:`latest_intersecting`
over the write-history records the version manager hands out.

Reading is the inverse: descend from the root of the requested version,
following child references into older versions wherever the range was
not rewritten, collecting leaves.  :class:`DescentPlan` exposes the
traversal as an explicit frontier so the same algorithm drives both the
in-process store (plain loop) and the simulated client (parallel RPC
fetches per tree level).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from repro.blob.block import AnyBlockDescriptor, BlockDescriptor, ZeroBlockDescriptor
from repro.errors import BlobError, InvalidRange
from repro.util.chunks import block_count

__all__ = [
    "NodeKey",
    "LeafNode",
    "RedirectLeaf",
    "InnerNode",
    "TreeNode",
    "root_span",
    "latest_intersecting",
    "build_patch",
    "build_tombstone_patch",
    "DescentPlan",
    "collect_blocks",
    "collect_blocks_batched",
    "iter_reachable_batched",
]


class _NodeKeyFields(NamedTuple):
    blob_id: str
    version: int
    offset: int
    span: int


class NodeKey(_NodeKeyFields):
    """DHT identity of a tree node: version + covered block range.

    ``offset`` is a multiple of ``span``; ``span`` is a power of two
    (canonical segment-tree decomposition, version-independent).
    Tuple-backed so hashing and equality run in C: a key is hashed many
    times per descent (cache, batch dedup, bucket dicts).  Its ``repr``
    is the ring's hash input, so it must stay
    ``NodeKey(blob_id=..., version=..., offset=..., span=...)``.
    """

    __slots__ = ()

    def __new__(cls, blob_id: str, version: int, offset: int, span: int) -> "NodeKey":
        if version < 1:
            raise ValueError(f"tree nodes exist for versions >= 1, got {version}")
        if span < 1 or (span & (span - 1)) != 0:
            raise ValueError(f"span must be a positive power of two, got {span}")
        if offset < 0 or offset % span != 0:
            raise ValueError(
                f"offset must be a non-negative multiple of span, got "
                f"offset={offset} span={span}"
            )
        return super().__new__(cls, blob_id, version, offset, span)

    @property
    def end(self) -> int:
        """One past the last covered block."""
        return self.offset + self.span


@dataclass(frozen=True)
class LeafNode:
    """A leaf: covers one block and points at its descriptor.

    The descriptor is either a stored block (:class:`BlockDescriptor`)
    or a reader-synthesised zero block (:class:`ZeroBlockDescriptor`,
    published by tombstoned versions — see :func:`build_tombstone_patch`).
    """

    key: NodeKey
    block: AnyBlockDescriptor

    def __post_init__(self) -> None:
        if self.key.span != 1:
            raise ValueError(f"leaf span must be 1, got {self.key.span}")
        if self.block.index != self.key.offset:
            raise ValueError(
                f"leaf at offset {self.key.offset} carries block index {self.block.index}"
            )


@dataclass(frozen=True)
class RedirectLeaf:
    """A leaf-position node that defers to an older version's leaf.

    Tombstoned versions use redirects for blocks their dead write would
    have *overwritten*: the tombstone's content there is the woven
    prior state, and the prior leaf's descriptor is unknown to the
    aborting writer (it may even still be in flight), so the filler
    node names only the target *version* — exactly like an
    :class:`InnerNode` child reference, but at span 1.  Descents follow
    the redirect; chains (a redirect into an older tombstone) terminate
    because target versions strictly decrease.
    """

    key: NodeKey
    target_version: int

    def __post_init__(self) -> None:
        if self.key.span != 1:
            raise ValueError(f"redirect span must be 1, got {self.key.span}")
        if not (1 <= self.target_version < self.key.version):
            raise ValueError(
                f"redirect target must be an older version >= 1, got "
                f"{self.target_version} from {self.key.version}"
            )

    @property
    def target_key(self) -> NodeKey:
        """Key of the leaf this redirect resolves to."""
        return NodeKey(self.key.blob_id, self.target_version, self.key.offset, 1)


@dataclass(frozen=True)
class InnerNode:
    """An inner node: version references to its two half-range children.

    ``left_version``/``right_version`` name the snapshot whose node
    covers the child range (subtree sharing); ``None`` means the range
    lies entirely beyond the BLOB's size — no subtree exists there.
    """

    key: NodeKey
    left_version: Optional[int]
    right_version: Optional[int]

    def __post_init__(self) -> None:
        if self.key.span < 2:
            raise ValueError(f"inner span must be >= 2, got {self.key.span}")
        if self.left_version is None and self.right_version is not None:
            raise ValueError("right subtree cannot exist without the left one")

    @property
    def half(self) -> int:
        """Span of each child."""
        return self.key.span // 2

    @property
    def left_key(self) -> Optional[NodeKey]:
        """Key of the left child (None if absent)."""
        if self.left_version is None:
            return None
        return NodeKey(self.key.blob_id, self.left_version, self.key.offset, self.half)

    @property
    def right_key(self) -> Optional[NodeKey]:
        """Key of the right child (None if absent)."""
        if self.right_version is None:
            return None
        return NodeKey(
            self.key.blob_id, self.right_version, self.key.offset + self.half, self.half
        )

    def children(self) -> list[NodeKey]:
        """Existing child keys, left to right."""
        return [k for k in (self.left_key, self.right_key) if k is not None]


TreeNode = Union[LeafNode, RedirectLeaf, InnerNode]


def root_span(size_blocks: int) -> int:
    """Root coverage for a BLOB of *size_blocks* blocks (next power of 2).

    An empty BLOB has no tree; by convention its span is 1 so a tree can
    be rooted as soon as the first block arrives.
    """
    if size_blocks < 0:
        raise ValueError(f"size_blocks must be >= 0, got {size_blocks}")
    span = 1
    while span < size_blocks:
        span *= 2
    return span


#: One write-history record as hinted by the version manager:
#: (version, first_block, last_block_exclusive).
HistoryRecord = tuple[int, int, int]


def latest_intersecting(
    history: Sequence[HistoryRecord], lo: int, hi: int, at_most: int
) -> Optional[int]:
    """Highest version ``<= at_most`` whose write range intersects [lo, hi).

    This is the reference-prediction rule of §III-D: it determines which
    snapshot's node a new tree must point at for an untouched range,
    even while that snapshot's metadata is still being written by a
    concurrent writer.
    """
    best: Optional[int] = None
    for version, start, end in history:
        if version <= at_most and start < hi and end > lo:
            if best is None or version > best:
                best = version
    return best


def build_patch(
    blob_id: str,
    version: int,
    write_start: int,
    write_end: int,
    size_after_blocks: int,
    history: Sequence[HistoryRecord],
    leaf_descriptor: Callable[[int], BlockDescriptor],
) -> list[TreeNode]:
    """All tree nodes version *v* must publish for its write.

    Args:
        blob_id: the BLOB.
        version: the snapshot being created.
        write_start, write_end: written block range (block units,
            end-exclusive, non-empty).
        size_after_blocks: BLOB size in blocks once this snapshot is
            complete (defines the root span).
        history: write-history records for versions ``< version``
            (version-manager hints); own range is implied.
        leaf_descriptor: callback giving the :class:`BlockDescriptor`
            for each written absolute block index.

    Returns:
        New nodes, leaves before parents (children-first order), root
        last — safe to store in order.
    """
    return _build_nodes(
        blob_id,
        version,
        write_start,
        write_end,
        size_after_blocks,
        history,
        lambda key: LeafNode(key=key, block=leaf_descriptor(key.offset)),
    )


def build_tombstone_patch(
    blob_id: str,
    version: int,
    write_start: int,
    write_end: int,
    size_after: int,
    prior_size: int,
    block_size: int,
    history: Sequence[HistoryRecord],
) -> list[TreeNode]:
    """The filler patch a tombstoned (aborted) version must publish.

    Later writers already wove references to *version*'s canonical
    nodes from the version-manager hints, so the tombstone publishes a
    node at **every** canonical position its real patch would have
    occupied — same keys, different content:

    * blocks the dead write would have *overwritten* (fully covered by
      the prior woven state) become :class:`RedirectLeaf` nodes
      pointing at the latest prior version intersecting them;
    * blocks it would have *created* (beyond the prior size, or a
      prior trailing partial block the dead write extended) become
      zero-filled leaves readers synthesise locally;
    * ranges outside the dead write are ordinary version references,
      exactly as in :func:`build_patch`.

    Everything is computed from version-manager hints alone — no DHT
    read is needed, which matters because the abort is usually being
    taken *because* metadata providers are failing.

    Args:
        size_after: BLOB size in bytes had the write succeeded (the
            tombstone keeps it: later appends fixed their offsets on it).
        prior_size: BLOB size in bytes of the preceding snapshot.
        history: write-history records for versions ``< version``.
    """
    size_after_blocks = block_count(size_after, block_size)

    def filler_leaf(key: NodeKey) -> TreeNode:
        index = key.offset
        need = min(block_size, size_after - index * block_size)
        prior_len = min(block_size, max(0, prior_size - index * block_size))
        target = latest_intersecting(history, index, index + 1, at_most=version - 1)
        if target is not None and prior_len == need:
            return RedirectLeaf(key=key, target_version=target)
        # No prior coverage — or partial coverage the dead write would
        # have extended, which block-granularity sharing cannot express:
        # the tombstone defines the whole block as zeros (DESIGN.md §7).
        return LeafNode(
            key=key,
            block=ZeroBlockDescriptor(
                blob_id=blob_id, version=version, index=index, size=need
            ),
        )

    return _build_nodes(
        blob_id,
        version,
        write_start,
        write_end,
        size_after_blocks,
        history,
        filler_leaf,
    )


def _build_nodes(
    blob_id: str,
    version: int,
    write_start: int,
    write_end: int,
    size_after_blocks: int,
    history: Sequence[HistoryRecord],
    leaf_node: Callable[[NodeKey], TreeNode],
) -> list[TreeNode]:
    """Shared recursion behind :func:`build_patch` and the tombstone patch."""
    if write_end <= write_start:
        raise InvalidRange(f"empty write range [{write_start}, {write_end})")
    if write_start < 0:
        raise InvalidRange(f"negative write start {write_start}")
    if write_end > size_after_blocks:
        raise InvalidRange(
            f"write range [{write_start}, {write_end}) beyond size {size_after_blocks}"
        )
    span = root_span(size_after_blocks)
    full_history = list(history) + [(version, write_start, write_end)]
    nodes: list[TreeNode] = []

    def build(offset: int, node_span: int) -> None:
        # Invariant: [offset, offset+node_span) intersects the write range.
        key = NodeKey(blob_id, version, offset, node_span)
        if node_span == 1:
            nodes.append(leaf_node(key))
            return
        half = node_span // 2
        child_versions: list[Optional[int]] = []
        for child_offset in (offset, offset + half):
            child_end = child_offset + half
            if child_offset < write_end and child_end > write_start:
                build(child_offset, half)
                child_versions.append(version)
            elif child_offset < size_after_blocks:
                ref = latest_intersecting(
                    full_history, child_offset, child_end, at_most=version
                )
                if ref is None:  # pragma: no cover - excluded by no-holes rule
                    raise BlobError(
                        f"no snapshot covers blocks [{child_offset}, {child_end}) "
                        f"of blob {blob_id!r}"
                    )
                child_versions.append(ref)
            else:
                child_versions.append(None)
        nodes.append(
            InnerNode(key=key, left_version=child_versions[0], right_version=child_versions[1])
        )

    build(0, span)
    return nodes


class DescentPlan:
    """Iterative range traversal decoupled from node fetching.

    Usage (local or simulated — the driver chooses how to fetch)::

        plan = DescentPlan(root_key, lo, hi)
        while not plan.done:
            frontier = plan.take_frontier()        # keys to fetch now
            for key in frontier:
                plan.feed(key, fetch(key))         # any fetch mechanism
        blocks = plan.blocks()                     # ordered descriptors

    The frontier exposes one tree level at a time, so a simulated client
    can issue all fetches of a level in parallel — matching BlobSeer's
    "requests sent asynchronously and processed in parallel" read path.

    ``key_resolver`` supports *branched* BLOBs: child references name
    only a version, and on a branch, versions up to the branch point
    belong to the ancestor BLOB.  The resolver maps a child key to the
    blob that owns its version (default: same blob).
    """

    def __init__(
        self,
        root_key: NodeKey,
        lo: int,
        hi: int,
        key_resolver: Optional[Callable[[NodeKey], NodeKey]] = None,
    ):
        if lo < 0 or hi < lo:
            raise InvalidRange(f"bad block range [{lo}, {hi})")
        if hi > root_key.end:
            raise InvalidRange(
                f"range [{lo}, {hi}) outside root coverage [0, {root_key.end})"
            )
        self.lo = lo
        self.hi = hi
        self._resolve = key_resolver if key_resolver is not None else (lambda k: k)
        self._frontier: list[NodeKey] = [] if lo == hi else [self._resolve(root_key)]
        self._outstanding: set[NodeKey] = set()
        self._leaves: list[LeafNode] = []

    @property
    def done(self) -> bool:
        """True when no fetches remain."""
        return not self._frontier and not self._outstanding

    def take_frontier(self) -> list[NodeKey]:
        """Keys to fetch next; they become outstanding until fed back."""
        frontier, self._frontier = self._frontier, []
        self._outstanding.update(frontier)
        return frontier

    def feed(self, key: NodeKey, node: TreeNode) -> None:
        """Supply a fetched node; schedules its relevant children."""
        if key not in self._outstanding:
            raise BlobError(f"fed node {key} that was not requested")
        if node.key != key:
            raise BlobError(f"fetched node {node.key} does not match requested {key}")
        self._outstanding.discard(key)
        if isinstance(node, LeafNode):
            self._leaves.append(node)
            return
        if isinstance(node, RedirectLeaf):
            # Tombstone filler: the block lives under an older version's
            # leaf — chase it like one more frontier level.
            self._frontier.append(self._resolve(node.target_key))
            return
        for child in node.children():
            if child.offset < self.hi and child.end > self.lo:
                self._frontier.append(self._resolve(child))

    def blocks(self) -> list[AnyBlockDescriptor]:
        """Collected block descriptors in ascending block order."""
        if not self.done:
            raise BlobError("descent not finished")
        leaves = sorted(self._leaves, key=lambda leaf: leaf.key.offset)
        expected = range(self.lo, self.hi)
        got = [leaf.key.offset for leaf in leaves]
        if got != list(expected):
            raise BlobError(
                f"descent returned blocks {got}, expected {list(expected)}"
            )
        return [leaf.block for leaf in leaves]


def collect_blocks(
    fetch: Callable[[NodeKey], TreeNode],
    root_key: NodeKey,
    lo: int,
    hi: int,
    key_resolver: Optional[Callable[[NodeKey], NodeKey]] = None,
) -> list[AnyBlockDescriptor]:
    """Synchronous driver over :class:`DescentPlan` (functional layer)."""
    plan = DescentPlan(root_key, lo, hi, key_resolver=key_resolver)
    while not plan.done:
        for key in plan.take_frontier():
            plan.feed(key, fetch(key))
    return plan.blocks()


def collect_blocks_batched(
    fetch_many: Callable[[list[NodeKey]], dict[NodeKey, TreeNode]],
    root_key: NodeKey,
    lo: int,
    hi: int,
    key_resolver: Optional[Callable[[NodeKey], NodeKey]] = None,
) -> list[AnyBlockDescriptor]:
    """Level-parallel driver over :class:`DescentPlan`.

    Each frontier — one tree level, plus any redirect targets the
    previous level surfaced — is resolved through *fetch_many* in a
    single batched metadata pass, so the whole descent costs O(tree
    depth) round trips instead of O(nodes visited) (DESIGN.md §9).
    """
    plan = DescentPlan(root_key, lo, hi, key_resolver=key_resolver)
    while not plan.done:
        frontier = list(dict.fromkeys(plan.take_frontier()))
        nodes = fetch_many(frontier)
        for key in frontier:
            plan.feed(key, nodes[key])
    return plan.blocks()


def iter_reachable_batched(
    fetch_many: Callable[[list[NodeKey]], dict[NodeKey, TreeNode]],
    root_key: NodeKey,
    key_resolver: Optional[Callable[[NodeKey], NodeKey]] = None,
    skip: Optional[set[NodeKey]] = None,
) -> Iterable[TreeNode]:
    """Every node reachable from *root_key*, one batched fetch per
    tree level.

    *skip* keys are neither fetched nor descended into: traversals that
    dedupe shared subtrees (GC marking, the scrub's block sweep) pass
    their seen-set, which both avoids re-yielding a node AND prunes its
    whole subtree — a node already marked had its subtree marked too.
    The caller may grow *skip* while consuming the iterator; keys
    already fetched for the current level are still yielded.
    """
    resolve = key_resolver if key_resolver is not None else (lambda k: k)
    frontier = [resolve(root_key)]
    while frontier:
        level = [
            key
            for key in dict.fromkeys(frontier)
            if skip is None or key not in skip
        ]
        if not level:
            return
        nodes = fetch_many(level)
        frontier = []
        for key in level:
            node = nodes[key]
            yield node
            if isinstance(node, InnerNode):
                frontier.extend(resolve(child) for child in node.children())
            elif isinstance(node, RedirectLeaf):
                frontier.append(resolve(node.target_key))
