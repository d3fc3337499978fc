"""Versioned segment-tree metadata (paper §III-A.3, Figure 1).

Every snapshot version of a BLOB has a binary segment tree over its
blocks: the root covers the whole BLOB and each inner node halves its
range.  Tree nodes are **immutable** and identified by ``(blob_id,
version, offset, span)`` (offsets/spans in block units, spans are
powers of two) — precisely the DHT key the paper describes.

The tree bottoms out in **runs**: a write publishes every maximal
canonical subtree that lies wholly inside its block range and spans at
most :data:`RUN_SPAN` blocks as one :class:`RunLeaf` at that subtree's
own key, carrying the descriptors of all its blocks, instead of the
``2·span − 1`` inner nodes and leaves below it.  A run of span 1 is an
ordinary :class:`LeafNode`, so a one-block write publishes exactly the
paper's tree.

Subtree sharing is what makes versioning cheap: a write for version *v*
creates new nodes **only along the paths covering its range**; children
outside the range are *references to older versions' nodes*.  The
target of such a reference is computable without reading any other
writer's metadata: its version is the highest ``w <= v`` whose write
range intersects the child's range, and its key is the node *w*
published over that range — the child position itself, or the run of
*w* that contains it, both derived from *w*'s write range and
:data:`RUN_SPAN`.  That is how BlobSeer lets a writer "predict the
values corresponding to the metadata that is being written by
concurrent writers" (§III-D) from the version manager's hints alone —
implemented here by :func:`latest_intersecting` over the write-history
records the version manager hands out.

Reading is the inverse: descend from the root of the requested version,
following references into older versions wherever the range was not
rewritten, collecting block descriptors.  A reference into a run wider
than the referencing position enters it **clipped** to that position:
a later overwrite inside an old run must never surface the run's stale
entries.  A reference whose child lies wholly inside its version's
write is **covered**: every walker (:func:`_references`) enters it at
that version's runs of :data:`RUN_SPAN` blocks, at known keys, so the
writer publishes no node between the root and those runs.  A read of a
range one write produced whole costs one round per level down to the
first covered reference on each path, plus one round for its runs.
:class:`DescentPlan` exposes the traversal as an explicit
frontier so the same algorithm drives both the in-process store and the
simulated client (parallel RPC fetches per tree level).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from repro.blob.block import AnyBlockDescriptor, BlockDescriptor, ZeroBlockDescriptor
from repro.errors import BlobError, InvalidRange
from repro.util.chunks import block_count

__all__ = [
    "RUN_SPAN",
    "NodeKey",
    "LeafNode",
    "RedirectLeaf",
    "RunLeaf",
    "InnerNode",
    "TreeNode",
    "root_span",
    "latest_intersecting",
    "build_patch",
    "build_tombstone_patch",
    "clipped_entries",
    "DescentPlan",
    "collect_blocks_batched",
    "iter_reachable_batched",
]

#: Widest canonical subtree a write publishes as one :class:`RunLeaf`.
#: It matches the scatter's per-provider vector length, so one run names
#: about as many blocks as one transfer request carries.
RUN_SPAN = 64


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


def _covering_key(blob_id: str, version: int, offset: int, span: int) -> NodeKey:
    """Key of the node of span *span* that covers block *offset*."""
    return NodeKey(blob_id, version, offset - offset % span, span)


@dataclass(frozen=True)
class LeafNode:
    """A leaf: covers one block and points at its descriptor — a run of
    span 1.

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
    """A leaf-position node that defers to an older version's node.

    Tombstoned versions use redirects for blocks their dead write would
    have *overwritten*: the tombstone's content there is the woven
    prior state, and the prior descriptor is unknown to the aborting
    writer (it may even still be in flight), so the filler names only
    the node that holds it — version ``target_version``, span
    ``target_span`` (the leaf itself, or the run containing the block),
    at the aligned offset covering this block.  Descents follow the
    redirect clipped to this one block; chains (a redirect into an
    older tombstone) terminate because target versions strictly
    decrease.
    """

    key: NodeKey
    target_version: int
    target_span: int = 1

    def __post_init__(self) -> None:
        if self.key.span != 1:
            raise ValueError(f"redirect span must be 1, got {self.key.span}")
        if not (1 <= self.target_version < self.key.version):
            raise ValueError(
                f"redirect target must be an older version >= 1, got "
                f"{self.target_version} from {self.key.version}"
            )
        if not 1 <= self.target_span <= RUN_SPAN:
            raise ValueError(f"redirect target span must be a run span, got {self.target_span}")

    @property
    def target_key(self) -> NodeKey:
        """Key of the node this redirect resolves through."""
        return _covering_key(
            self.key.blob_id, self.target_version, self.key.offset, self.target_span
        )


#: One run entry: the block's descriptor or, in a tombstone's filler,
#: the key of the older node whose entry for that block it defers to.
RunEntry = Union[AnyBlockDescriptor, NodeKey]


@dataclass(frozen=True)
class RunLeaf:
    """One write's whole canonical subtree of 2..:data:`RUN_SPAN` blocks.

    ``entries[i]`` describes block ``key.offset + i``.  Later snapshots
    reference a run from any position inside it (a sibling of their own
    path); every such reference enters the run clipped to its position,
    so entries a later write overwrote are never read through it.
    """

    key: NodeKey
    entries: tuple[RunEntry, ...]

    def __post_init__(self) -> None:
        if not 2 <= self.key.span <= RUN_SPAN:
            raise ValueError(f"run span must be in [2, {RUN_SPAN}], got {self.key.span}")
        if len(self.entries) != self.key.span:
            raise ValueError(
                f"run of span {self.key.span} carries {len(self.entries)} entries"
            )

    @cached_property
    def redirects(self) -> tuple[tuple[int, NodeKey], ...]:
        """``(block index, target key)`` of every redirect entry."""
        base = self.key.offset
        return tuple(
            (base + i, entry)
            for i, entry in enumerate(self.entries)
            if type(entry) is NodeKey
        )


@dataclass(frozen=True)
class InnerNode:
    """An inner node: references to its two half-range children.

    ``left_version``/``right_version`` name the snapshot whose node
    covers the child range (subtree sharing); ``None`` means the range
    lies entirely beyond the BLOB's size — no subtree exists there.
    ``left_span``/``right_span`` are set only when that snapshot covers
    the child range with a run wider than it: the referenced key is then
    the run's (the aligned ``span``-block range containing the child).
    ``left_covered``/``right_covered`` say the child range lies wholly
    inside that snapshot's write: every walker then enters it at that
    snapshot's runs of :data:`RUN_SPAN` blocks, and no node between is
    published.
    """

    key: NodeKey
    left_version: Optional[int]
    right_version: Optional[int]
    left_span: Optional[int] = None
    right_span: Optional[int] = None
    left_covered: bool = False
    right_covered: bool = False

    def __post_init__(self) -> None:
        if self.key.span < 2:
            raise ValueError(f"inner span must be >= 2, got {self.key.span}")
        if self.left_version is None and self.right_version is not None:
            raise ValueError("right subtree cannot exist without the left one")
        for span in (self.left_span, self.right_span):
            if span is not None and not self.half < span <= RUN_SPAN:
                raise ValueError(f"a wider child reference must name a run, got span {span}")
        if (self.left_covered and self.left_version is None) or (
            self.right_covered and self.right_version is None
        ):
            raise ValueError("an absent subtree cannot be covered")

    @property
    def half(self) -> int:
        """Span of each child position."""
        return self.key.span // 2

    def _child(self, version: Optional[int], span: Optional[int], offset: int) -> Optional[NodeKey]:
        if version is None:
            return None
        return _covering_key(self.key.blob_id, version, offset, span or self.half)

    @property
    def left_key(self) -> Optional[NodeKey]:
        """Key of the node covering the left half (None if absent)."""
        return self._child(self.left_version, self.left_span, self.key.offset)

    @property
    def right_key(self) -> Optional[NodeKey]:
        """Key of the node covering the right half (None if absent)."""
        return self._child(self.right_version, self.right_span, self.key.offset + self.half)


TreeNode = Union[LeafNode, RedirectLeaf, RunLeaf, InnerNode]


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
) -> Optional[HistoryRecord]:
    """Record of the highest version ``<= at_most`` whose write range
    intersects [lo, hi), or ``None``.

    This is the reference-prediction rule of §III-D: it determines which
    snapshot's node a new tree must point at for an untouched range,
    even while that snapshot's metadata is still being written by a
    concurrent writer.  The record's range locates that node
    (:func:`_node_span`).
    """
    best: Optional[HistoryRecord] = None
    for record in history:
        version, start, end = record
        if version <= at_most and start < hi and end > lo:
            if best is None or version > best[0]:
                best = record
    return best


def _node_span(record: HistoryRecord, offset: int, span: int) -> int:
    """Span of the node *record*'s version published over the canonical
    position ``[offset, offset + span)``, which its write intersects.

    A position wholly inside the write and at most :data:`RUN_SPAN`
    wide lies inside one of its runs: the widest aligned ancestor still
    inside the write and at most :data:`RUN_SPAN` wide.  Any other
    position is a node of that version at the position itself.
    """
    _, start, end = record
    if offset < start or offset + span > end:
        return span
    while span < RUN_SPAN:
        parent = offset - offset % (2 * span)
        if parent < start or parent + 2 * span > end:
            break
        span *= 2
    return span


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
        New nodes, runs before parents (children-first order), root
        last — safe to store in order.
    """

    def run(key: NodeKey) -> TreeNode:
        if key.span == 1:
            return LeafNode(key=key, block=leaf_descriptor(key.offset))
        return RunLeaf(key=key, entries=tuple(map(leaf_descriptor, range(key.offset, key.end))))

    return _build_nodes(
        blob_id, version, write_start, write_end, size_after_blocks, history, run
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
    node at **every** key its real patch would have occupied — same
    runs, different entries:

    * blocks the dead write would have *overwritten* (fully covered by
      the prior woven state) defer to the node of the latest prior
      version intersecting them (a :class:`RedirectLeaf`, or a target
      key as the run entry);
    * blocks it would have *created* (beyond the prior size, or a
      prior trailing partial block the dead write extended) become
      zero blocks readers synthesise locally;
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

    def entry(index: int) -> RunEntry:
        need = min(block_size, size_after - index * block_size)
        prior_len = min(block_size, max(0, prior_size - index * block_size))
        target = latest_intersecting(history, index, index + 1, at_most=version - 1)
        if target is not None and prior_len == need:
            return _covering_key(blob_id, target[0], index, _node_span(target, index, 1))
        # No prior coverage — or partial coverage the dead write would
        # have extended, which block-granularity sharing cannot express:
        # the tombstone defines the whole block as zeros (DESIGN.md §7).
        return ZeroBlockDescriptor(blob_id=blob_id, version=version, index=index, size=need)

    def run(key: NodeKey) -> TreeNode:
        if key.span > 1:
            return RunLeaf(key=key, entries=tuple(map(entry, range(key.offset, key.end))))
        only = entry(key.offset)
        if type(only) is NodeKey:
            return RedirectLeaf(key=key, target_version=only.version, target_span=only.span)
        return LeafNode(key=key, block=only)

    return _build_nodes(
        blob_id, version, write_start, write_end, size_after_blocks, history, run
    )


def _build_nodes(
    blob_id: str,
    version: int,
    write_start: int,
    write_end: int,
    size_after_blocks: int,
    history: Sequence[HistoryRecord],
    run_node: Callable[[NodeKey], TreeNode],
) -> list[TreeNode]:
    """Shared recursion behind :func:`build_patch` and the tombstone patch:
    the nodes a walker reaches (:func:`_references`), so no inner node
    below the root lying wholly inside the write."""
    if write_end <= write_start:
        raise InvalidRange(f"empty write range [{write_start}, {write_end})")
    if write_start < 0:
        raise InvalidRange(f"negative write start {write_start}")
    if write_end > size_after_blocks:
        raise InvalidRange(
            f"write range [{write_start}, {write_end}) beyond size {size_after_blocks}"
        )
    full_history = list(history) + [(version, write_start, write_end)]
    nodes: list[TreeNode] = []
    top = root_span(size_after_blocks)

    def build(offset: int, node_span: int) -> None:
        # Invariant: [offset, offset+node_span) intersects the write range.
        key = NodeKey(blob_id, version, offset, node_span)
        inside = write_start <= offset and offset + node_span <= write_end
        if inside and node_span <= RUN_SPAN:
            nodes.append(run_node(key))
            return
        half = node_span // 2
        if inside and node_span < top:
            # Every reference here is covered: walkers enter the runs.
            build(offset, half)
            build(offset + half, half)
            return
        refs: list[tuple[Optional[int], Optional[int], bool]] = []
        for child_offset in (offset, offset + half):
            child_end = child_offset + half
            if child_offset < write_end and child_end > write_start:
                build(child_offset, half)
                record, span = (version, write_start, write_end), half
            elif child_offset < size_after_blocks:
                record = latest_intersecting(
                    full_history, child_offset, child_end, at_most=version
                )
                if record is None:  # pragma: no cover - excluded by no-holes rule
                    raise BlobError(
                        f"no snapshot covers blocks [{child_offset}, {child_end}) "
                        f"of blob {blob_id!r}"
                    )
                span = _node_span(record, child_offset, half)
            else:
                refs.append((None, None, False))
                continue
            ref_version, ref_start, ref_end = record
            covered = ref_start <= child_offset and child_end <= ref_end
            refs.append((ref_version, span if span != half else None, covered))
        (left_version, left_span, left_covered), (right_version, right_span, right_covered) = refs
        nodes.append(
            InnerNode(
                key=key,
                left_version=left_version,
                right_version=right_version,
                left_span=left_span,
                right_span=right_span,
                left_covered=left_covered,
                right_covered=right_covered,
            )
        )

    build(0, top)
    return nodes


def clipped_entries(node: TreeNode, lo: int, hi: int) -> Sequence[RunEntry]:
    """The block-level entries a visit of *node* over blocks [lo, hi)
    reaches, in block order: a leaf's descriptor, the clipped slice of
    a run (redirect entries included), nothing for other nodes."""
    if isinstance(node, RunLeaf):
        base = node.key.offset
        return node.entries[lo - base : hi - base]
    if isinstance(node, LeafNode):
        return (node.block,)
    return ()


def _references(node: TreeNode, lo: int, hi: int) -> Iterator[tuple[NodeKey, int, int]]:
    """Every reference a visit of *node* over blocks [lo, hi) follows,
    with the block range it enters the referenced node through.

    This is every walker's one rule: a covered reference wider than
    :data:`RUN_SPAN` is entered not at its key, which no writer
    publishes, but at the runs of its version below it, each clipped.
    """
    if isinstance(node, InnerNode):
        mid = node.key.offset + node.half
        for key, covered, sub_lo, sub_hi in (
            (lo < mid and node.left_key, node.left_covered, lo, min(hi, mid)),
            (hi > mid and node.right_key, node.right_covered, max(lo, mid), hi),
        ):
            if not key:
                continue
            if covered and node.half > RUN_SPAN:
                for run in range(sub_lo - sub_lo % RUN_SPAN, sub_hi, RUN_SPAN):
                    yield (
                        NodeKey(key.blob_id, key.version, run, RUN_SPAN),
                        max(sub_lo, run),
                        min(sub_hi, run + RUN_SPAN),
                    )
            else:
                yield key, sub_lo, sub_hi
    elif isinstance(node, RunLeaf):
        for index, target in node.redirects:
            if lo <= index < hi:
                yield target, index, index + 1
    elif isinstance(node, RedirectLeaf):
        yield node.target_key, lo, hi


class DescentPlan:
    """Iterative range traversal decoupled from node fetching.

    Usage (local or simulated — the driver chooses how to fetch)::

        plan = DescentPlan(root_key, lo, hi)
        while not plan.done:
            frontier = plan.take_frontier()        # keys to fetch now
            for key in frontier:
                plan.feed(key, fetch(key))         # any fetch mechanism
        blocks = plan.blocks()                     # ordered descriptors

    The frontier exposes one tree level at a time, each key once, so a
    simulated client can issue all fetches of a level in parallel — a
    covered reference wider than :data:`RUN_SPAN` puts its runs on the
    next frontier in place of the levels below it (:func:`_references`) —
    matching BlobSeer's "requests sent asynchronously and processed in
    parallel" read path.  A run entered by several references (the
    siblings of a later write's path inside it) is fetched once: every
    reference enters it with its own clip, and a node fetched earlier
    in the descent is re-entered without a fetch.

    ``key_resolver`` supports *branched* BLOBs: on a branch, versions
    up to the branch point belong to the ancestor BLOB.  The resolver
    maps a key to the blob that owns its version (default: same blob).
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
        self._frontier: list[NodeKey] = []
        self._outstanding: set[NodeKey] = set()
        #: Block ranges entering each key that awaits its fetch.
        self._clips: dict[NodeKey, list[tuple[int, int]]] = {}
        self._fetched: dict[NodeKey, TreeNode] = {}
        #: Per block of [lo, hi): its descriptor once collected (a
        #: redirect entry's target key until that resolves).
        self._found: list[Optional[RunEntry]] = [None] * (hi - lo)
        if lo < hi:
            self._enter(root_key, lo, hi)

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
        """Supply a fetched node; schedules the references it follows."""
        if key not in self._outstanding:
            raise BlobError(f"fed node {key} that was not requested")
        if node.key != key:
            raise BlobError(f"fetched node {node.key} does not match requested {key}")
        self._outstanding.discard(key)
        self._fetched[key] = node
        for lo, hi in self._clips.pop(key):
            self._visit(node, lo, hi)

    def _enter(self, key: NodeKey, lo: int, hi: int) -> None:
        key = self._resolve(key)
        node = self._fetched.get(key)
        if node is not None:
            self._visit(node, lo, hi)
            return
        clips = self._clips.setdefault(key, [])
        if not clips:
            self._frontier.append(key)
        clips.append((lo, hi))

    def _visit(self, node: TreeNode, lo: int, hi: int) -> None:
        entries = clipped_entries(node, lo, hi)
        if entries:
            self._found[lo - self.lo : hi - self.lo] = entries
        for key, sub_lo, sub_hi in _references(node, lo, hi):
            self._enter(key, sub_lo, sub_hi)

    def blocks(self) -> list[AnyBlockDescriptor]:
        """Collected block descriptors in ascending block order."""
        if not self.done:
            raise BlobError("descent not finished")
        missing = [
            self.lo + i
            for i, found in enumerate(self._found)
            if found is None or type(found) is NodeKey
        ]
        if missing:
            raise BlobError(
                f"descent of [{self.lo}, {self.hi}) found no descriptor for blocks {missing}"
            )
        return self._found  # type: ignore[return-value]


def collect_blocks_batched(
    fetch_many: Callable[[list[NodeKey]], dict[NodeKey, TreeNode]],
    root_key: NodeKey,
    lo: int,
    hi: int,
    key_resolver: Optional[Callable[[NodeKey], NodeKey]] = None,
) -> list[AnyBlockDescriptor]:
    """Level-parallel driver over :class:`DescentPlan`.

    Each frontier — one tree level (or the runs below a covered
    reference), plus any redirect targets the previous level surfaced —
    is resolved through *fetch_many* in a single batched metadata pass,
    so the whole descent costs O(tree depth) round trips instead of
    O(nodes visited) (DESIGN.md §9).
    """
    plan = DescentPlan(root_key, lo, hi, key_resolver=key_resolver)
    while not plan.done:
        frontier = plan.take_frontier()
        nodes = fetch_many(frontier)
        for key in frontier:
            plan.feed(key, nodes[key])
    return plan.blocks()


def iter_reachable_batched(
    fetch_many: Callable[[list[NodeKey]], dict[NodeKey, TreeNode]],
    roots: Sequence[NodeKey],
    key_resolver: Optional[Callable[[NodeKey], NodeKey]] = None,
    seen: Optional[set[NodeKey]] = None,
) -> Iterable[tuple[TreeNode, int, int]]:
    """Every node reachable from any of *roots* as ``(node, lo, hi)``,
    one batched fetch per tree level.

    The first frontier is every root, so a walk over many snapshots
    (GC's mark) costs one round per level of the deepest tree, and a
    key several roots reach in one level is fetched once.  It follows
    :func:`_references` like every walker, so it visits exactly the
    keys the writers of these versions published.  ``[lo, hi)`` is the
    block range the visit reaches: the node's own range, except for a
    run entered through a narrower reference, which is visited once
    per such clip — only its entries inside a clip are reachable
    (:func:`clipped_entries`).

    *seen* collects the keys this traversal (and earlier ones sharing
    the set) visited whole; such keys are neither fetched nor descended
    into again, which both avoids re-visiting a node AND prunes its
    whole subtree — a node visited whole had its subtree visited too.
    A run visited only in part stays eligible.
    """
    resolve = key_resolver if key_resolver is not None else (lambda k: k)
    seen = set() if seen is None else seen
    fetched: dict[NodeKey, TreeNode] = {}
    frontier = [(resolve(root), root.offset, root.end) for root in roots]
    while frontier:
        level = [(key, lo, hi) for key, lo, hi in frontier if key not in seen]
        wanted = [key for key in dict.fromkeys(key for key, _, _ in level) if key not in fetched]
        if wanted:
            fetched.update(fetch_many(wanted))
        frontier = []
        for key, lo, hi in level:
            if key in seen:
                continue
            if lo == key.offset and hi == key.end:
                seen.add(key)
            node = fetched[key]
            yield node, lo, hi
            frontier.extend(
                (resolve(ref), ref_lo, ref_hi) for ref, ref_lo, ref_hi in _references(node, lo, hi)
            )
