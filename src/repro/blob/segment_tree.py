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
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

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
    "walk_reachable",
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
    """The segment tree's one traversal, decoupled from node fetching.

    Usage (local or simulated — the driver chooses how to fetch)::

        plan = DescentPlan(root_key, lo, hi)
        while not plan.done:
            frontier = plan.take_frontier()        # keys to fetch now
            for key in frontier:
                plan.feed(key, fetch(key))         # or plan.drop(key)
        blocks = plan.blocks()                     # ordered descriptors

    The frontier exposes one tree level at a time, each key once, so a
    simulated client can issue all fetches of a level in parallel — a
    covered reference wider than :data:`RUN_SPAN` puts its runs on the
    next frontier in place of the levels below it (:func:`_references`) —
    matching BlobSeer's "requests sent asynchronously and processed in
    parallel" read path.  A run entered by several references (the
    siblings of a later write's path inside it) is fetched once: every
    reference enters it with its own clip, and a node fetched earlier
    in the walk is re-entered at once, without a fetch.  Each visit is
    recorded in :attr:`visits` as ``(node, lo, hi)``, the block range
    it reaches; :meth:`enter` adds pieces to walk (a mark enters every
    retained root).  A key visited whole is not entered again: its
    subtree was visited (a single-root walk never visits a key twice
    over overlapping ranges, so a read's frontiers are unchanged).  A
    key whose fetch failed is dropped with its subtree and named in
    :attr:`unread`; the walk goes on.

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
        #: Keys visited whole: their subtrees were visited too.
        self._seen: set[NodeKey] = set()
        self._frontier: list[NodeKey] = []
        #: Block ranges entering each key on the frontier or outstanding.
        self._clips: dict[NodeKey, list[tuple[int, int]]] = {}
        self._fetched: dict[NodeKey, TreeNode] = {}
        self.visits: list[tuple[TreeNode, int, int]] = []
        #: Keys dropped with their subtrees, in drop order.
        self.unread: dict[NodeKey, None] = {}
        if lo < hi:
            self.enter(root_key, lo, hi)

    @property
    def done(self) -> bool:
        """True when no fetches remain."""
        return not self._clips

    def take_frontier(self) -> list[NodeKey]:
        """Keys to fetch next; they are outstanding until fed back."""
        frontier, self._frontier = self._frontier, []
        return frontier

    def _answered(self, key: NodeKey) -> list[tuple[int, int]]:
        clips = self._clips.pop(key, None)
        if clips is None:
            raise BlobError(f"fed node {key} that was not requested")
        return clips

    def feed(self, key: NodeKey, node: TreeNode) -> None:
        """Supply a fetched node; schedules the references it follows."""
        if node.key != key:
            raise BlobError(f"fetched node {node.key} does not match requested {key}")
        clips = self._answered(key)
        self._fetched[key] = node
        for lo, hi in clips:
            self._visit(node, lo, hi)

    def drop(self, key: NodeKey) -> None:
        """Give up an outstanding key whose fetch failed."""
        self._answered(key)
        self.unread[key] = None

    def enter(self, key: NodeKey, lo: int, hi: int) -> None:
        """Walk blocks [lo, hi) of the node at *key*."""
        key = self._resolve(key)
        if key in self._seen:
            return
        node = self._fetched.get(key)
        if node is not None:
            self._visit(node, lo, hi)
            return
        clips = self._clips.get(key)
        if clips is None:
            if key in self.unread:
                return
            clips = self._clips[key] = []
            self._frontier.append(key)
        clips.append((lo, hi))

    def _visit(self, node: TreeNode, lo: int, hi: int) -> None:
        key = node.key
        if key in self._seen:
            return
        if lo == key.offset and hi == key.end:
            self._seen.add(key)
        self.visits.append((node, lo, hi))
        for ref, sub_lo, sub_hi in _references(node, lo, hi):
            self.enter(ref, sub_lo, sub_hi)

    def blocks(self) -> list[AnyBlockDescriptor]:
        """Descriptors of blocks [lo, hi), in block order: the visits'
        entries, a redirect entry overwritten by its target's later
        visit."""
        if not self.done:
            raise BlobError("descent not finished")
        found: list[Optional[RunEntry]] = [None] * (self.hi - self.lo)
        for node, lo, hi in self.visits:
            entries = clipped_entries(node, lo, hi)
            if entries:
                found[lo - self.lo : hi - self.lo] = entries
        missing = [self.lo + i for i, e in enumerate(found) if e is None or type(e) is NodeKey]
        if missing:
            raise BlobError(
                f"descent of [{self.lo}, {self.hi}) found no descriptor for blocks "
                f"{missing} (unreadable: {list(self.unread)})"
            )
        return found  # type: ignore[return-value]


Fetch = Callable[[list[NodeKey]], dict[NodeKey, TreeNode]]


def _walk(fetch_many: Fetch, plan: DescentPlan) -> DescentPlan:
    """Level-parallel driver: each frontier goes to *fetch_many* as one
    batch, so a walk costs O(tree depth) round trips, not O(nodes
    visited) (DESIGN.md §9).  A key it does not return is dropped; the
    caller reads ``plan.unread``."""
    while not plan.done:
        frontier = plan.take_frontier()
        nodes = fetch_many(frontier)
        for key in frontier:
            node = nodes.get(key)
            if node is None:
                plan.drop(key)
            else:
                plan.feed(key, node)
    return plan


def collect_blocks_batched(
    fetch_many: Fetch,
    root_key: NodeKey,
    lo: int,
    hi: int,
    key_resolver: Optional[Callable[[NodeKey], NodeKey]] = None,
) -> list[AnyBlockDescriptor]:
    """A read: the level-batched walk of blocks [lo, hi) under
    *root_key*, and the descriptors it reaches."""
    return _walk(fetch_many, DescentPlan(root_key, lo, hi, key_resolver)).blocks()


def walk_reachable(
    fetch_many: Fetch,
    roots: Sequence[NodeKey],
    key_resolver: Optional[Callable[[NodeKey], NodeKey]] = None,
) -> tuple[list[tuple[TreeNode, int, int]], list[NodeKey]]:
    """One level-batched walk entered at every whole root: its visits,
    and the keys *fetch_many* did not return.  It costs one round per
    level of the deepest tree; a key several roots reach is fetched
    once, a run visited once per clip that enters it.  An unreturned
    key is dropped with its subtree and the walk goes on, so the
    visits are complete only when the second list is empty."""
    if not roots:
        return [], []
    first, *rest = roots
    plan = DescentPlan(first, first.offset, first.end, key_resolver)
    for root in rest:
        plan.enter(root, root.offset, root.end)
    _walk(fetch_many, plan)
    return plan.visits, list(plan.unread)


def iter_reachable_batched(
    fetch_many: Fetch,
    roots: Sequence[NodeKey],
    key_resolver: Optional[Callable[[NodeKey], NodeKey]] = None,
) -> list[tuple[TreeNode, int, int]]:
    """The visits of :func:`walk_reachable`, which must be complete:
    raises ``KeyError`` naming the first key *fetch_many* did not
    return."""
    visits, unread = walk_reachable(fetch_many, roots, key_resolver)
    if unread:
        raise KeyError(unread[0])
    return visits
