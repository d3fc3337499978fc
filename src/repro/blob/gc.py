"""Version garbage collection.

The paper keeps all past versions "at least as long as they have not
been garbaged for the sake of storage space" (§III-A.1).  Because
subtrees and blocks are *shared* between snapshots, dropping old
versions must not touch anything a retained snapshot still references —
so collection is a mark-and-sweep over the metadata trees:

1. **mark** — :func:`mark_reachable`, one level-batched walk from every
   retained root at once, records every reachable tree node and the
   stored blocks its clips reach (the scrub's block phase is the same
   mark);
2. **sweep** — delete this BLOB's unmarked tree nodes from the metadata
   buckets and its unmarked blocks from the data providers, one round
   of delete requests each.

A pass reads the version manager once, in one critical section
through the store's seam (DESIGN.md §10): it refuses to start while a
version of the BLOB (or of a branch descending from it) is in flight,
takes the watermark and the roots to mark, and raises the GC floor, so
a branch forked during the pass inherits the new floor.  Everything
else runs outside the lock and needs no quiescence: a write may start,
scatter, publish and commit while the pass runs.  Two limits keep such
writes whole:

* the node sweep deletes only keys whose version is at most the
  publication watermark read when the pass starts — a newer snapshot's
  nodes are never garbage yet;
* the block sweep deletes only blocks whose write is older than
  :meth:`~repro.blob.store.LocalBlobStore.gc_horizon` read at the start
  — every write still running, not yet started, or committed above the
  watermark is at or past it.

A snapshot published during the pass references older content only
where the watermark snapshot does too, so the mark phase already keeps
it.  Tombstoned (aborted) versions are *not* in flight — they committed
as no-ops, so a dead writer never blocks collection — and they
participate in the mark phase like any retained snapshot: their filler
trees (redirects into prior versions, zero blocks) keep shared prior
nodes alive; zero blocks mark nothing.  A run (DESIGN.md §4) is live if
any retained snapshot reaches it, but only the entries inside the clips
that reach it mark their blocks, so a block overwritten inside a run
that is still shared is freed like any other dead block.

Only the *sweep* tolerates offline buckets and providers.  A key the
mark could not read hides the subtree below it, so a pass whose mark
names one raises that key's error and sweeps nothing (under-marking
would delete live nodes) — including a tombstone whose filler could
not be fully published during the outage.  Either retain from a
version past the unreadable one, or heal the buckets and run
``store.scrub()`` first.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.blob.block import BlockDescriptor
from repro.blob.segment_tree import NodeKey, TreeNode, clipped_entries, walk_reachable
from repro.blob.store import LocalBlobStore
from repro.blob.version_manager import VersionManagerCore
from repro.errors import BlobError

__all__ = ["GcReport", "collect_garbage"]


@dataclass(frozen=True)
class GcReport:
    """What one collection pass removed."""

    blob_id: str
    retain_from: int
    nodes_deleted: int
    blocks_deleted: int
    bytes_freed: int


def snapshot_roots(vm: VersionManagerCore, blob_id: str, first: int, last: int) -> list[NodeKey]:
    """Root keys of *blob_id*'s non-empty snapshots *first*..*last*
    (the caller holds the version-manager lock)."""
    infos = [vm.snapshot_info(blob_id, version) for version in range(first, last + 1)]
    return [NodeKey(info.blob_id, info.version, 0, info.root_span) for info in infos if info.size]


def _control_plane(
    vm: VersionManagerCore, blob_id: str, retain_from: int
) -> tuple[int, list[NodeKey]]:
    """Everything a pass needs from the version manager, in one critical
    section: the in-flight checks, the watermark, the roots of every
    snapshot to mark — and the new GC floor.

    The roots are those of *blob_id*'s retained snapshots *and of every
    branch descending from it*, since branches share subtrees and
    blocks with their ancestor (§II-A).  The floor is raised here, not
    after the sweep: a branch forked while the pass runs is not among
    these roots, so it must inherit the new floor rather than the
    versions the sweep is about to delete.
    """
    inflight = vm.in_flight(blob_id)
    if inflight:
        raise BlobError(
            f"cannot GC blob {blob_id!r} with writes in flight: versions {inflight}"
        )
    watermark = vm.published_version(blob_id)
    if retain_from > watermark:
        raise BlobError(
            f"retain_from {retain_from} beyond published watermark {watermark}"
        )
    retained = [(blob_id, retain_from, watermark)]
    for other_id in vm.blob_ids():
        if other_id != blob_id and vm.descends_from(other_id, blob_id):
            if vm.in_flight(other_id):
                raise BlobError(
                    f"cannot GC blob {blob_id!r}: descendant branch "
                    f"{other_id!r} has writes in flight"
                )
            other = vm.blob(other_id)
            retained.append((other_id, max(other.gc_floor, 1), other.published))
    roots = [root for span in retained for root in snapshot_roots(vm, *span)]
    vm.set_gc_floor(blob_id, retain_from)
    return watermark, roots


#: A mark: per reached key, the node and the stored blocks its clips reach.
Reached = dict[NodeKey, tuple[TreeNode, dict[int, BlockDescriptor]]]


def mark_reachable(
    store: LocalBlobStore, roots: list[NodeKey]
) -> tuple[Reached, dict[NodeKey, BlobError]]:
    """The one mark of GC and the scrub: every node one walk from all
    *roots* reaches, with the stored blocks some root reaches through
    its clips, by index; and the error of every key the walk could not
    read, which stops only the subtree below it."""
    errors: dict[NodeKey, BlobError] = {}

    def fetch(keys: list[NodeKey]) -> dict[NodeKey, TreeNode]:
        nodes, unserved = store.metadata.gather_nodes(keys)
        errors.update(unserved)
        return nodes

    visits, unread = walk_reachable(fetch, roots, key_resolver=store.key_resolver())
    reached: Reached = {}
    for node, lo, hi in visits:
        blocks = reached.setdefault(node.key, (node, {}))[1]
        for index, entry in enumerate(clipped_entries(node, lo, hi), lo):
            if type(entry) is BlockDescriptor:
                blocks[index] = entry
    return reached, {key: errors[key] for key in unread}


def collect_garbage(store: LocalBlobStore, blob_id: str, retain_from: int) -> GcReport:
    """Drop snapshots of *blob_id* older than *retain_from*.

    Versions ``>= retain_from`` (up to the latest) remain readable
    byte-for-byte; lower versions become :class:`VersionNotFound`.
    Shared nodes/blocks still referenced by retained snapshots survive.
    """
    if retain_from < 1:
        raise ValueError(f"retain_from must be >= 1, got {retain_from}")
    # The horizon before the watermark: a write retired between the two
    # reads has a version at or below the watermark, so it is marked.
    horizon = store.gc_horizon()
    vm = store.version_manager
    watermark, roots = store._vman_call(lambda: _control_plane(vm, blob_id, retain_from))

    reached, unread = mark_reachable(store, roots)
    if unread:
        raise next(iter(unread.values()))
    marked_blocks = {
        descriptor.block_id for _, blocks in reached.values() for descriptor in blocks.values()
    }

    # Sweep: one round of delete requests to the online metadata
    # buckets (every replica holds full keys), then one to the online
    # data providers.  A bucket or provider down before or during its
    # request keeps its garbage — a provider its allocator charge too,
    # e.g. for replicas a rolled-back write stranded — for the first
    # pass after it recovers, so each charge is released exactly once.
    dht = store.metadata.store
    doomed = {
        bucket.name: [
            key
            for key in bucket.keys()
            if isinstance(key, NodeKey)
            and key.blob_id == blob_id
            and key.version <= watermark
            and key not in reached
        ]
        for bucket in dht.online_buckets()
    }
    failed = dht.delete_by_bucket(doomed)
    swept_keys = {key for name, keys in doomed.items() if name not in failed for key in keys}
    # Cache-invalidation path #2 (DESIGN.md §9): a cached descent must
    # never resurrect a swept node.
    for key in swept_keys:
        store.metadata.invalidate_cached(key)

    garbage = {
        provider.name: [
            block_id
            for block_id in provider.block_ids()
            if block_id[0] == blob_id and block_id[1] < horizon and block_id not in marked_blocks
        ]
        for provider in store.providers.values()
        if provider.online
    }
    blocks_deleted = 0
    bytes_freed = 0
    for name, freed in store._delete_blocks(garbage).items():
        for nbytes in freed.values():
            if nbytes:  # 0: a racing rollback deleted it and released it
                blocks_deleted += 1
                bytes_freed += nbytes
                store.provider_manager.release(name, nbytes)

    return GcReport(
        blob_id=blob_id,
        retain_from=retain_from,
        nodes_deleted=len(swept_keys),
        blocks_deleted=blocks_deleted,
        bytes_freed=bytes_freed,
    )
