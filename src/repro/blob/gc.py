"""Version garbage collection.

The paper keeps all past versions "at least as long as they have not
been garbaged for the sake of storage space" (§III-A.1).  Because
subtrees and blocks are *shared* between snapshots, dropping old
versions must not touch anything a retained snapshot still references —
so collection is a mark-and-sweep over the metadata trees:

1. **mark** — traverse the segment tree of every retained version and
   record every reachable tree node and block id;
2. **sweep** — delete this BLOB's unmarked tree nodes from the metadata
   buckets and its unmarked blocks from the data providers.

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
nodes alive; zero blocks mark nothing.

Runs (DESIGN.md §4) are marked per entry: a run is live if any
retained snapshot reaches it, but only the entries inside the clips
that reach it mark their blocks, so a block overwritten inside a run
that is still shared is freed like any other dead block.

Only the *sweep* tolerates offline metadata buckets.  The mark phase
must read every retained snapshot's tree, and deliberately fails
(rather than under-marks, which would delete live nodes) when one is
unreachable — including a tombstone whose filler could not be fully
published during the outage.  Either retain from a version past the
unreadable one, or heal the buckets and run ``store.scrub()`` first.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.blob.block import BlockDescriptor
from repro.blob.segment_tree import NodeKey, clipped_entries, iter_reachable_batched
from repro.blob.store import LocalBlobStore
from repro.blob.version_manager import VersionManagerCore
from repro.errors import BlobError, ProviderUnavailable

__all__ = ["GcReport", "collect_garbage"]


@dataclass(frozen=True)
class GcReport:
    """What one collection pass removed."""

    blob_id: str
    retain_from: int
    nodes_deleted: int
    blocks_deleted: int
    bytes_freed: int


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
    roots = []
    for owner, first, last in retained:
        for version in range(first, last + 1):
            info = vm.snapshot_info(owner, version)
            if info.size:
                roots.append(NodeKey(owner, version, 0, info.root_span))
    vm.set_gc_floor(blob_id, retain_from)
    return watermark, roots


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

    # Mark phase: one level-batched walk from every retained root at
    # once — one metadata pass per level of the deepest tree (DESIGN.md
    # §9), a subtree shared between snapshots fetched and walked once.
    marked_nodes: set[NodeKey] = set()
    marked_blocks: set[tuple] = set()
    for node, lo, hi in iter_reachable_batched(
        store.metadata.get_nodes, roots, key_resolver=store.key_resolver()
    ):
        marked_nodes.add(node.key)
        for entry in clipped_entries(node, lo, hi):
            if type(entry) is BlockDescriptor:
                marked_blocks.add(entry.block_id)

    # Sweep metadata buckets (every replica holds full keys; sweep
    # each) in one round of delete requests.  Offline buckets are
    # skipped via the shared ``online_buckets`` skip-list — the same
    # rule the scrub pass uses — exactly like the data-provider sweep
    # below: their garbage keeps until the first pass after recovery,
    # and a bucket dying before or during its request keeps its share.
    dht = store.metadata.store
    doomed = {
        bucket.name: [
            key
            for key in bucket.keys()
            if isinstance(key, NodeKey)
            and key.blob_id == blob_id
            and key.version <= watermark
            and key not in marked_nodes
        ]
        for bucket in dht.online_buckets()
    }
    failed = dht.delete_by_bucket(doomed)
    swept_keys = {key for name, keys in doomed.items() if name not in failed for key in keys}
    # Cache-invalidation path #2 (DESIGN.md §9): a cached descent must
    # never resurrect a swept node.
    for key in swept_keys:
        store.metadata.invalidate_cached(key)
    nodes_deleted = len(swept_keys)

    # Sweep data providers.  Offline providers are skipped, not an
    # error — including ones that go down *during* the sweep: their
    # garbage (e.g. replicas stranded by a rolled-back write) keeps
    # its allocator charge and is reclaimed by the first sweep after
    # they recover, so each charge is released exactly once and a
    # down provider can't abort a pass midway.
    blocks_deleted = 0
    bytes_freed = 0
    for provider in store.providers.values():
        if not provider.online:
            continue
        for block_id in provider.block_ids():
            if (
                block_id[0] == blob_id
                and block_id[1] < horizon
                and block_id not in marked_blocks
            ):
                try:
                    freed = provider.delete(block_id)
                except ProviderUnavailable:
                    break  # went down mid-sweep; next pass finishes it
                if freed == 0:
                    # Already gone (raced with a concurrent write
                    # rollback): whoever deleted it returned its
                    # charge; releasing again would undercount.
                    continue
                blocks_deleted += 1
                bytes_freed += freed
                store.provider_manager.release(provider.name, freed)

    return GcReport(
        blob_id=blob_id,
        retain_from=retain_from,
        nodes_deleted=nodes_deleted,
        blocks_deleted=blocks_deleted,
        bytes_freed=bytes_freed,
    )
