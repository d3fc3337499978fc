"""Replication maintenance (paper §VI-B).

Fault tolerance in BlobSeer is "a simple replication mechanism that
allows the user to specify a replication level for each BLOB": writes
fan out each block to that many providers, reads fail over between
replicas (both already built into the store).  This module adds the
maintenance side: finding blocks whose replica sets have dropped below
target after provider failures, and re-replicating them from surviving
copies.

Replica-set location is the one piece of metadata treated as mutable:
repairing a block rewrites the leaf node with an updated provider
tuple.  The block's *identity and contents* stay immutable, so snapshot
semantics are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.blob.block import BlockDescriptor
from repro.blob.segment_tree import LeafNode, NodeKey, iter_reachable
from repro.blob.store import LocalBlobStore
from repro.errors import ReplicationError

__all__ = [
    "RepairReport",
    "find_under_replicated",
    "live_replicas",
    "repair_blob",
    "repair_leaf",
]


@dataclass(frozen=True)
class RepairReport:
    """Outcome of one repair pass over a BLOB."""

    blob_id: str
    blocks_checked: int
    blocks_repaired: int
    copies_created: int


def live_replicas(store: LocalBlobStore, descriptor: BlockDescriptor) -> list[str]:
    """Replica providers that are online *and* still hold the block."""
    return [
        name
        for name in descriptor.providers
        if name in store.providers and store.providers[name].has(descriptor.block_id)
    ]


def find_under_replicated(
    store: LocalBlobStore, blob_id: str, version: int | None = None
) -> list[LeafNode]:
    """Leaves of the snapshot whose blocks have too few live replicas."""
    info = store.snapshot(blob_id, version)
    if info.size == 0:
        return []
    state = store.version_manager.blob(blob_id)
    root = NodeKey(blob_id, info.version, 0, info.root_span)
    lacking = []
    for node in iter_reachable(
        store.metadata.get_node, root, key_resolver=store.key_resolver()
    ):
        if isinstance(node, LeafNode) and not node.block.is_zero:
            # Zero leaves (tombstone filler) are synthesised by readers
            # and store nothing: there is no replica set to maintain.
            if len(live_replicas(store, node.block)) < state.replication:
                lacking.append(node)
    return lacking


def repair_leaf(store: LocalBlobStore, node: LeafNode, target: int) -> int:
    """Restore one leaf's block to *target* live replicas.

    Copies the payload from a surviving replica to fresh providers
    (chosen among live providers not already holding it) and republishes
    the leaf with the updated replica set — the one piece of metadata
    treated as mutable.  Returns the number of copies created (0 when
    the block is already at target).  Raises :class:`ReplicationError`
    if the block has **no** live replica (data loss: only a re-write can
    recover it) or too few live providers exist to reach *target*.

    Shared by :func:`repair_blob` and the scrub pass
    (:mod:`repro.blob.scrub`), so both heal identically.
    """
    descriptor = node.block
    live = live_replicas(store, descriptor)
    if len(live) >= target:
        return 0
    if not live:
        raise ReplicationError(
            f"block {descriptor.block_id} of blob "
            f"{descriptor.blob_id!r} has no live replica"
        )
    payload = store.providers[live[0]].get(descriptor.block_id)
    candidates = [
        p.name
        for p in store.provider_manager.live_providers()
        if p.name not in live
    ]
    needed = target - len(live)
    if len(candidates) < needed:
        raise ReplicationError(
            f"not enough live providers to restore replication {target} "
            f"for block {descriptor.block_id}"
        )
    new_homes = candidates[:needed]
    # Scatter the copies through the store's I/O engine when it has one:
    # maintenance traffic shares the same bounded window as foreground I/O.
    store._map_io(
        lambda name: store.providers[name].put(descriptor.block_id, payload),
        new_homes,
        afn=lambda name: store.providers[name].aput(descriptor.block_id, payload),
        dest=lambda name: name,
    )
    new_descriptor = BlockDescriptor(
        blob_id=descriptor.blob_id,
        version=descriptor.version,
        index=descriptor.index,
        size=descriptor.size,
        providers=tuple(live + new_homes),
        nonce=descriptor.nonce,
        seq=descriptor.seq,
    )
    # Replica location is mutable metadata: replace the leaf in the DHT
    # via the force-put path, which also invalidates the node cache —
    # a cached pre-repair leaf would keep naming the dead replica set.
    store.metadata.put_node(LeafNode(key=node.key, block=new_descriptor), force=True)
    return len(new_homes)


def repair_blob(store: LocalBlobStore, blob_id: str, version: int | None = None) -> RepairReport:
    """Restore the replication level of every block in one snapshot.

    Raises :class:`ReplicationError` if a block cannot be repaired (no
    live replica, or not enough live providers); use the scrub pass for
    a best-effort sweep that records failures instead of raising.
    """
    info = store.snapshot(blob_id, version)
    state = store.version_manager.blob(blob_id)
    target = state.replication
    checked = repaired = created = 0
    if info.size == 0:
        return RepairReport(blob_id, 0, 0, 0)
    root = NodeKey(blob_id, info.version, 0, info.root_span)
    for node in list(
        iter_reachable(
            store.metadata.get_node, root, key_resolver=store.key_resolver()
        )
    ):
        if not isinstance(node, LeafNode) or node.block.is_zero:
            continue
        checked += 1
        copies = repair_leaf(store, node, target)
        if copies:
            created += copies
            repaired += 1
    return RepairReport(blob_id, checked, repaired, created)
