"""Anti-entropy scrub: the store's one repair pass (DESIGN.md §8).

Every repair runs here; there is no per-blob or per-version entry
point beside it.  The versioning paper's model (Nicolae et al.) assumes
replicas converge from durable state alone, and one incremental pass
(:func:`scrub_store`) makes them:

1. **tombstone reconciliation** — for every tombstoned version, the
   filler patch is re-derived from the version manager's durable spec
   and force-healed onto every online replica that is missing it *or
   holds a stale real-patch node of the dead write* (the recovered-
   bucket case).
2. **metadata replica reconciliation** — every tree-node key held by
   any online bucket is compared across its online owner replicas;
   lagging replicas (down during the original publish) are re-fed from
   any healthy copy, and divergent *leaf or run* replicas (a repair
   rewrote replica sets while one bucket was down) are reconciled entry
   by entry in favour of the copy with the most live block replicas.
3. **block re-replication** (paper §VI-B) — every retained snapshot's
   under-replicated blocks — the entries of leaves and runs its clips
   reach (DESIGN.md §4) — are copied back up to target by
   :func:`repair_leaf`, one republish per leaf or run, best effort (a
   block with no surviving replica is reported, not raised, so one
   lost block cannot stop the pass).

Replica-set location is the one piece of metadata treated as mutable:
a block repair rewrites its leaf or run with the updated provider
tuples.  The
block's *identity and contents* stay immutable, so snapshot semantics
are unaffected.

The pass never blocks the foreground read/write path: it takes the
store's control-plane lock only to snapshot version-manager state, it
skips versions that are in flight (their publish is racing, not
broken), it skips keys below the GC floor (healing them could resurrect
swept garbage; deleting them is GC's job — a below-floor node may still
be shared with a descendant branch), and all heavy I/O runs through the
store's bounded :class:`~repro.blob.async_engine.AsyncIOEngine` window,
optionally paced by a :class:`~repro.util.throttle.TokenBucket`, so
scrubbing yields to client I/O instead of starving it.

The pass runs only when asked.  Every caller — ``repro.cli scrub`` (a
self-contained chaos demonstration) and direct library use — goes
through ``LocalBlobStore.scrub``, which calls
:func:`scrub_store` with ``TokenBucket(ops_per_sec, burst=1)`` when a
rate is given and unpaced otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, TYPE_CHECKING, Union

from repro.blob.block import BlockDescriptor, BlockId
from repro.blob.metadata import agreed_value
from repro.blob.segment_tree import (
    LeafNode,
    NodeKey,
    RunLeaf,
    TreeNode,
    build_tombstone_patch,
    clipped_entries,
    iter_reachable_batched,
)
from repro.blob.version_manager import SnapshotInfo, TombstoneSpec
from repro.dht.store import MISSING
from repro.errors import (
    BlobError,
    ProviderError,
    ProviderUnavailable,
    ReplicationError,
)
from repro.util.throttle import TokenBucket

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store imports us not)
    from repro.blob.store import LocalBlobStore

#: The nodes that carry block descriptors: a leaf, or a run of them.
Leaf = Union[LeafNode, RunLeaf]

__all__ = [
    "ScrubReport",
    "live_replicas",
    "repair_leaf",
    "scrub_store",
]


@dataclass(frozen=True)
class ScrubReport:
    """What one anti-entropy pass examined and healed.

    ``errors`` lists conditions the pass could observe but not repair
    (a block with no live replica, a subtree on an offline bucket);
    they stay for the next pass — or for the GC/operator — and never
    abort the sweep.
    """

    blobs_scanned: int = 0
    #: Tombstoned versions whose filler patch was re-derived and checked.
    tombstones_checked: int = 0
    #: Filler nodes force-healed (missing or stale real-patch replicas).
    filler_republished: int = 0
    #: Ordinary tree-node keys compared across their online replicas.
    nodes_checked: int = 0
    #: Missing replica copies re-fed from a healthy replica.
    replicas_healed: int = 0
    #: Divergent leaf replicas reconciled (stale replica-set tuples).
    conflicts_resolved: int = 0
    #: Non-zero leaves whose block replication level was verified.
    blocks_checked: int = 0
    #: Blocks found under target and brought back up.
    blocks_repaired: int = 0
    #: Replicas added while repairing: fresh copies, plus copies a
    #: provider already held that the leaf now names.
    copies_created: int = 0
    #: Keys skipped because their version sits below the blob's GC floor.
    skipped_gc_floor: int = 0
    #: Keys skipped because their version is still in flight.
    skipped_in_flight: int = 0
    #: Metadata buckets that were offline for the whole pass.
    offline_buckets: int = 0
    errors: tuple[str, ...] = ()

    @property
    def healed_total(self) -> int:
        """Everything this pass changed (metadata nodes + block copies)."""
        return (
            self.filler_republished
            + self.replicas_healed
            + self.conflicts_resolved
            + self.copies_created
        )

    @property
    def clean(self) -> bool:
        """True when the pass found nothing to heal and no errors."""
        return self.healed_total == 0 and not self.errors


@dataclass
class _BlobPlan:
    """Control-plane snapshot of one BLOB, taken under the store lock."""

    blob_id: str
    gc_floor: int
    replication: int
    in_flight: frozenset[int]
    tombstone_specs: list[TombstoneSpec] = field(default_factory=list)
    #: Every retained published snapshot, oldest first (phase 3's roots).
    snapshots: list[SnapshotInfo] = field(default_factory=list)


def _snapshot_control_plane(store: "LocalBlobStore") -> list[_BlobPlan]:
    """One short critical section through the store's version-manager
    seam: everything the pass needs from the version manager, so no
    scrub I/O ever holds the version-manager lock."""
    vm = store.version_manager

    def plans() -> list[_BlobPlan]:
        out = []
        for blob_id in vm.blob_ids():
            state = vm.blob(blob_id)
            plan = _BlobPlan(
                blob_id=blob_id,
                gc_floor=state.gc_floor,
                replication=state.replication,
                in_flight=frozenset(vm.in_flight(blob_id)),
            )
            for version in sorted(state.tombstoned):
                if version < state.gc_floor:
                    continue  # its tree was swept; republishing resurrects garbage
                if vm.owner_of(blob_id, version) != blob_id:
                    continue  # inherited across a branch: the ancestor owns the keys
                plan.tombstone_specs.append(vm.tombstone_spec(blob_id, version))
            plan.snapshots = [
                vm.snapshot_info(blob_id, version)
                for version in range(max(state.gc_floor, 1), state.published + 1)
            ]
            out.append(plan)
        return out

    return store._vman_call(plans)


#: Keys per batched replica-enumeration pass in the reconciliation
#: phase: large enough to amortize the round trip, small enough that a
#: paced pass heals from replica answers that are still fresh.
_RECONCILE_CHUNK = 64


def _scrub_tombstones(
    store: "LocalBlobStore",
    plan: _BlobPlan,
    throttle: Optional[TokenBucket],
    counters: dict,
    errors: list[str],
) -> set[NodeKey]:
    """Phase 1: heal every tombstone's filler patch in place.

    Force-overwrites any online replica that is missing a filler node
    or still holds a stale real-patch node of the dead write.  Returns
    the filler key set so the reconciliation phase skips them.
    """
    filler_keys: set[NodeKey] = set()
    for spec in plan.tombstone_specs:
        counters["tombstones_checked"] += 1
        patch = build_tombstone_patch(
            blob_id=spec.blob_id,
            version=spec.version,
            write_start=spec.start_block,
            write_end=spec.end_block,
            size_after=spec.size_after,
            prior_size=spec.prior_size,
            block_size=spec.block_size,
            history=spec.history,
        )
        # One batched DHT pass answers the whole patch's replica state.
        replica_maps = store.metadata.replica_nodes_many(
            [node.key for node in patch]
        )
        for node in patch:
            filler_keys.add(node.key)
            if throttle is not None:
                throttle.acquire()
            for bucket_name, value in replica_maps[node.key].items():
                if value is MISSING or value != node:
                    if _heal(store, bucket_name, node, errors):
                        counters["filler_republished"] += 1
    return filler_keys


def live_replicas(store: "LocalBlobStore", descriptor: BlockDescriptor) -> list[str]:
    """Replica providers that are online *and* still hold the block."""
    return [
        name
        for name in descriptor.providers
        if name in store.providers and store.providers[name].has(descriptor.block_id)
    ]


def repair_leaf(
    store: "LocalBlobStore", node: Leaf, target: int, indices: Iterable[int]
) -> tuple[int, int, list[str]]:
    """Restore a leaf's or a run's blocks to *target* live replicas.

    *indices* names the block indices to check: the scrub passes the
    entries some retained snapshot reaches, so a block overwritten
    inside a still-shared run is never repaired.
    Per block, new homes are live providers not already serving it.
    One that already holds the block — a copy an earlier repair could
    not record, or the loser of a leaf divergence — is adopted as it
    is; the others receive a copy from a surviving replica, each
    charged to the provider manager like a placement.  The node is then
    republished **once**, every repaired entry naming its new replica
    set, through the same force multi-put as tombstone filler, which
    also invalidates the node cache (a cached pre-repair node would
    keep naming the dead sets).

    A block that cannot be repaired — **no** live replica (data loss:
    only a re-write can recover it), too few live providers to reach
    *target*, a failed copy — keeps its entry and its own copies are
    removed; it is reported in the returned errors and the other blocks
    are still repaired.  If no metadata replica takes the node, every
    copy this call made is removed and their charges returned before
    :class:`ReplicationError` propagates.  Returns ``(blocks repaired,
    replicas added, errors)``; replicas added count adopted ones too.
    """
    base = node.key.offset
    entries = list(clipped_entries(node, base, node.key.end))
    made: list[tuple[BlockDescriptor, list[str]]] = []
    repaired = added = 0
    errors: list[str] = []
    try:
        for index in sorted(indices):
            descriptor = entries[index - base]
            if type(descriptor) is not BlockDescriptor:
                continue
            try:
                restored = _restore_block(store, descriptor, target, made)
            except (ReplicationError, ProviderError) as exc:
                errors.append(str(exc))
                continue
            if restored is not None:
                homes, copies = restored
                # Through the constructor: ``_replace`` skips its checks.
                entries[index - base] = BlockDescriptor(
                    **{**descriptor._asdict(), "providers": homes}
                )
                repaired += 1
                added += copies
        if repaired:
            if store.metadata.put_fillers([_rebuilt(node.key, entries)]):
                raise ReplicationError(
                    f"no live metadata replica took the repaired node {node.key}"
                )
    except BaseException:
        for descriptor, landed in made:
            _remove_copies(store, descriptor.block_id, landed, descriptor.size)
        raise
    return repaired, added, errors


def _restore_block(
    store: "LocalBlobStore",
    descriptor: BlockDescriptor,
    target: int,
    made: list[tuple[BlockDescriptor, list[str]]],
) -> Optional[tuple[tuple[str, ...], int]]:
    """Bring one block to *target* live replicas: its new replica set
    and the replicas added, or ``None`` when already at target.  The
    copies it lands are recorded in *made*; on failure it removes them
    itself and raises."""
    block_id = descriptor.block_id
    live = live_replicas(store, descriptor)
    if len(live) >= target:
        return None
    if not live:
        raise ReplicationError(
            f"block {block_id} of blob {descriptor.blob_id!r} has no live replica"
        )
    needed = target - len(live)
    candidates = [
        p.name for p in store.provider_manager.live_providers() if p.name not in live
    ]
    adopted = [name for name in candidates if store.providers[name].has(block_id)][:needed]
    fresh = [name for name in candidates if name not in adopted][: needed - len(adopted)]
    if len(adopted) + len(fresh) < needed:
        raise ReplicationError(
            f"not enough live providers to restore replication {target} "
            f"for block {block_id}"
        )
    landed: list[str] = []

    def copy(name: str):
        provider = store.providers[name]
        yield provider._issue()
        provider._put_vector(((block_id, payload),), None)
        store.provider_manager.charge(name, descriptor.size)
        landed.append(name)

    if fresh:
        try:
            payload = store.providers[live[0]].get(block_id)
            # Maintenance traffic shares the I/O engine's bounded window
            # with foreground I/O.
            store._map_io(copy, fresh, dest=lambda name: name)
        except BaseException:
            _remove_copies(store, block_id, landed, descriptor.size)
            raise
        finally:  # the repair's own transfer; a stored block needs no copy
            store.copy_stats.record("provider.put", transferred=len(landed) * descriptor.size)
        made.append((descriptor, landed))
    return tuple(live + adopted + fresh), needed


def _remove_copies(
    store: "LocalBlobStore", block_id: BlockId, homes: list[str], nbytes: int
) -> None:
    """Undo a failed repair's copies and their charges.  A copy whose
    provider went down keeps its charge, like a rolled-back write's
    stranded replica: the next repair adopts it, or the GC sweep that
    collects the block deletes it and returns the charge."""
    for name in homes:
        try:
            freed = store.providers[name].delete(block_id)
        except ProviderUnavailable:
            continue
        if freed:
            store.provider_manager.release(name, nbytes)


def _heal(
    store: "LocalBlobStore", bucket_name: str, node: TreeNode, errors: list[str]
) -> bool:
    """One targeted replica write, best effort.

    A bucket dying between the pass's enumeration and this write must
    not abort the sweep (the same mid-sweep rule the GC follows): the
    failure is recorded and the bucket heals on the first pass after
    it recovers.  Returns whether the write landed.
    """
    try:
        store.metadata.heal_replica(bucket_name, node)
        return True
    except (ProviderError, ReplicationError) as exc:
        errors.append(f"heal of {node.key} on {bucket_name} failed: {exc}")
        return False


def _reconcile_leaf_divergence(
    store: "LocalBlobStore", values: dict[str, object]
) -> Optional[TreeNode]:
    """Authority for divergent leaf or run replicas: the same immutable
    blocks, but replica-set tuples rewritten by repairs while a bucket
    was down.  Entry by entry, the copy naming the most live block
    replicas wins (freshest view); anything else differing is an
    immutability violation we refuse to guess about."""
    copies = [v for v in values.values() if v is not MISSING]
    if not copies or not all(isinstance(v, (LeafNode, RunLeaf)) for v in copies):
        return None
    key = copies[0].key
    merged: list = []
    for column in zip(*(clipped_entries(v, key.offset, key.end) for v in copies)):
        if len({_identity(entry) for entry in column}) != 1:
            return None
        merged.append(
            max(
                column,
                key=lambda e: len(live_replicas(store, e)) if type(e) is BlockDescriptor else 0,
            )
        )
    return _rebuilt(key, merged)


def _rebuilt(key: NodeKey, entries: list) -> Leaf:
    """The leaf (span 1) or run at *key* carrying *entries*."""
    if key.span == 1:
        return LeafNode(key=key, block=entries[0])
    return RunLeaf(key=key, entries=tuple(entries))


def _identity(entry) -> object:
    """What two replicas of one run entry must agree on."""
    if type(entry) is NodeKey:
        return entry
    return (entry.block_id, entry.size, entry.index, entry.is_zero)


def _reconcile_replicas(
    store: "LocalBlobStore",
    plans: dict[str, _BlobPlan],
    skip_keys: set[NodeKey],
    throttle: Optional[TokenBucket],
    counters: dict,
    errors: list[str],
) -> None:
    """Phase 2: converge every remaining key's online replica set.

    Keys that survive the cheap skip filters are examined in batches:
    one :meth:`~repro.blob.metadata.MetadataService.replica_nodes_many`
    pass answers a whole chunk, while healing stays per-replica and
    best-effort.
    """
    eligible: list[NodeKey] = []
    for key in sorted(store.metadata.all_node_keys(), key=repr):
        if key in skip_keys:
            continue
        plan = plans.get(key.blob_id)
        if plan is None:
            continue  # foreign key (test debris); nothing authoritative to say
        if key.version in plan.in_flight:
            counters["skipped_in_flight"] += 1
            continue  # publish still racing — absence is not damage yet
        if key.version < plan.gc_floor:
            counters["skipped_gc_floor"] += 1
            continue  # below the floor: GC's to delete, never ours to heal
        eligible.append(key)

    for start in range(0, len(eligible), _RECONCILE_CHUNK):
        chunk = eligible[start : start + _RECONCILE_CHUNK]
        replica_maps = store.metadata.replica_nodes_many(chunk)
        for key in chunk:
            values = replica_maps[key]
            if not values:
                continue  # every owner offline; nothing to compare
            counters["nodes_checked"] += 1
            if throttle is not None:
                throttle.acquire()
            if all(v is MISSING for v in values.values()):
                # The only holder went offline since enumeration: not a
                # conflict, just nothing to heal from until it recovers.
                errors.append(f"no online replica holds {key}; recheck after recovery")
                continue
            authority = agreed_value(values)
            divergent = authority is None
            if divergent:
                authority = _reconcile_leaf_divergence(store, values)
                if authority is None:
                    errors.append(
                        f"unreconcilable divergence at {key}: "
                        f"{sorted(values, key=repr)} disagree on immutable content"
                    )
                    continue
            for bucket_name, value in values.items():
                if value is MISSING or value != authority:
                    if _heal(store, bucket_name, authority, errors):
                        if divergent:
                            counters["conflicts_resolved"] += 1
                        else:
                            counters["replicas_healed"] += 1


def _scrub_blocks(
    store: "LocalBlobStore",
    plan: _BlobPlan,
    seen: set[NodeKey],
    throttle: Optional[TokenBucket],
    counters: dict,
    errors: list[str],
) -> None:
    """Phase 3: restore block replication over every retained snapshot.

    Walks each retained version's tree with a shared seen-set so nodes
    shared between snapshots (the common case) are checked exactly
    once, collecting per leaf or run the block entries some snapshot
    reaches; then repairs each such node once.  Repair failures are
    recorded, never raised: the sweep is incremental by contract.
    """
    resolver = store.key_resolver()
    reached: dict[NodeKey, tuple[Leaf, set[int]]] = {}
    for info in plan.snapshots:
        if info.size == 0:
            continue
        root = NodeKey(info.blob_id, info.version, 0, info.root_span)
        try:
            # Level-batched walk with the shared seen-set as its prune
            # list: subtrees already checked under another version are
            # neither re-fetched nor re-walked.
            visits = list(
                iter_reachable_batched(
                    store.metadata.get_nodes,
                    root,
                    key_resolver=resolver,
                    seen=seen,
                )
            )
        except (BlobError, ProviderError) as exc:
            # A subtree on an offline bucket: the tree heals when the
            # bucket recovers (phase 2 of a later pass); record and go on.
            errors.append(f"{plan.blob_id} v{info.version}: tree unreadable: {exc}")
            continue
        for node, lo, hi in visits:
            stored = [
                lo + i
                for i, entry in enumerate(clipped_entries(node, lo, hi))
                if type(entry) is BlockDescriptor
            ]
            if stored:
                reached.setdefault(node.key, (node, set()))[1].update(stored)

    for node, indices in reached.values():
        counters["blocks_checked"] += len(indices)
        if throttle is not None:
            for _ in indices:
                throttle.acquire()
        try:
            repaired, copies, failed = repair_leaf(store, node, plan.replication, indices)
        except (ReplicationError, ProviderError) as exc:
            errors.append(f"{plan.blob_id}: {exc}")
            continue
        errors.extend(f"{plan.blob_id}: {message}" for message in failed)
        counters["blocks_repaired"] += repaired
        counters["copies_created"] += copies


def scrub_store(
    store: "LocalBlobStore",
    throttle: Optional[TokenBucket] = None,
) -> ScrubReport:
    """Run one full anti-entropy pass over every BLOB of *store*.

    Safe to run concurrently with reads, writes and other scrub passes
    (healing is idempotent: it only ever writes values derivable from
    durable state).  With *throttle* set, the pass paces itself so
    foreground I/O keeps priority on the shared I/O engine: every
    checked item acquires one token.
    """
    plans = _snapshot_control_plane(store)
    counters = {
        "tombstones_checked": 0,
        "filler_republished": 0,
        "nodes_checked": 0,
        "replicas_healed": 0,
        "conflicts_resolved": 0,
        "blocks_checked": 0,
        "blocks_repaired": 0,
        "copies_created": 0,
        "skipped_gc_floor": 0,
        "skipped_in_flight": 0,
    }
    errors: list[str] = []

    filler_keys: set[NodeKey] = set()
    for plan in plans:
        filler_keys |= _scrub_tombstones(store, plan, throttle, counters, errors)

    _reconcile_replicas(
        store,
        {p.blob_id: p for p in plans},
        filler_keys,
        throttle,
        counters,
        errors,
    )

    seen: set[NodeKey] = set()
    for plan in plans:
        _scrub_blocks(store, plan, seen, throttle, counters, errors)

    dht = store.metadata.store
    online = sum(1 for _ in dht.online_buckets())
    return ScrubReport(
        blobs_scanned=len(plans),
        offline_buckets=len(dht.buckets) - online,
        errors=tuple(errors),
        **counters,
    )
