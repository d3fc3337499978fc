"""Anti-entropy scrub: the store's one repair pass (DESIGN.md §8).

Every repair runs here; there is no per-blob or per-version entry
point beside it.  The versioning paper's model (Nicolae et al.) assumes
replicas converge from durable state alone, and one incremental pass
(:func:`scrub_store`) makes them:

1. **replica reconciliation** — every tree-node key held by any
   online bucket is compared across its online owner replicas, in
   chunks of one peek round and one heal round each.  A tombstone's
   filler patch, re-derived from the version manager's durable spec, is
   its keys' authority: a replica missing it *or holding a stale
   real-patch node of the dead write* (the recovered-bucket case) is
   overwritten.  Any other key is re-fed from a healthy copy where it
   lags (down during the original publish), and divergent *leaf or run*
   replicas (a repair rewrote replica sets while one bucket was down)
   are reconciled entry by entry in favour of the copy with the most
   live block replicas.
2. **block re-replication** (paper §VI-B) — GC's mark
   (:func:`~repro.blob.gc.mark_reachable`), one walk from every
   retained root of every BLOB, finds the entries of leaves and runs
   some snapshot's clips reach (DESIGN.md §4); every under-replicated
   one is planned, then brought back up to the owning BLOB's target in
   rounds through the store's own I/O paths: one gather of the
   sources, one scatter of the copies, one republish of every repaired
   leaf or run, one delete round for what failed.  A block that cannot
   be repaired is reported, not raised, so one lost block cannot stop
   the pass.  A key the walk could not read is one error and stops
   only the subtree below it.

Replica-set location is the one piece of metadata treated as mutable:
a block repair rewrites its leaf or run with the updated provider
tuples.  The block's *identity and contents* stay immutable, so snapshot semantics
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
from operator import itemgetter
from typing import Optional, TYPE_CHECKING, Union

from repro.blob.block import BlockDescriptor, BlockId
from repro.blob.gc import mark_reachable, snapshot_roots
from repro.blob.metadata import agreed_value
from repro.blob.segment_tree import (
    LeafNode,
    NodeKey,
    RunLeaf,
    TreeNode,
    clipped_entries,
)
from repro.blob.version_manager import TombstoneSpec
from repro.dht.store import MISSING
from repro.errors import (
    ProviderError,
    ReplicationError,
)
from repro.util.throttle import TokenBucket

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store imports us not)
    from repro.blob.store import Landed, LocalBlobStore

#: The nodes that carry block descriptors: a leaf, or a run of them.
Leaf = Union[LeafNode, RunLeaf]

__all__ = [
    "ScrubReport",
    "live_replicas",
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
    #: Root of every retained non-empty snapshot, oldest first (phase 2).
    roots: list[NodeKey] = field(default_factory=list)


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
            plan.roots = snapshot_roots(vm, blob_id, max(state.gc_floor, 1), state.published)
            out.append(plan)
        return out

    return store._vman_call(plans)


#: Keys per batched replica-enumeration pass in the reconciliation
#: phase: large enough to amortize the round trip, small enough that a
#: paced pass heals from replica answers that are still fresh.
_RECONCILE_CHUNK = 64


def live_replicas(store: "LocalBlobStore", descriptor: BlockDescriptor) -> list[str]:
    """Replica providers that are online *and* still hold the block."""
    return [
        name
        for name in descriptor.providers
        if name in store.providers and store.providers[name].has(descriptor.block_id)
    ]


def _heal(
    store: "LocalBlobStore",
    heals: list[tuple[str, TreeNode, str]],
    counters: dict,
    errors: list[str],
) -> None:
    """One round of targeted replica writes, best effort: each
    ``(bucket, node, counter)`` heal that lands adds one to its counter.

    A bucket dying between the pass's enumeration and its write must
    not abort the sweep (the same mid-sweep rule the GC follows): each
    of its heals is recorded as an error and the bucket heals on the
    first pass after it recovers.
    """
    failed = store.metadata.heal_replicas([(name, node) for name, node, _ in heals])
    for bucket_name, node, counter in heals:
        if bucket_name in failed:
            errors.append(f"heal of {node.key} on {bucket_name} failed: {failed[bucket_name]}")
        else:
            counters[counter] += 1


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
    throttle: Optional[TokenBucket],
    counters: dict,
    errors: list[str],
) -> None:
    """Phase 1: converge every key's online replica set.

    A tombstone's filler patch, re-derived from the version manager's
    durable spec, is its keys' authority: any online replica missing a
    filler node or still holding a stale real-patch node of the dead
    write is overwritten.  Every other key that survives the cheap skip
    filters takes its authority from its replicas.  The filler keys go
    first, then every key is examined in chunks: one
    :meth:`~repro.blob.metadata.MetadataService.replica_nodes_many`
    pass answers a whole chunk, and one heal round re-feeds its damaged
    replicas, best effort per bucket.
    """
    fillers: dict[NodeKey, TreeNode] = {}
    for plan in plans.values():
        for spec in plan.tombstone_specs:
            counters["tombstones_checked"] += 1
            fillers.update((node.key, node) for node in spec.patch())
    eligible = list(fillers)
    for key in sorted(store.metadata.all_node_keys(), key=repr):
        if key in fillers:
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
        heals: list[tuple[str, TreeNode, str]] = []
        for key in chunk:
            values = replica_maps[key]
            filler = fillers.get(key)
            if filler is None and not values:
                continue  # every owner offline; nothing to compare
            if throttle is not None:
                throttle.acquire()
            if filler is not None:
                heals.extend(
                    (bucket_name, filler, "filler_republished")
                    for bucket_name, value in values.items()
                    if value is MISSING or value != filler
                )
                continue
            counters["nodes_checked"] += 1
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
                    counter = "conflicts_resolved" if divergent else "replicas_healed"
                    heals.append((bucket_name, authority, counter))
        _heal(store, heals, counters, errors)


@dataclass(frozen=True)
class _Repair:
    """One under-replicated block's plan: its node and index there, its
    new entry (live replicas first, then adopted ones, then fresh), the
    providers that receive a fresh copy, and the replicas it gains."""

    node: Leaf
    index: int
    new: BlockDescriptor
    fresh: list[str]
    added: int


def _homes(
    store: "LocalBlobStore",
    descriptor: BlockDescriptor,
    target: int,
    candidates: list[str],
) -> Optional[tuple[list[str], list[str], list[str]]]:
    """What brings one block to *target* live replicas, or ``None`` when
    it is there: its live replicas, the *candidates* adopted as they are
    because they already hold it (a copy an earlier repair could not
    record, or the loser of a leaf divergence), and those that receive
    a fresh copy.  Raises :class:`ReplicationError` when no replica
    survives (data loss: only a re-write can recover it) or too few
    providers are live."""
    block_id = descriptor.block_id
    live = live_replicas(store, descriptor)
    if len(live) >= target:
        return None
    if not live:
        raise ReplicationError(
            f"block {block_id} of blob {descriptor.blob_id!r} has no live replica"
        )
    needed = target - len(live)
    spare = [name for name in candidates if name not in live]
    adopted = [name for name in spare if store.providers[name].has(block_id)][:needed]
    fresh = [name for name in spare if name not in adopted][: needed - len(adopted)]
    if len(adopted) + len(fresh) < needed:
        raise ReplicationError(
            f"not enough live providers to restore replication {target} "
            f"for block {block_id}"
        )
    return live, adopted, fresh


def _scrub_blocks(
    store: "LocalBlobStore",
    plans: dict[str, _BlobPlan],
    throttle: Optional[TokenBucket],
    counters: dict,
    errors: list[str],
) -> None:
    """Phase 2: restore block replication over every retained snapshot.

    One mark walks every retained root of every BLOB at once, so nodes
    shared between snapshots and branches (the common case) are checked
    exactly once, collecting per leaf or run the block entries some
    snapshot reaches.  A key the walk could not read (a subtree on an
    offline bucket) is one error and stops only the subtree below it:
    the tree heals when the bucket recovers (phase 1 of a later pass).
    Then every reached block below the replication of the BLOB that
    owns its key is planned, and :func:`_repair_blocks` runs the plan
    in rounds.  A block that cannot be repaired keeps its entry and is
    recorded, never raised: the sweep is incremental by contract.
    """
    roots = [root for plan in plans.values() for root in plan.roots]
    reached, unread = mark_reachable(store, roots)
    errors.extend(f"{key.blob_id}: subtree unreadable: {exc}" for key, exc in unread.items())
    candidates = [p.name for p in store.provider_manager.live_providers()]
    repairs: list[_Repair] = []
    for node, blocks in reached.values():
        owner = node.key.blob_id
        counters["blocks_checked"] += len(blocks)
        for index in sorted(blocks):
            if throttle is not None:
                throttle.acquire()
            old = blocks[index]
            try:
                homes = _homes(store, old, plans[owner].replication, candidates)
            except ReplicationError as exc:
                errors.append(f"{owner}: {exc}")
                continue
            if homes is not None:
                live, adopted, fresh = homes
                providers = tuple(live + adopted + fresh)
                # Through the constructor: ``_replace`` skips its checks.
                new = BlockDescriptor(**{**old._asdict(), "providers": providers})
                repairs.append(_Repair(node, index, new, fresh, len(adopted) + len(fresh)))
    stored: "Landed" = []
    try:
        failed = _repair_blocks(store, repairs, stored, counters, errors)
    except BaseException:
        _remove_copies(store, stored)
        raise
    _remove_copies(store, [(name, [b for b in ids if b in failed]) for name, ids in stored])


def _repair_blocks(
    store: "LocalBlobStore",
    repairs: list[_Repair],
    stored: "Landed",
    counters: dict,
    errors: list[str],
) -> set[BlockId]:
    """Run the planned *repairs* through the store's own I/O paths and
    return the ids of the blocks that failed.

    One gather of the read path reads every source (with its replica
    failover); one scatter of the write path lands every fresh copy,
    recording it in *stored* and charging it to the provider manager
    like a placement; one force multi-put, the one tombstone filler
    uses, republishes every leaf or run with a repaired block, naming
    its new replica sets and invalidating the node cache (a cached
    pre-repair node would keep naming the dead sets).  A block fails
    when one of its copies did not land — a source or a destination
    died, and the scatter stops at its first failure — or when no
    metadata replica took its node; each cause is one error.
    """
    copying = [r for r in repairs if r.fresh]
    if copying:
        try:
            # The new entry names the block's holders before its fresh homes.
            sources = store._fetch_blocks([r.new for r in copying])
            vectors, send = store._scatter_tasks(
                [r.new.block_id for r in copying],
                [sources[i] for i in range(len(copying))],
                [r.fresh for r in copying],
                stored,
            )
            store._map_io(send, vectors, dest=itemgetter(0))
        except ProviderError as exc:
            errors.append(f"repair copies failed: {exc}")
        finally:
            sizes = {r.new.block_id: r.new.size for r in copying}
            moved = 0
            for name, ids in stored:
                for block_id in ids:
                    store.provider_manager.charge(name, sizes[block_id])
                    moved += sizes[block_id]
            # The repair's own transfer; an adopted block needs no copy.
            store.copy_stats.record("provider.put", transferred=moved)
    landed = {(name, block_id) for name, ids in stored for block_id in ids}
    done = [r for r in repairs if all((name, r.new.block_id) in landed for name in r.fresh)]
    entries: dict[NodeKey, list] = {}
    for r in done:
        key = r.node.key
        if key not in entries:
            entries[key] = list(clipped_entries(r.node, key.offset, key.end))
        entries[key][r.index - key.offset] = r.new
    unstored = set(store.metadata.put_fillers([_rebuilt(k, e) for k, e in entries.items()]))
    errors.extend(
        f"{key.blob_id}: no live metadata replica took the repaired node {key}"
        for key in sorted(unstored, key=repr)
    )
    failed = {r.new.block_id for r in repairs}
    for r in done:
        if r.node.key not in unstored:
            failed.discard(r.new.block_id)
            counters["blocks_repaired"] += 1
            counters["copies_created"] += r.added
    return failed


def _remove_copies(store: "LocalBlobStore", copies: "Landed") -> None:
    """Undo repair copies and their charges, in one round of delete
    requests.  A copy whose provider went down keeps its charge, like a
    rolled-back write's stranded replica: the next repair adopts it, or
    the GC sweep that collects the block deletes it and returns the
    charge."""
    freed = store._delete_blocks(dict(copies))
    for name, blocks in freed.items():
        for nbytes in blocks.values():
            if nbytes:
                store.provider_manager.release(name, nbytes)


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

    by_id = {plan.blob_id: plan for plan in plans}
    _reconcile_replicas(store, by_id, throttle, counters, errors)
    _scrub_blocks(store, by_id, throttle, counters, errors)

    dht = store.metadata.store
    online = sum(1 for _ in dht.online_buckets())
    return ScrubReport(
        blobs_scanned=len(plans),
        offline_buckets=len(dht.buckets) - online,
        errors=tuple(errors),
        **counters,
    )
