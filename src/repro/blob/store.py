"""LocalBlobStore: the whole BlobSeer service, in process.

Wires the functional cores together — version manager, provider
manager, data providers, metadata DHT — and runs the paper's exact
client protocols against them:

* **write/append** (§III-D): split into blocks → ask the provider
  manager for placements → store blocks (first phase, fully parallel
  in the distributed deployment) → obtain a version ticket (the only
  serialized step) → weave and publish the metadata patch → report
  success, which advances the publication watermark in version order.
* **read** (§III-C): resolve the snapshot with the version manager →
  descend the snapshot's segment tree (metadata providers) → fetch the
  touched blocks, trimming the extremal ones → assemble.

Writes are all-or-nothing at every phase: a failure before version
assignment rolls the stored blocks back, and a failure *after* it
additionally aborts the assigned version — converting it into a
tombstone whose filler metadata keeps concurrent writers' woven
references resolvable (DESIGN.md §7), so a dead writer can never wedge
the publication watermark or block garbage collection.  A committed
version is never aborted: an interrupt that reaches the writer after its
commit flush leaves the published snapshot intact.

This class is the reference implementation the property-based tests
check against a model, and the engine the BSFS file system runs on.
Locking is deliberately two-tier, mirroring the paper's architecture:

* the **control plane** — the version manager alone — sits behind one
  small lock, the real deployment's single serialization point
  (placement is serialized by the provider manager itself);
* the **data plane** (block puts/gets against providers, metadata
  patch weaving) runs without any store-wide lock; each provider
  guards only its own block map.

Block transfers travel as per-provider vectors: a write's replicas are
grouped by provider into one put request per provider, a read's blocks
into one get request per provider (DESIGN.md §13).  With
``io_workers > 0`` the data plane additionally runs *parallel*: the
store's :class:`~repro.blob.async_engine.AsyncIOEngine` issues every
vector of a round at once and waits out their service delays together
on the calling thread, so an op waits about one provider latency
however many providers it touches.  ``io_workers=0`` (the default)
runs the same requests one after another on the calling thread.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import CancelledError
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Union

from repro.blob.block import (
    AnyBlockDescriptor,
    BlockId,
    BytesPayload,
    CopyStats,
    Payload,
    SyntheticPayload,
    concat,
    materialize,
    write_descriptors,
)
from repro.blob.async_engine import AsyncIOEngine, run_inline
from repro.blob.config import DEFAULT_BLOCK_SIZE, StoreConfig
from repro.blob.data_provider import DataProviderCore
from repro.blob.metadata import MetadataService
from repro.blob.provider_manager import ProviderManagerCore
from repro.blob.publish import PublishPipeline, VmanStats
from repro.blob.segment_tree import (
    NodeKey,
    build_patch,
    collect_blocks_batched,
)
from repro.blob.version_manager import (
    AssignRequest,
    SnapshotInfo,
    TombstoneSpec,
    VersionManagerCore,
    WriteTicket,
)
from repro.dht.store import DhtStore
from repro.errors import (
    InvalidRange,
    ProviderError,
    ProviderUnavailable,
    ReplicationError,
    VersionNotFound,
)
from repro.util.bytesize import parse_size
from repro.util.chunks import split_range
from repro.util.throttle import TokenBucket

__all__ = [
    "LocalBlobStore",
    "StoreConfig",
    "BlockLocation",
    "PublishPipeline",
    "VmanStats",
    "DEFAULT_BLOCK_SIZE",
]

#: Per-destination concurrency cap handed to the I/O engine: at
#: most this many in-flight vectors aimed at any single provider or
#: metadata bucket.  A real provider serves a bounded number of streams
#: well; without the cap a hot provider collects the whole in-flight
#: window as a convoy while the rest of the cluster idles (DESIGN.md
#: §13).  It is also the scatter's vector length: a provider receiving
#: more blocks of one write pays one service delay per this many.
_ASYNC_PER_DEST = 64

#: What a scatter stored, for its rollback: per provider vector, the
#: provider and the ids of the blocks that landed there so far.
Landed = list[tuple[str, list[BlockId]]]

#: How the read-side calls name a snapshot: a version number, ``None``
#: for the latest published one, or the already-resolved info (a pin).
Version = Union[int, SnapshotInfo, None]


@dataclass(frozen=True)
class BlockLocation:
    """One entry of the data-layout primitive (paper §IV-C).

    Hadoop's scheduler asks "how is this range split into blocks and
    where do they live" — the answer is a list of these.
    """

    offset: int
    length: int
    providers: tuple[str, ...]


def _as_payload(data: Union[bytes, Payload]) -> Payload:
    """*data* as a payload: a payload as is, any buffer checked once."""
    if isinstance(data, (BytesPayload, SyntheticPayload)):
        return data
    return BytesPayload(data)


def _chunks(items: list) -> list[list]:
    """*items* cut into vectors of at most ``_ASYNC_PER_DEST``."""
    if len(items) <= _ASYNC_PER_DEST:
        return [items]
    return [items[lo : lo + _ASYNC_PER_DEST] for lo in range(0, len(items), _ASYNC_PER_DEST)]


def _split_payload(
    data: Union[bytes, Payload], block_size: int
) -> tuple[list[Payload], list[int]]:
    """Cut client data into block-sized payloads (trailing may be short)
    and their sizes.

    The caller's buffer — any buffer-protocol object — is checked once,
    as :class:`BytesPayload` does; the cuts are zero-copy ``memoryview``
    windows over it (DESIGN.md §11) that inherit that check.  The write
    path passes the buffer ``_do_write`` froze, so its windows view
    immutable ``bytes``.  The sizes come from the cut arithmetic:
    *block_size* for every block but the last, which takes the tail.
    """
    payload = _as_payload(data)
    size = payload.size
    if size == 0:
        raise InvalidRange("cannot write zero bytes")
    if type(payload) is BytesPayload:
        payloads = payload.windows(block_size)
    else:
        payloads = [
            payload.slice(lo, min(block_size, size - lo))
            for lo in range(0, size, block_size)
        ]
    full = len(payloads) - 1
    return payloads, [block_size] * full + [size - full * block_size]


class LocalBlobStore:
    """In-process BlobSeer deployment.

    Canonical construction::

        store = LocalBlobStore(config=StoreConfig(io_workers=8, ...))

    :class:`~repro.blob.config.StoreConfig` documents every knob and
    rejects the silently-broken combinations up front.
    """

    def __init__(self, config: Optional[StoreConfig] = None):
        if config is None:
            config = StoreConfig()
        elif not isinstance(config, StoreConfig):
            raise TypeError(
                f"config must be a StoreConfig, got {type(config).__name__} "
                "(positional provider counts moved to "
                "StoreConfig(data_providers=...))"
            )
        config.validate()
        #: The validated configuration this store was built from.
        self.config = config
        self.block_size = config.block_size_bytes()
        self.replication = config.replication
        self.vman_latency = config.vman_latency
        self.vman_stats = VmanStats()
        #: Data-plane byte accounting (DESIGN.md §11): bytes copied vs
        #: transferred at each block hop: one "provider.put" record per write.
        self.copy_stats = CopyStats()
        self.overlap_publish = config.overlap_publish
        self.version_manager = VersionManagerCore()
        self.publish_pipeline = PublishPipeline(self)
        self.provider_manager = ProviderManagerCore(
            policy=config.placement, rng=config.seed
        )
        self.providers: dict[str, DataProviderCore] = {}
        for name in config.provider_names():
            self.provider_manager.register(name)
            self.providers[name] = DataProviderCore(name, latency=config.provider_latency)
        #: Shared scatter-gather engine (DESIGN.md §13); ``None`` means
        #: inline (serial) I/O.  Created before the metadata service so
        #: the DHT can fan one batched round's per-bucket requests over
        #: the same engine.
        self.io_engine: Optional[AsyncIOEngine] = None
        if config.io_workers > 0:
            self.io_engine = AsyncIOEngine(
                max_in_flight=config.max_in_flight,
                per_dest=_ASYNC_PER_DEST,
                helpers=config.io_workers,
            )
        self.metadata = MetadataService(
            DhtStore(
                config.metadata_bucket_names(),
                replication=config.metadata_replication,
                latency=config.metadata_latency,
                engine=self.io_engine,
            )
        )
        self._nonce = itertools.count(1)
        #: Guards the version manager and nothing else; only
        #: :meth:`_vman_call` takes it.
        self._lock = threading.Lock()
        #: The write registry a GC sweep reads (DESIGN.md §5): one past
        #: the newest nonce handed out and, per write not yet retired,
        #: ``None`` until its version is assigned, then ``(blob_id,
        #: version)`` until that version is published.
        self._writes_lock = threading.Lock()
        self._nonce_end = 1
        self._open_writes: dict[int, Optional[tuple[str, int]]] = {}
        self._blob_counter = itertools.count(1)

    # -- lifecycle of the store itself ---------------------------------------------

    def close(self) -> None:
        """Release the I/O engine's threads (idempotent)."""
        if self.io_engine is not None:
            self.io_engine.shutdown()

    # -- maintenance (anti-entropy scrub, DESIGN.md §8) -----------------------------

    def scrub(self, ops_per_sec: Optional[float] = None):
        """Run one synchronous anti-entropy pass; returns the ScrubReport.

        ``ops_per_sec=None`` runs unpaced; any other value must be > 0
        (``TokenBucket`` rejects 0 rather than silently disabling
        pacing).  A burst of one token spaces checked items exactly
        ``1 / ops_per_sec`` apart.
        """
        from repro.blob.scrub import scrub_store

        if ops_per_sec is None:
            return scrub_store(self)
        return scrub_store(self, throttle=TokenBucket(ops_per_sec, burst=1))

    def __enter__(self) -> "LocalBlobStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _map_io(self, request, items, dest=None):
        """Run one data-plane round: every item's request, issued
        together by the engine, or one after another inline when there
        is none.

        ``request(item)`` returns the item's request and ``dest`` its
        destination key, which the engine's per-destination cap reads.
        A single item runs inline, as a single-bucket DHT round does:
        there is nothing to overlap.
        """
        if self.io_engine is not None and len(items) > 1:
            return self.io_engine.map(request, items, dest=dest)
        return [run_inline(request(item)) for item in items]

    def _delete_blocks(self, doomed: dict[str, list[BlockId]]) -> dict[str, dict[BlockId, int]]:
        """One round of delete requests, one per provider: the bytes
        freed per block of every provider whose request landed (one down
        before or during it is left out and keeps its blocks)."""
        groups = [(name, block_ids) for name, block_ids in doomed.items() if block_ids]

        def delete(group):
            provider = self.providers[group[0]]
            try:
                yield provider._issue()
                return provider._delete_vector(group[1])
            except ProviderUnavailable:
                return None

        freed = self._map_io(delete, groups, dest=itemgetter(0))
        return {name: f for (name, _), f in zip(groups, freed) if f is not None}

    def _vman_call(self, fn, **counters):
        """Run *fn* against the version manager: the one seam to it.

        In the distributed deployment every client interaction is an
        RPC to the concurrency-1 version-manager service — the
        protocol's only serialization point (§III-A.4) — so the
        in-process store models it the same way: the core call holds
        the version-manager lock.  A call naming counters is a client
        round trip: it first pays the simulated network latency, once
        *per interaction* no matter how many batch members ride along
        and *outside* the lock, as concurrent RPCs overlap their
        latencies, then counts exactly one round trip (a flush, an
        abort, snapshot info).  A call naming none takes the lock only:
        blob creation and branching, the post-failure commit check, and
        the GC and scrub control-plane snapshots (DESIGN.md §10).
        """
        if counters and self.vman_latency:
            time.sleep(self.vman_latency)  # asynclint: allow the vman round trip
        with self._lock:
            if counters:
                self.vman_stats.record(round_trips=1, **counters)
            return fn()

    # -- the write registry (GC safety, DESIGN.md §5) ---------------------------------

    def _open_write(self) -> int:
        """Draw a write's nonce and register the write as open."""
        with self._writes_lock:
            nonce = next(self._nonce)
            self._nonce_end = nonce + 1
            self._open_writes[nonce] = None
            return nonce

    def _close_write(self, nonce: int) -> None:
        """Retire a finished write unless its version still waits for
        publication (a lower version is in flight)."""
        with self._writes_lock:
            if self._open_writes.get(nonce) is None:  # unassigned (or retired)
                self._open_writes.pop(nonce, None)
            self._retire_published()

    def _retire_published(self) -> None:
        """Drop every registered write whose version is published."""
        blob = self.version_manager.blob
        self._open_writes = {
            nonce: slot
            for nonce, slot in self._open_writes.items()
            if slot is None or slot[1] > blob(slot[0]).published
        }

    def gc_horizon(self) -> int:
        """The oldest nonce a GC sweep must spare.

        Every write still running, not yet started, or committed above
        its BLOB's publication watermark has a nonce at or above this,
        so blocks below it belong to writes whose outcome is final: a
        published version's blocks are reachable from its snapshot, any
        other block is garbage.
        """
        with self._writes_lock:
            self._retire_published()
            return min(self._open_writes, default=self._nonce_end)

    # -- lifecycle ---------------------------------------------------------------

    def create(
        self,
        blob_id: Optional[str] = None,
        block_size: Optional[Union[int, str]] = None,
        replication: Optional[int] = None,
    ) -> str:
        """Create an empty BLOB and return its id."""
        if blob_id is None:
            blob_id = f"blob-{next(self._blob_counter):06d}"
        self._vman_call(
            lambda: self.version_manager.create_blob(
                blob_id,
                block_size=parse_size(block_size) if block_size is not None else self.block_size,
                replication=replication if replication is not None else self.replication,
            )
        )
        return blob_id

    def branch(
        self,
        src_blob_id: str,
        new_blob_id: Optional[str] = None,
        version: Optional[int] = None,
    ) -> str:
        """Fork a BLOB at a published snapshot (§II-A branching).

        Pure metadata: no block is copied.  Both BLOBs evolve
        independently from the branch point on.
        """
        if new_blob_id is None:
            new_blob_id = f"blob-{next(self._blob_counter):06d}"
        self._vman_call(
            lambda: self.version_manager.branch_blob(src_blob_id, new_blob_id, version)
        )
        return new_blob_id

    # -- write path (paper §III-D) ----------------------------------------------------

    def write(self, blob_id: str, offset: int, data: Union[bytes, Payload]) -> int:
        """Write *data* at *offset*; returns the new snapshot version."""
        return self._do_write(blob_id, data, offset=offset, append=False)

    def append(self, blob_id: str, data: Union[bytes, Payload]) -> int:
        """Append *data*; the version manager fixes the offset (§III-D)."""
        return self._do_write(blob_id, data, offset=None, append=True)

    def _do_write(
        self,
        blob_id: str,
        data: Union[bytes, Payload],
        offset: Optional[int],
        append: bool,
    ) -> int:
        state = self.version_manager.blob(blob_id)
        # Copy-on-publish, once per write (DESIGN.md §11): ``bytes`` is
        # aliased, any other buffer copied once, whatever the replication.
        given = _as_payload(data)
        owned = given.freeze()
        payloads, sizes = _split_payload(owned, state.block_size)

        # The write stays registered from its nonce draw until its
        # version is published, so a GC pass never sweeps its blocks.
        stored: Landed = []
        nonce = self._open_write()
        try:
            version = self._write_blocks(
                blob_id, nonce, payloads, sizes, stored, state.replication, offset, append
            )
            transferred = state.replication * owned.size  # every replica landed
            return version
        except BaseException:
            # What landed travelled, though the rollback deleted it.
            transferred = sum(sizes[block_id[2]] for _, ids in stored for block_id in ids)
            raise
        finally:
            self._close_write(nonce)
            copied = 0 if owned is given else owned.size
            self.copy_stats.record("provider.put", copied=copied, transferred=transferred)

    def _write_blocks(
        self,
        blob_id: str,
        nonce: int,
        payloads: list[Payload],
        sizes: list[int],
        stored: Landed,
        replication: int,
        offset: Optional[int],
        append: bool,
    ) -> int:
        # Phase 1 — publish data blocks: scatter the (block, replica)
        # placements as one vector per provider, in parallel when the
        # store has an I/O engine.  Neither the nonce (drawn under the
        # write registry's own lock) nor the placement (the provider
        # manager serializes it) takes the store lock, so a writer never
        # waits out a version-manager flush to place its blocks.
        # With ``overlap_publish`` the scatter is only *issued* here
        # and settled right before the commit, so the assignment and
        # the metadata weave/publish run while the blocks' service
        # delays run (DESIGN.md §10).
        placements = self.provider_manager.allocate(
            len(payloads), sizes, replication=replication
        )
        scatter = None
        ticket: Optional[WriteTicket] = None
        vectors, send = self._scatter_tasks(
            [(blob_id, nonce, seq) for seq in range(len(payloads))], payloads, placements, stored
        )
        try:
            if self.overlap_publish:
                scatter = self.io_engine.submit_each(send, vectors, dest=itemgetter(0))
            else:
                self._map_io(send, vectors, dest=itemgetter(0))
            # Phase 2 — version assignment (the serialization point,
            # group-batched by the publish pipeline).  The version
            # manager validates the range *before* recording anything,
            # so a rejection here (misaligned offset, unaligned append,
            # hole) leaves it untouched.
            ticket = self.publish_pipeline.assign(
                AssignRequest(
                    blob_id=blob_id,
                    length=sum(sizes),
                    offset=None if append else offset,
                )
            )
            with self._writes_lock:
                self._open_writes[nonce] = (blob_id, ticket.version)
            # Phase 3 — weave and publish metadata (concurrent by
            # design), settle the overlapped scatter, then report
            # completion (group-batched).
            self._publish_metadata(ticket, nonce, sizes, placements)
            if scatter is not None:
                error = self._settle_scatter(scatter)
                if error is not None:
                    raise error
            self.publish_pipeline.commit(ticket.blob_id, ticket.version)
        except BaseException:
            # Every failure — a KeyboardInterrupt too — first drains an
            # overlapped scatter: an unsettled transfer could still
            # append to ``stored`` underneath the cleanup and strand its
            # replicas.  Before assignment the write is simply rolled
            # back: "if, for some reason, writing of a block fails, then
            # the whole write fails" (§III-D).  After it, the version
            # must be aborted too, or it stays in flight forever —
            # wedging the watermark and blocking GC (the §VI-B
            # weakness); the abort makes it a tombstone (see
            # _abort_ticket).  A version already committed (an interrupt
            # arriving after the commit flush) belongs to a published
            # snapshot and is never touched.
            if scatter is not None:
                self._settle_scatter(scatter)
            if ticket is None:
                self._rollback_write(stored, placements, sizes)
            elif not self._vman_call(
                lambda: ticket.version in self.version_manager.blob(blob_id).committed
            ):
                self._abort_ticket(ticket, stored, placements, sizes)
            raise
        return ticket.version

    def _scatter_tasks(
        self,
        block_ids: list[BlockId],
        payloads: list[Payload],
        placements: list[tuple[str, ...]],
        stored: Landed,
    ):
        """The per-provider transfer vectors of one scatter: a write's,
        or the scrub's repair copies.

        Every (block, replica) placement is grouped by provider into one
        ``(provider, chunks, landed)`` vector: its ``(block_id,
        payload)`` pairs, each built once per block, cut into chunks of
        at most ``_ASYNC_PER_DEST``, each sent as one request (a vector
        that fits is its own one chunk).  Each vector's ``landed`` list
        is registered in *stored* up front and filled by the provider's
        ``_put_vector`` as blocks land — including the prefix of a
        vector that fails part-way — so the caller can roll back exactly
        what made it.  Returns the vectors and ``send``, a vector's
        request (run by the engine, or inline when there is none), whose
        chunk k + 1 is issued when chunk k completes, so that a
        cancellation (a sibling vector failed first) lands at an issue,
        never inside a chunk's body.
        """
        by_provider: dict[str, list[tuple[BlockId, Payload]]] = {}
        for block_id, payload, replicas in zip(block_ids, payloads, placements):
            item = (block_id, payload)
            for provider_name in replicas:
                by_provider.setdefault(provider_name, []).append(item)
        vectors = [(name, _chunks(items), []) for name, items in by_provider.items()]
        stored.extend((name, landed) for name, _, landed in vectors)

        def send(vector):
            provider_name, chunks, landed = vector
            provider = self.providers[provider_name]
            for chunk in chunks:
                yield provider._issue()
                provider._put_vector(chunk, landed)

        return vectors, send

    @staticmethod
    def _settle_scatter(handles) -> Optional[BaseException]:
        """Settle every scatter request; return the first failure.

        Never fails fast: ``stored`` is only complete — and therefore
        safe to roll back or publish — once every issued request has
        either landed or died.  The engine cancels the unissued siblings
        once one request fails, so the *real* failure is preferred over
        the cancellations it caused — the caller's error reporting must
        name the dead provider, not the abandonment.
        """
        error: Optional[BaseException] = None
        cancelled: Optional[BaseException] = None
        for handle in handles:
            try:
                handle.result()
            except CancelledError as exc:
                if cancelled is None:
                    cancelled = exc
            except BaseException as exc:
                if error is None:
                    error = exc
        return error if error is not None else cancelled

    def _rollback_write(
        self,
        stored: Landed,
        placements: list[tuple[str, ...]],
        sizes: list[int],
    ) -> None:
        """Undo the stored half of a failed write (no orphans, §III-D)."""
        # Replicas whose charge must NOT be released here: stranded on
        # an offline provider (the bytes really are there; the GC sweep
        # releases the charge when it reclaims the orphan — exactly
        # once), or already deleted by a racing GC sweep (which then
        # already released the charge — also exactly once).
        doomed: dict[str, list[BlockId]] = {}
        for provider_name, landed in stored:
            doomed.setdefault(provider_name, []).extend(landed)
        freed = self._delete_blocks(doomed)
        keep_charged = {
            (block_id[2], name)
            for name, block_ids in doomed.items()
            for block_id in block_ids
            if not freed.get(name, {}).get(block_id)
        }
        self.provider_manager.release_placements(
            placements, sizes, skip=frozenset(keep_charged)
        )

    # -- write abort (tombstone protocol, DESIGN.md §7) -----------------------------

    def _abort_ticket(
        self,
        ticket: WriteTicket,
        stored: Landed,
        placements: list[tuple[str, ...]],
        sizes: list[int],
    ) -> None:
        """Abort an assigned version after a later protocol step failed.

        Order matters: first the data rollback (no orphaned replicas,
        no phantom charges), then the tombstone's filler metadata —
        published *before* the version manager finalises the abort, so
        by the time the watermark can advance over the tombstone its
        tree already resolves — and the state-machine abort last.

        The version becomes a tombstone (every abort does, §7):
        ``_publish_metadata`` may have stored part of the real patch
        before failing, and the filler patch occupies exactly the same
        canonical keys and force-overwrites them.

        The state-machine abort runs in a ``finally``: even if the
        cleanup I/O is itself interrupted (a second failure mid-abort),
        the version must not stay in flight — a wedged watermark is the
        one outcome this protocol exists to prevent.  Whatever the
        rollback or filler publish did not finish is recoverable later:
        orphaned blocks fall to the next GC sweep, missing filler nodes
        to the anti-entropy scrub.
        """
        try:
            self._rollback_write(stored, placements, sizes)
            spec = self._vman_call(
                lambda: self.version_manager.tombstone_spec(
                    ticket.blob_id, ticket.version, pending=True
                ),
                abort_rounds=1,
            )
            self._publish_tombstone(spec)
        finally:
            # Its own counted interaction: the abort is a second vman
            # trip after the spec fetch, separated by the filler I/O.
            self._vman_call(
                lambda: self.version_manager.abort(ticket.blob_id, ticket.version),
                abort_rounds=1,
            )

    def _publish_tombstone(self, spec: TombstoneSpec) -> list[NodeKey]:
        """Force-publish a tombstone's filler patch, best effort.

        Nodes whose every metadata replica is down are skipped and
        returned — the abort is being taken *because* metadata
        providers are failing, so insisting on full publication would
        re-wedge the very protocol this exists to unwedge.  Skipped
        nodes leave their key range unreadable (exactly as the outage
        already made it) until the scrub pass runs after recovery.
        """
        patch = spec.patch()
        try:
            return self.metadata.put_fillers(patch)
        except (ProviderError, ReplicationError):
            # The batched force-put reports per-key leftovers instead of
            # raising; anything that still escapes (e.g. a whole-ring
            # failure surfaced by a single-node patch) means nothing
            # landed.
            return [node.key for node in patch]

    def _publish_metadata(
        self,
        ticket: WriteTicket,
        nonce: int,
        sizes: list[int],
        placements: list[tuple[str, ...]],
    ) -> None:
        start = ticket.start_block
        descriptors = write_descriptors(
            ticket.blob_id, ticket.version, start, sizes, placements, nonce
        )
        patch = build_patch(
            blob_id=ticket.blob_id,
            version=ticket.version,
            write_start=ticket.start_block,
            write_end=ticket.end_block,
            size_after_blocks=ticket.size_after_blocks,
            history=ticket.history,
            leaf_descriptor=lambda index: descriptors[index - start],
        )
        self.metadata.put_patch(patch)

    # -- read path (paper §III-C) -----------------------------------------------------

    def snapshot(self, blob_id: str, version: Optional[int] = None) -> SnapshotInfo:
        """Snapshot info; ``None`` means latest published (§III-A.1)."""

        def run() -> SnapshotInfo:
            if version is None:
                return self.version_manager.latest(blob_id)
            return self.version_manager.snapshot_info(blob_id, version)

        return self._vman_call(run, info_rounds=1)

    def latest_version(self, blob_id: str) -> int:
        """Publication watermark for *blob_id*."""
        return self._vman_call(
            lambda: self.version_manager.published_version(blob_id), info_rounds=1
        )

    def read(
        self,
        blob_id: str,
        offset: int = 0,
        size: Optional[int] = None,
        version: Version = None,
    ) -> bytes:
        """Read bytes from a snapshot (defaults: whole latest snapshot).

        The only sanctioned materialization on the read path: the
        gathered payload becomes user-facing ``bytes`` exactly once,
        accounted as ``read.result`` (DESIGN.md §11).
        """
        return materialize(
            self.read_payload(blob_id, offset, size, version),
            self.copy_stats,
            layer="read.result",
        )

    def read_payload(
        self,
        blob_id: str,
        offset: int = 0,
        size: Optional[int] = None,
        version: Version = None,
    ) -> Payload:
        """Read as a payload (synthetic-safe variant of :meth:`read`).

        Passing the :class:`SnapshotInfo` a reader already holds as
        *version* makes this a pinned read: no vman round trip.

        Vectored gather (DESIGN.md §11): the touched blocks are fetched
        as one get request per provider — the vectors in parallel over
        the I/O engine — and become the parts of one :func:`concat`:
        each interior block's stored payload itself, the covered window
        of the two extremal blocks, zeros for tombstone blocks.  The
        join copies each byte exactly once into the immutable result,
        so the read path materializes nothing else.  A read covering
        exactly one whole stored block aliases the provider's immutable
        payload with no copy at all.
        """
        pinned = isinstance(version, SnapshotInfo)
        info = version if pinned else self.snapshot(blob_id, version)
        try:
            if size is None:
                size = info.size - offset
            if offset < 0 or size < 0 or offset + size > info.size:
                raise InvalidRange(
                    f"read [{offset}, {offset + size}) outside snapshot of {info.size}B"
                )
            if size == 0:
                return BytesPayload(b"")
            descriptors = self._collect_descriptors(info, offset, size)

            fetched = self._fetch_blocks(descriptors)
            # The covered run of the extremal blocks: [first, block end)
            # of the first, [0, last_end) of the last (§III-C).
            block_size = info.block_size
            first = offset % block_size
            last_end = (offset + size - 1) % block_size + 1
            if len(descriptors) == 1 and fetched:
                payload = fetched[0]
                if first == 0 and last_end == payload.size:
                    # Whole-block read: hand out the stored payload itself
                    # — published blocks are immutable, aliasing is free.
                    self.copy_stats.record("read.alias", transferred=size)
                    return payload

            parts: list[Payload] = []
            copied = 0
            end_at = len(descriptors) - 1
            for i, descriptor in enumerate(descriptors):
                start = first if i == 0 else 0
                end = last_end if i == end_at else block_size
                payload = fetched.get(i)
                if payload is None:  # a tombstone block reads as zeros
                    parts.append(BytesPayload(bytes(end - start)))
                    continue
                stored = payload.size
                if end > stored:
                    raise InvalidRange(
                        f"block {descriptor.index} holds {stored}B, "
                        f"needed [{start}, {end})"
                    )
                copied += end - start
                if start or end != stored:
                    payload = payload.slice(start, end - start)
                parts.append(payload)
            result = concat(parts)
            if copied and result.is_real:
                self.copy_stats.record("read.gather", copied=copied, transferred=copied)
            return result
        except (VersionNotFound, ProviderUnavailable):
            # A tree node or a block is gone.  Only now is the version
            # manager asked about a pin again: if the GC swept it the
            # reader gets the vman's own VersionNotFound, otherwise the
            # failure stands (DESIGN.md §3).
            if pinned:
                self.snapshot(blob_id, version.version)
            raise

    def key_resolver(self):
        """Map tree-node keys to their owning BLOB (branch lineage)."""
        owner_of = self.version_manager.owner_of

        def resolve(key: NodeKey) -> NodeKey:
            owner = owner_of(key.blob_id, key.version)
            if owner == key.blob_id:
                return key
            return NodeKey(owner, key.version, key.offset, key.span)

        return resolve

    def _collect_descriptors(
        self, info: SnapshotInfo, offset: int, size: int
    ) -> list[AnyBlockDescriptor]:
        lo = offset // info.block_size
        hi = -(-(offset + size) // info.block_size)
        root = NodeKey(info.blob_id, info.version, 0, info.root_span)
        # Level-parallel descent: each frontier resolves in one batched
        # metadata pass — O(tree depth) round trips, with the per-bucket
        # requests fanned over the I/O engine.
        return collect_blocks_batched(
            self.metadata.get_nodes, root, lo, hi, key_resolver=self.key_resolver()
        )

    def _fetch_blocks(
        self, descriptors: list[AnyBlockDescriptor]
    ) -> dict[int, Payload]:
        """The stored payload of every non-zero descriptor, by position.

        One get vector per provider per round (DESIGN.md §13).
        Round 0 groups the blocks by their first live replica; each
        later round regroups the blocks still unresolved — absent from
        the replica asked, or in a vector whose provider went down
        mid-fetch — by their next live replica: the failover
        ``DhtStore.gather`` gives keys.  Zero descriptors
        (tombstone filler, DESIGN.md §7) store nothing and are skipped.
        Raises :class:`ProviderUnavailable` for a block no replica
        served.
        """
        fetched: dict[int, Payload] = {}
        cursor = [0] * len(descriptors)  # per block: next replica to ask
        pending = [i for i, d in enumerate(descriptors) if not d.is_zero]
        providers = self.providers

        def fetch(vector):
            provider = providers[vector[0]]
            try:
                yield provider._issue()
                return provider._get_vector(vector[2])
            except ProviderUnavailable:
                return {}  # down since the online check: all to the next replica

        while pending:
            # Liveness is looked up once per provider per round.
            live = {name: provider.online for name, provider in providers.items()}
            by_provider: dict[str, list[int]] = {}
            for i in pending:
                replicas = descriptors[i].providers
                k = cursor[i]
                while k < len(replicas) and not live[replicas[k]]:
                    k += 1
                if k == len(replicas):
                    raise ProviderUnavailable(
                        f"no live replica of block {descriptors[i].block_id} "
                        f"(providers {replicas})"
                    )
                cursor[i] = k + 1
                by_provider.setdefault(replicas[k], []).append(i)
            vectors = [
                (name, indices, [descriptors[i].block_id for i in indices])
                for name, indices in by_provider.items()
            ]
            found = self._map_io(fetch, vectors, dest=itemgetter(0))
            pending = []
            for (_, indices, block_ids), payloads in zip(vectors, found):
                for i, block_id in zip(indices, block_ids):
                    payload = payloads.get(block_id)
                    if payload is None:
                        pending.append(i)
                    else:
                        fetched[i] = payload
        return fetched

    # -- the Hadoop affinity primitive (paper §IV-C) -------------------------------------

    def block_locations(
        self,
        blob_id: str,
        offset: int,
        size: int,
        version: Version = None,
    ) -> list[BlockLocation]:
        """Blocks making up a range, with the nodes that store them."""
        info = version if isinstance(version, SnapshotInfo) else self.snapshot(blob_id, version)
        if size == 0:
            return []
        if offset < 0 or size < 0 or offset + size > info.size:
            raise InvalidRange(
                f"range [{offset}, {offset + size}) outside snapshot of {info.size}B"
            )
        descriptors = self._collect_descriptors(info, offset, size)
        return [
            BlockLocation(
                offset=s.offset, length=s.length, providers=d.providers
            )
            for s, d in zip(split_range(offset, size, info.block_size), descriptors)
        ]

    # -- diagnostics & failure injection ---------------------------------------------------

    def provider_block_counts(self) -> dict[str, int]:
        """Actually-stored blocks per data provider (Figure 3(b) input)."""
        return {name: p.block_count for name, p in sorted(self.providers.items())}

    def fail_provider(self, name: str) -> None:
        """Take one data provider offline."""
        self.providers[name].fail()
        self.provider_manager.decommission(name)

    def recover_provider(self, name: str) -> None:
        """Bring a failed data provider back (content intact)."""
        self.providers[name].recover()
        self.provider_manager.recover(name)
