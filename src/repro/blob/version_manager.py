"""Version manager: snapshot assignment, ordering, publication.

"The version manager is in charge of assigning snapshot version numbers
in such a way that serialization and atomicity of writes and appends is
guaranteed" (paper §III-B).  Its state machine is deliberately tiny,
and every caller speaks it in batches (DESIGN.md §10):

* :meth:`assign_batch` — hand out the next version numbers in request
  order and, for appends, fix the offset to the size of the preceding
  snapshot (which may itself still be in flight, §III-D).  Each
  returned :class:`WriteTicket` carries the write history the client
  needs to weave its metadata without talking to anyone else.
* :meth:`commit_batch` — writers report that data *and* metadata are
  stored; each touched BLOB's publication watermark then advances once
  to the highest version ``v`` such that every version ``<= v`` is
  committed, giving linearizability: readers only ever see complete
  snapshot prefixes (§III-A.5's two conditions).  Nothing is pushed on
  publication: a reader learns of a new snapshot by asking for the
  latest published version (:meth:`latest`, §III-C).

  Both batches isolate per-item validation errors (one writer's bad
  request never poisons its batch-mates): the returned list holds each
  member's result or its :class:`~repro.errors.BlobError`, so under
  heavy append concurrency the version manager costs O(batches) round
  trips instead of O(writers).
* :meth:`abort` — a failed writer abandons its assigned version, which
  always becomes a **tombstone**: it commits as a no-op so the
  watermark can advance over it, and the returned
  :class:`TombstoneSpec` tells the caller which filler metadata to
  publish so woven references (and any real nodes the dead write
  already stored) resolve.  A version number is never reused.  This
  closes the availability gap the paper concedes in §VI-B (a dead
  writer blocking publication forever); see DESIGN.md §7.

This class is pure bookkeeping (no I/O, no clocks) so the in-process
store and the simulated version-manager service share it verbatim.
Assignment is the **only** serialized step of a write — everything else
in the protocol is designed to run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.blob.segment_tree import HistoryRecord, TreeNode, build_tombstone_patch, root_span
from repro.errors import (
    BlobError,
    BlobNotFound,
    InvalidRange,
    VersionNotFound,
    VersionNotReady,
    WriteConflict,
)
from repro.util.chunks import block_count

__all__ = [
    "WriteRecord",
    "WriteTicket",
    "SnapshotInfo",
    "TombstoneSpec",
    "AssignRequest",
    "BlobState",
    "VersionManagerCore",
]


@dataclass(frozen=True)
class WriteRecord:
    """One assigned version: what it wrote and the size afterwards."""

    version: int
    offset: int
    length: int
    size_after: int
    start_block: int
    end_block: int

    @property
    def history_record(self) -> HistoryRecord:
        """Projection used by metadata weaving: (version, block range)."""
        return (self.version, self.start_block, self.end_block)


@dataclass(frozen=True)
class WriteTicket:
    """Everything a writer needs after version assignment.

    ``history`` holds the block ranges of **all lower versions** — the
    version-manager "hints" that let this writer predict concurrent
    writers' metadata and weave its own without waiting for them.
    """

    blob_id: str
    version: int
    offset: int
    length: int
    size_after: int
    start_block: int
    end_block: int
    block_size: int
    replication: int
    history: tuple[HistoryRecord, ...]

    @property
    def size_after_blocks(self) -> int:
        """BLOB size in blocks once this snapshot completes."""
        return block_count(self.size_after, self.block_size)

    @property
    def root_span(self) -> int:
        """Root coverage of this snapshot's tree."""
        return root_span(self.size_after_blocks)


@dataclass(frozen=True)
class SnapshotInfo:
    """Read-side view of one published snapshot."""

    blob_id: str
    version: int
    size: int
    block_size: int
    root_span: int
    #: True for a tombstoned (aborted) version: it is readable — the
    #: woven prior state, zero-filled over the range the dead write
    #: would have created — but wrote nothing itself.
    tombstone: bool = False

    @property
    def size_blocks(self) -> int:
        """Size in blocks (ceiling)."""
        return block_count(self.size, self.block_size)


@dataclass(frozen=True)
class TombstoneSpec:
    """Everything needed to build a tombstone's filler metadata patch.

    Mirrors the write geometry the dead version was assigned, plus the
    history hints its filler patch must weave with — the arguments of
    :func:`repro.blob.segment_tree.build_tombstone_patch`.
    """

    blob_id: str
    version: int
    start_block: int
    end_block: int
    size_after: int
    prior_size: int
    block_size: int
    history: tuple[HistoryRecord, ...]

    def patch(self) -> list[TreeNode]:
        """The filler patch every abort and scrub pass re-derives."""
        return build_tombstone_patch(
            blob_id=self.blob_id,
            version=self.version,
            write_start=self.start_block,
            write_end=self.end_block,
            size_after=self.size_after,
            prior_size=self.prior_size,
            block_size=self.block_size,
            history=self.history,
        )


@dataclass(frozen=True)
class AssignRequest:
    """One writer's slot in an :meth:`VersionManagerCore.assign_batch`.

    ``offset=None`` requests an append (the version manager fixes the
    offset, §III-D); an explicit offset requests a write there.
    """

    blob_id: str
    length: int
    offset: Optional[int] = None


@dataclass
class BlobState:
    """Version-manager state for one BLOB."""

    blob_id: str
    block_size: int
    replication: int
    records: list[WriteRecord] = field(default_factory=list)
    committed: set[int] = field(default_factory=set)
    #: Aborted versions (subset of ``committed``): they count as
    #: committed no-ops so the watermark can pass them, but their write
    #: never happened (readers see filler metadata).
    tombstoned: set[int] = field(default_factory=set)
    published: int = 0
    gc_floor: int = 0  # versions < gc_floor are no longer readable
    #: For branched BLOBs: (ancestor blob id, branch-base version).
    #: Versions <= base belong to the ancestor's metadata/data.
    parent: Optional[tuple[str, int]] = None

    @property
    def last_assigned(self) -> int:
        """Highest version number handed out so far."""
        return len(self.records) - 1


class VersionManagerCore:
    """Pure version-assignment and publication state machine.

    Alignment discipline enforced on writes (see DESIGN.md §6):
    ``offset`` must be block-aligned and ``offset <= current size`` (no
    holes); ``length`` must be a whole number of blocks unless the write
    extends exactly to the (new) end of the BLOB, which permits one
    trailing partial block.  These are the constraints under which the
    metadata-weaving rule of §III-D is exact.
    """

    def __init__(self) -> None:
        self._blobs: dict[str, BlobState] = {}

    # -- blob lifecycle ---------------------------------------------------------

    def create_blob(self, blob_id: str, block_size: int, replication: int = 1) -> BlobState:
        """Register a new empty BLOB (snapshot version 0, size 0)."""
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        if blob_id in self._blobs:
            raise BlobError(f"blob {blob_id!r} already exists")
        state = BlobState(blob_id=blob_id, block_size=block_size, replication=replication)
        state.records.append(
            WriteRecord(version=0, offset=0, length=0, size_after=0, start_block=0, end_block=0)
        )
        state.committed.add(0)
        self._blobs[blob_id] = state
        return state

    def branch_blob(self, src_id: str, new_id: str, version: Optional[int] = None) -> BlobState:
        """Fork *src_id* at a published snapshot into a new BLOB.

        "Branching a dataset into two independent datasets that can
        evolve independently" (§II-A) is pure metadata: the branch
        inherits the source's write history up to *version* (default:
        latest published) and shares every block and tree node with it.
        Subsequent writes to either BLOB are invisible to the other.
        """
        src = self.blob(src_id)
        if new_id in self._blobs:
            raise BlobError(f"blob {new_id!r} already exists")
        base = src.published if version is None else version
        # Validates existence, publication and the GC floor.
        self.snapshot_info(src_id, base)
        state = BlobState(
            blob_id=new_id,
            block_size=src.block_size,
            replication=src.replication,
            records=list(src.records[: base + 1]),
            committed=set(range(base + 1)),
            tombstoned={v for v in src.tombstoned if v <= base},
            published=base,
            gc_floor=src.gc_floor,
            parent=(src_id, base),
        )
        self._blobs[new_id] = state
        return state

    def owner_of(self, blob_id: str, version: int) -> str:
        """The BLOB whose metadata/data owns *version* of *blob_id*.

        Walks the branch lineage: versions at or below a branch base
        belong to the ancestor.  Identity for unbranched BLOBs.
        """
        state = self.blob(blob_id)
        while state.parent is not None and version <= state.parent[1]:
            blob_id = state.parent[0]
            state = self.blob(blob_id)
        return blob_id

    def descends_from(self, blob_id: str, ancestor_id: str) -> bool:
        """Whether *blob_id*'s lineage includes *ancestor_id*."""
        state = self.blob(blob_id)
        while state.parent is not None:
            if state.parent[0] == ancestor_id:
                return True
            state = self.blob(state.parent[0])
        return False

    def blob(self, blob_id: str) -> BlobState:
        """State for *blob_id* (``BlobNotFound`` if absent)."""
        try:
            return self._blobs[blob_id]
        except KeyError:
            raise BlobNotFound(blob_id) from None

    def blob_ids(self) -> list[str]:
        """All registered BLOB ids."""
        return sorted(self._blobs)

    # -- assignment (the serialization point) -------------------------------------

    def assign_batch(
        self, requests: Sequence[AssignRequest]
    ) -> list[Union[WriteTicket, BlobError]]:
        """Assign versions to many writers in one serialized step.

        Requests are processed in order, so arrival order within the
        batch IS assignment order (the per-blob ordering the group
        commit must preserve).  Per-item isolation: a request that
        fails validation gets its :class:`~repro.errors.BlobError` in
        its slot — it consumes no version number (assignment validates
        before recording) and later requests in the same batch are
        unaffected.  The returned list is aligned with *requests*.
        """
        out: list[Union[WriteTicket, BlobError]] = []
        for request in requests:
            try:
                state = self.blob(request.blob_id)
                offset = self._admit(state, request)
            except BlobError as exc:
                out.append(exc)
                continue
            out.append(self._assign(state, offset, request.length))
        return out

    @staticmethod
    def _admit(state: BlobState, request: AssignRequest) -> int:
        """Validate one request; returns the offset it writes at.

        An append's offset is fixed *here*, to the size of the
        preceding snapshot — which may still be being written (§III-D:
        "the writing of this snapshot may still be in progress").
        """
        size, block_size = state.records[-1].size_after, state.block_size
        offset, length = request.offset, request.length
        if offset is None:
            if size % block_size != 0:
                raise InvalidRange(
                    f"append to blob {state.blob_id!r} requires a block-aligned size, "
                    f"but current size is {size} (block_size={block_size}); "
                    f"use a trailing-partial write instead"
                )
            if length < 1:
                raise InvalidRange(f"append length must be positive, got {length}")
            return size
        if length < 1:
            raise InvalidRange(f"write length must be positive, got {length}")
        if offset < 0:
            raise InvalidRange(f"write offset must be >= 0, got {offset}")
        if offset % block_size != 0:
            raise InvalidRange(f"write offset {offset} not aligned to block size {block_size}")
        if offset > size:
            raise InvalidRange(f"write at offset {offset} would leave a hole (size is {size})")
        # A partial trailing block must end the blob: rewriting an
        # interior range with one would truncate data the leaf model
        # cannot merge back.
        if length % block_size != 0 and offset + length < size:
            raise InvalidRange(
                "partial-block writes must extend to the end of the blob "
                f"(offset={offset} length={length} size={size})"
            )
        return offset

    def _assign(self, state: BlobState, offset: int, length: int) -> WriteTicket:
        current_size = state.records[-1].size_after
        version = len(state.records)
        end = offset + length
        size_after = max(current_size, end)
        start_block = offset // state.block_size
        end_block = block_count(end, state.block_size)
        record = WriteRecord(
            version=version,
            offset=offset,
            length=length,
            size_after=size_after,
            start_block=start_block,
            end_block=end_block,
        )
        state.records.append(record)
        history = tuple(
            r.history_record for r in state.records[1:version] if r.length > 0
        )
        return WriteTicket(
            blob_id=state.blob_id,
            version=version,
            offset=offset,
            length=length,
            size_after=size_after,
            start_block=start_block,
            end_block=end_block,
            block_size=state.block_size,
            replication=state.replication,
            history=history,
        )

    # -- completion and publication -----------------------------------------------

    def commit_batch(
        self, items: Sequence[tuple[str, int]]
    ) -> list[Union[int, BlobError]]:
        """Record many completion reports in one serialized step.

        The watermark only advances past a version once **all** lower
        versions are also committed — the order in which "new snapshots
        are revealed to the readers must respect the order in which
        version numbers have been assigned" (§III-A.4).  Every valid
        item is marked committed first; then each touched BLOB's
        watermark advances **once**, to the final watermark (the full
        committed range), not once per member.  Per-item isolation: an
        invalid item (unassigned version, double commit — including a
        duplicate *within* the batch) gets its error in its slot without
        disturbing batch-mates.  The returned list is aligned with
        *items*; a valid member's slot holds its BLOB's new watermark.
        """
        out: list[Union[int, BlobError]] = []
        touched: dict[str, list[int]] = {}
        for i, (blob_id, version) in enumerate(items):
            try:
                state = self.blob(blob_id)
                self._check_uncommitted(state, version, "committed twice")
            except BlobError as exc:
                out.append(exc)
                continue
            out.append(0)  # the watermark, filled in below
            state.committed.add(version)
            touched.setdefault(blob_id, []).append(i)
        for blob_id, members in touched.items():
            state = self._blobs[blob_id]
            self._advance_watermark(state)
            for i in members:
                out[i] = state.published
        return out

    @staticmethod
    def _check_uncommitted(state: BlobState, version: int, conflict: str) -> None:
        """*version* was assigned and has not committed (as a tombstone
        either); *conflict* completes the error message otherwise."""
        if version < 1 or version > state.last_assigned:
            raise VersionNotFound(
                f"version {version} of blob {state.blob_id!r} was never assigned"
            )
        if version in state.committed:
            raise WriteConflict(f"version {version} of blob {state.blob_id!r} {conflict}")

    @staticmethod
    def _advance_watermark(state: BlobState) -> None:
        """Advance the watermark over every contiguously committed version."""
        while state.published + 1 in state.committed:
            state.published += 1

    def abort(self, blob_id: str, version: int) -> TombstoneSpec:
        """Abandon an assigned-but-uncommitted version as a tombstone.

        The record stands — a later writer may already have woven
        references to this version's range per the hint rule, and any
        metadata node of the dead write may already have reached the
        DHT — so the number is never reused.  The version commits as a
        no-op (the watermark advances over it — a dead writer can no
        longer wedge publication, closing §VI-B's availability gap) and
        the returned :class:`TombstoneSpec` describes the filler
        metadata the caller must publish so those references resolve.
        """
        state = self.blob(blob_id)
        self._check_uncommitted(state, version, "already committed")
        state.tombstoned.add(version)
        state.committed.add(version)
        spec = self._tombstone_spec(state, version)
        self._advance_watermark(state)
        return spec

    def tombstone_spec(
        self, blob_id: str, version: int, pending: bool = False
    ) -> TombstoneSpec:
        """Filler-patch spec of a tombstoned version.

        Serves an already-tombstoned version so the filler can be
        re-published idempotently after the metadata-provider outage
        that caused the abort heals (the scrub's tombstone phase,
        DESIGN.md §8).  ``pending=True`` additionally serves a version
        still in flight — strictly for the aborting writer itself,
        which must publish the filler *before* finalising the abort;
        anyone else holding a pending spec could force-overwrite a
        healthy writer's metadata.  This is the single constructor of
        the spec: the abort and the scrub derive the identical patch.
        """
        state = self.blob(blob_id)
        # Same gate as snapshot_info/history_upto: republishing a
        # collected tombstone would resurrect swept tree nodes.
        self._check_gc_floor(state, version)
        if version in state.tombstoned:
            return self._tombstone_spec(state, version)
        if version < 1 or version > state.last_assigned:
            raise VersionNotFound(f"version {version} of blob {blob_id!r} was never assigned")
        if version in state.committed or not pending:
            raise VersionNotFound(
                f"version {version} of blob {blob_id!r} is not a tombstone"
            )
        return self._tombstone_spec(state, version)

    def _tombstone_spec(self, state: BlobState, version: int) -> TombstoneSpec:
        record = state.records[version]
        return TombstoneSpec(
            blob_id=state.blob_id,
            version=version,
            start_block=record.start_block,
            end_block=record.end_block,
            size_after=record.size_after,
            prior_size=state.records[version - 1].size_after,
            block_size=state.block_size,
            history=tuple(
                r.history_record for r in state.records[1:version] if r.length > 0
            ),
        )

    # -- read-side queries ---------------------------------------------------------

    @staticmethod
    def _check_gc_floor(state: BlobState, version: int) -> None:
        """Reject versions below the GC floor (their trees were swept)."""
        if version < state.gc_floor:
            raise VersionNotFound(
                f"version {version} of blob {state.blob_id!r} was garbage-collected "
                f"(gc floor is {state.gc_floor})"
            )

    def published_version(self, blob_id: str) -> int:
        """Current publication watermark (highest readable version)."""
        return self.blob(blob_id).published

    def latest(self, blob_id: str) -> SnapshotInfo:
        """Info for the latest *published* snapshot (§III-A.1's special call)."""
        state = self.blob(blob_id)
        return self.snapshot_info(blob_id, state.published)

    def snapshot_info(self, blob_id: str, version: int) -> SnapshotInfo:
        """Read-side info for one snapshot; enforces the publication gate."""
        state = self.blob(blob_id)
        if version < 0 or version > state.last_assigned:
            raise VersionNotFound(f"version {version} of blob {blob_id!r} does not exist")
        self._check_gc_floor(state, version)
        if version > state.published:
            raise VersionNotReady(
                f"version {version} of blob {blob_id!r} is not yet published "
                f"(watermark is {state.published})"
            )
        record = state.records[version]
        size_blocks = block_count(record.size_after, state.block_size)
        return SnapshotInfo(
            blob_id=blob_id,
            version=version,
            size=record.size_after,
            block_size=state.block_size,
            root_span=root_span(size_blocks),
            tombstone=version in state.tombstoned,
        )

    def history_upto(self, blob_id: str, version: int) -> tuple[HistoryRecord, ...]:
        """Write-history records for versions 1..*version* (weaving/GC).

        Enforces the GC floor like :meth:`snapshot_info`: hints for a
        collected version would let a writer weave references into tree
        nodes the sweep already deleted.
        """
        state = self.blob(blob_id)
        if version > state.last_assigned:
            raise VersionNotFound(f"version {version} of blob {blob_id!r} does not exist")
        self._check_gc_floor(state, version)
        return tuple(r.history_record for r in state.records[1 : version + 1] if r.length > 0)

    def in_flight(self, blob_id: str) -> list[int]:
        """Assigned versions not yet committed (must be empty for GC).

        Tombstoned versions are *not* in flight: they committed as
        no-ops, so a dead writer no longer blocks garbage collection.
        """
        state = self.blob(blob_id)
        return [
            r.version
            for r in state.records[1:]
            if r.version not in state.committed
        ]

    def set_gc_floor(self, blob_id: str, floor: int) -> None:
        """Mark versions below *floor* unreadable (GC bookkeeping)."""
        state = self.blob(blob_id)
        if floor > state.published:
            raise BlobError(
                f"gc floor {floor} beyond published watermark {state.published}"
            )
        if floor < state.gc_floor:
            raise BlobError(f"gc floor must be monotone ({floor} < {state.gc_floor})")
        state.gc_floor = floor
