"""Tests for the version manager state machine."""

import pytest

from repro.blob import VersionManagerCore
from repro.errors import (
    BlobError,
    BlobNotFound,
    InvalidRange,
    VersionNotFound,
    VersionNotReady,
    WriteConflict,
)

from tests.blob.vman_calls import assign, commit

BS = 64  # tiny block size keeps the arithmetic readable


@pytest.fixture
def vm():
    core = VersionManagerCore()
    core.create_blob("b", block_size=BS)
    return core


class TestBlobLifecycle:
    def test_create_registers_version_zero(self, vm):
        info = vm.snapshot_info("b", 0)
        assert info.version == 0 and info.size == 0
        assert vm.published_version("b") == 0

    def test_duplicate_create_rejected(self, vm):
        with pytest.raises(BlobError):
            vm.create_blob("b", block_size=BS)

    def test_unknown_blob(self, vm):
        with pytest.raises(BlobNotFound):
            assign(vm, "ghost", BS, offset=0)

    def test_create_validation(self):
        vm = VersionManagerCore()
        with pytest.raises(ValueError):
            vm.create_blob("x", block_size=0)
        with pytest.raises(ValueError):
            vm.create_blob("x", block_size=BS, replication=0)

    def test_blob_ids(self, vm):
        vm.create_blob("a", block_size=BS)
        assert vm.blob_ids() == ["a", "b"]


class TestAssignment:
    def test_first_write(self, vm):
        t = assign(vm, "b", 4 * BS, offset=0)
        assert t.version == 1
        assert (t.start_block, t.end_block) == (0, 4)
        assert t.size_after == 4 * BS
        assert t.root_span == 4
        assert t.history == ()

    def test_history_hints_accumulate(self, vm):
        assign(vm, "b", 4 * BS, offset=0)
        assign(vm, "b", 2 * BS, offset=0)
        t3 = assign(vm, "b", BS)
        assert t3.version == 3
        assert t3.history == ((1, 0, 4), (2, 0, 2))

    def test_append_offset_fixed_from_uncommitted_predecessor(self, vm):
        """§III-D: the append offset is the size of the *preceding*
        snapshot even though that write is still in flight."""
        t1 = assign(vm, "b", 4 * BS)  # not committed!
        t2 = assign(vm, "b", BS)
        assert t1.version == 1 and t2.version == 2
        assert t2.offset == 4 * BS
        assert t2.size_after == 5 * BS

    def test_overwrite_does_not_grow(self, vm):
        assign(vm, "b", 4 * BS, offset=0)
        t = assign(vm, "b", BS, offset=BS)
        assert t.size_after == 4 * BS
        assert (t.start_block, t.end_block) == (1, 2)

    def test_trailing_partial_write_allowed(self, vm):
        t = assign(vm, "b", 100, offset=0)  # 1 full + partial into block 1
        assert t.size_after == 100
        assert t.end_block == 2

    def test_extend_with_partial_allowed(self, vm):
        assign(vm, "b", 2 * BS, offset=0)
        t = assign(vm, "b", BS + 10, offset=2 * BS)
        assert t.size_after == 3 * BS + 10


class TestAlignmentRules:
    def test_unaligned_offset_rejected(self, vm):
        with pytest.raises(InvalidRange):
            assign(vm, "b", BS, offset=10)

    def test_hole_rejected(self, vm):
        with pytest.raises(InvalidRange):
            assign(vm, "b", BS, offset=BS)  # size is 0: offset 64 leaves a hole

    def test_interior_partial_rejected(self, vm):
        assign(vm, "b", 4 * BS, offset=0)
        with pytest.raises(InvalidRange):
            assign(vm, "b", 10, offset=0)  # would truncate block 0 mid-blob

    def test_zero_length_rejected(self, vm):
        with pytest.raises(InvalidRange):
            assign(vm, "b", 0, offset=0)
        with pytest.raises(InvalidRange):
            assign(vm, "b", 0)

    def test_negative_offset_rejected(self, vm):
        with pytest.raises(InvalidRange):
            assign(vm, "b", BS, offset=-BS)

    def test_append_to_unaligned_size_rejected(self, vm):
        assign(vm, "b", 100, offset=0)
        with pytest.raises(InvalidRange):
            assign(vm, "b", BS)

    def test_partial_rewrite_to_exact_end_allowed(self, vm):
        assign(vm, "b", 100, offset=0)
        t = assign(vm, "b", 36, offset=BS)  # rewrites trailing partial exactly
        assert t.size_after == 100


class TestCommitAndPublication:
    def test_in_order_commits_publish_incrementally(self, vm):
        assign(vm, "b", BS)
        assign(vm, "b", BS)
        assert commit(vm, "b", 1) == 1
        assert commit(vm, "b", 2) == 2

    def test_out_of_order_commit_delays_publication(self, vm):
        """§III-A.4: revealing order must respect assignment order."""
        assign(vm, "b", BS)
        assign(vm, "b", BS)
        assign(vm, "b", BS)
        assert commit(vm, "b", 3) == 0
        assert commit(vm, "b", 2) == 0
        assert vm.published_version("b") == 0
        assert commit(vm, "b", 1) == 3  # watermark jumps over the batch

    def test_unpublished_snapshot_not_readable(self, vm):
        assign(vm, "b", BS)
        assign(vm, "b", BS)
        commit(vm, "b", 2)
        with pytest.raises(VersionNotReady):
            vm.snapshot_info("b", 2)
        with pytest.raises(VersionNotReady):
            vm.snapshot_info("b", 1)

    def test_latest_tracks_watermark_not_assignment(self, vm):
        assign(vm, "b", BS)
        commit(vm, "b", 1)
        assign(vm, "b", BS)  # in flight
        latest = vm.latest("b")
        assert latest.version == 1 and latest.size == BS

    def test_double_commit_rejected(self, vm):
        assign(vm, "b", BS)
        commit(vm, "b", 1)
        with pytest.raises(WriteConflict):
            commit(vm, "b", 1)

    def test_commit_unassigned_rejected(self, vm):
        with pytest.raises(VersionNotFound):
            commit(vm, "b", 5)

    def test_in_flight_listing(self, vm):
        assign(vm, "b", BS)
        assign(vm, "b", BS)
        commit(vm, "b", 2)
        assert vm.in_flight("b") == [1]


class TestAbort:
    def test_abort_interior_tombstones(self, vm):
        """§VI-B closure: a dead interior writer no longer wedges the
        watermark — its version commits as a no-op tombstone."""
        assign(vm, "b", BS)  # v1: the dead writer
        assign(vm, "b", BS)  # v2: already wove references to v1
        spec = vm.abort("b", 1)
        assert (spec.version, spec.start_block, spec.end_block) == (1, 0, 1)
        assert spec.prior_size == 0 and spec.size_after == BS
        assert spec.history == ()
        # Tombstone committed as no-op: published, not in flight.
        assert vm.published_version("b") == 1
        assert vm.in_flight("b") == [2]
        assert commit(vm, "b", 2) == 2  # the survivor publishes normally

    def test_abort_committed_rejected(self, vm):
        assign(vm, "b", BS)
        commit(vm, "b", 1)
        with pytest.raises(WriteConflict):
            vm.abort("b", 1)

    def test_abort_unassigned_rejected(self, vm):
        with pytest.raises(VersionNotFound):
            vm.abort("b", 3)
        with pytest.raises(VersionNotFound):
            vm.abort("b", 0)

    def test_double_abort_rejected(self, vm):
        assign(vm, "b", BS)
        assign(vm, "b", BS)
        vm.abort("b", 1)
        with pytest.raises(WriteConflict):
            vm.abort("b", 1)  # already committed (as a tombstone)

    def test_commit_of_tombstone_rejected(self, vm):
        assign(vm, "b", BS)
        assign(vm, "b", BS)
        vm.abort("b", 1)
        with pytest.raises(WriteConflict):
            commit(vm, "b", 1)

    def test_abort_last_version_tombstones(self, vm):
        """Every abort tombstones, the highest version too: real nodes
        of the dead write may already be in the DHT, so its number is
        never reused."""
        assign(vm, "b", BS)
        spec = vm.abort("b", 1)
        assert spec.version == 1 and spec.size_after == BS
        assert vm.published_version("b") == 1
        assert vm.snapshot_info("b", 1).tombstone is True
        t = assign(vm, "b", BS)
        assert t.version == 2  # number NOT reused
        assert t.offset == BS  # the tombstone's (zero-filled) size stands
        assert t.history == ((1, 0, 1),)  # and it stays in the hints

    def test_tombstone_keeps_append_offsets_valid(self, vm):
        """Later appends fixed their offsets on the dead write's size;
        the tombstone must keep that size (zero-filled), not shrink."""
        assign(vm, "b", 4 * BS)  # v1: will die
        t2 = assign(vm, "b", BS)  # v2: offset fixed at 4*BS
        assert t2.offset == 4 * BS
        vm.abort("b", 1)
        assert vm.snapshot_info("b", 1).size == 4 * BS
        commit(vm, "b", 2)
        assert vm.snapshot_info("b", 2).size == 5 * BS

    def test_snapshot_info_flags_tombstones(self, vm):
        assign(vm, "b", BS)
        assign(vm, "b", BS)
        vm.abort("b", 1)
        commit(vm, "b", 2)
        assert vm.snapshot_info("b", 1).tombstone is True
        assert vm.snapshot_info("b", 2).tombstone is False
        assert vm.latest("b").tombstone is False

    def test_tombstone_stays_in_history_hints(self, vm):
        """Writers assigned after the abort must still weave references
        to the tombstone — its filler nodes are what resolves them."""
        assign(vm, "b", BS)  # v1
        assign(vm, "b", BS)  # v2: dies
        assign(vm, "b", BS)  # v3: references v2 per the hint rule
        vm.abort("b", 2)
        t4 = assign(vm, "b", BS)
        assert t4.history == ((1, 0, 1), (2, 1, 2), (3, 2, 3))

    def test_watermark_jumps_over_tombstone_batch(self, vm):
        assign(vm, "b", BS)  # v1
        assign(vm, "b", BS)  # v2
        assign(vm, "b", BS)  # v3
        commit(vm, "b", 3)
        commit(vm, "b", 1)
        assert vm.published_version("b") == 1
        vm.abort("b", 2)  # the straggler was dead: watermark jumps to 3
        assert vm.published_version("b") == 3

    def test_tombstone_spec_query(self, vm):
        assign(vm, "b", 2 * BS)
        assign(vm, "b", BS)
        spec = vm.abort("b", 1)
        assert vm.tombstone_spec("b", 1) == spec
        # Only the aborting writer itself (pending=True) may take the
        # spec of a version still in flight — it publishes filler
        # BEFORE finalising; anyone else would be clobbering a healthy
        # writer's metadata.
        with pytest.raises(VersionNotFound):
            vm.tombstone_spec("b", 2)
        pending = vm.tombstone_spec("b", 2, pending=True)
        assert pending.version == 2 and pending.prior_size == 2 * BS
        commit(vm, "b", 2)
        with pytest.raises(VersionNotFound):
            vm.tombstone_spec("b", 2, pending=True)  # committed normally
        with pytest.raises(VersionNotFound):
            vm.tombstone_spec("b", 9)  # never assigned

    def test_tombstone_spec_respects_gc_floor(self, vm):
        """Republishing a collected tombstone would resurrect tree
        nodes the GC sweep already deleted."""
        assign(vm, "b", BS)  # v1: dies
        assign(vm, "b", BS)  # v2
        vm.abort("b", 1)
        commit(vm, "b", 2)
        vm.set_gc_floor("b", 2)
        with pytest.raises(VersionNotFound):
            vm.tombstone_spec("b", 1)

    def test_gc_not_blocked_by_tombstones(self, vm):
        assign(vm, "b", BS)
        assign(vm, "b", BS)
        vm.abort("b", 1)
        assert vm.in_flight("b") == [2]
        commit(vm, "b", 2)
        assert vm.in_flight("b") == []  # GC's quiescence check passes


class TestQueries:
    def test_snapshot_info_geometry(self, vm):
        assign(vm, "b", 5 * BS)
        commit(vm, "b", 1)
        info = vm.snapshot_info("b", 1)
        assert info.size == 5 * BS
        assert info.size_blocks == 5
        assert info.root_span == 8

    def test_missing_version(self, vm):
        with pytest.raises(VersionNotFound):
            vm.snapshot_info("b", 7)
        with pytest.raises(VersionNotFound):
            vm.snapshot_info("b", -1)

    def test_history_upto(self, vm):
        assign(vm, "b", BS)
        assign(vm, "b", 2 * BS)
        assert vm.history_upto("b", 2) == ((1, 0, 1), (2, 1, 3))
        assert vm.history_upto("b", 1) == ((1, 0, 1),)
        with pytest.raises(VersionNotFound):
            vm.history_upto("b", 9)

    def test_history_upto_respects_gc_floor(self, vm):
        """Hints for a collected version would weave references into
        tree nodes the sweep already deleted."""
        assign(vm, "b", BS)
        assign(vm, "b", BS)
        commit(vm, "b", 1)
        commit(vm, "b", 2)
        vm.set_gc_floor("b", 2)
        with pytest.raises(VersionNotFound):
            vm.history_upto("b", 1)
        # At or above the floor the full hint list (including collected
        # versions' records) is still served: shared subtrees of marked
        # snapshots survive the sweep, so those references resolve.
        assert vm.history_upto("b", 2) == ((1, 0, 1), (2, 1, 2))

    def test_gc_floor(self, vm):
        assign(vm, "b", BS)
        assign(vm, "b", BS)
        commit(vm, "b", 1)
        commit(vm, "b", 2)
        vm.set_gc_floor("b", 2)
        with pytest.raises(VersionNotFound):
            vm.snapshot_info("b", 1)
        assert vm.snapshot_info("b", 2).version == 2
        with pytest.raises(BlobError):
            vm.set_gc_floor("b", 1)  # not monotone
        with pytest.raises(BlobError):
            vm.set_gc_floor("b", 3)  # beyond watermark

    def test_branch_inherits_gc_floor(self, vm):
        for _ in range(3):
            commit(vm, "b", assign(vm, "b", BS).version)
        vm.set_gc_floor("b", 3)
        vm.branch_blob("b", "c")
        for version in (1, 2):
            with pytest.raises(VersionNotFound, match="garbage-collected"):
                vm.snapshot_info("c", version)
            with pytest.raises(VersionNotFound):
                vm.history_upto("c", version)
        assert vm.snapshot_info("c", 3).size == 3 * BS
        with pytest.raises(BlobError):
            vm.set_gc_floor("c", 2)  # the branch's floor is already 3

    def test_published_version_never_decreases(self, vm):
        """Out-of-order commits and aborts only ever move the watermark
        forward, releasing every version below it at once."""
        for _ in range(4):
            assign(vm, "b", BS)
        seen = [vm.published_version("b")]
        steps = ((commit, 3), (commit, 2), (VersionManagerCore.abort, 1), (commit, 4))
        for finish, version in steps:
            finish(vm, "b", version)
            seen.append(vm.published_version("b"))
        assert seen == [0, 0, 0, 3, 4]
