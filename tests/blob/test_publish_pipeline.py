"""Group-commit publish pipeline (DESIGN.md §10).

Three layers of coverage:

* the version manager's batch surface itself — per-item error
  isolation, watermark-once-per-batch, hooks firing once with the full
  committed range;
* the store's :class:`~repro.blob.store.PublishPipeline` under real
  concurrent appenders — round trips scale with batches (not writers),
  per-blob ordering holds, one writer's invalid request never poisons
  its batch-mates;
* chaos: a writer crashing *inside* a commit batch (metadata publish
  or overlapped scatter failing after assignment) still tombstones
  cleanly — the watermark advances over it, filler resolves, and no
  other batch member is lost or reordered.
"""

import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.blob import LocalBlobStore, StoreConfig
from repro.blob.version_manager import AssignRequest, VersionManagerCore
from repro.errors import (
    BlobNotFound,
    InvalidRange,
    ProviderError,
    ProviderUnavailable,
    PublishHookError,
    VersionNotFound,
    WriteConflict,
)

BS = 1024


# ---------------------------------------------------------------------------
# The version-manager batch surface (pure core, no threads)
# ---------------------------------------------------------------------------


class TestAssignBatch:
    def test_batch_order_is_assignment_order(self):
        vm = VersionManagerCore()
        vm.create_blob("b", block_size=BS)
        tickets = vm.assign_batch(
            [AssignRequest("b", BS), AssignRequest("b", 2 * BS), AssignRequest("b", BS)]
        )
        assert [t.version for t in tickets] == [1, 2, 3]
        # Appends chain: each offset is the preceding in-flight size.
        assert [t.offset for t in tickets] == [0, BS, 3 * BS]

    def test_invalid_member_is_isolated_and_consumes_no_version(self):
        vm = VersionManagerCore()
        vm.create_blob("b", block_size=BS)
        out = vm.assign_batch(
            [
                AssignRequest("b", BS),
                AssignRequest("b", BS, offset=17),  # misaligned
                AssignRequest("nope", BS),  # unknown blob
                AssignRequest("b", BS),
            ]
        )
        assert out[0].version == 1
        assert isinstance(out[1], InvalidRange)
        assert isinstance(out[2], VersionNotFound) or "nope" in str(out[2])
        # The bad members consumed no version number.
        assert out[3].version == 2

    def test_explicit_offset_members_ride_the_batch(self):
        vm = VersionManagerCore()
        vm.create_blob("b", block_size=BS)
        first, second = vm.assign_batch(
            [AssignRequest("b", 2 * BS), AssignRequest("b", BS, offset=0)]
        )
        assert (first.version, first.offset) == (1, 0)
        assert (second.version, second.offset) == (2, 0)


class TestCommitBatch:
    def _two_assigned(self):
        vm = VersionManagerCore()
        vm.create_blob("b", block_size=BS)
        vm.assign_append("b", BS)
        vm.assign_append("b", BS)
        return vm

    def test_watermark_advances_once_per_batch(self):
        vm = self._two_assigned()
        published = []
        vm.on_publish(lambda blob_id, watermark: published.append(watermark))
        outcomes = vm.commit_batch([("b", 1), ("b", 2)])
        assert [o.watermark for o in outcomes] == [2, 2]
        # ONE hook firing with the final watermark — not one per member.
        assert published == [2]

    def test_per_item_errors_do_not_poison_batch_mates(self):
        vm = self._two_assigned()
        outcomes = vm.commit_batch(
            [("b", 9), ("b", 1), ("b", 1), ("nope", 1), ("b", 2)]
        )
        assert isinstance(outcomes[0].error, VersionNotFound)
        # Members observe the BATCH's final watermark (2: versions 1
        # and 2 both committed in this batch), not their own version.
        assert outcomes[1].watermark == 2 and outcomes[1].error is None
        # Duplicate *within* the batch: the second report conflicts.
        assert isinstance(outcomes[2].error, WriteConflict)
        assert isinstance(outcomes[3].error, BlobNotFound)
        assert outcomes[4].watermark == 2
        assert vm.published_version("b") == 2

    def test_hook_error_reaches_every_committed_member(self):
        vm = self._two_assigned()

        def bad_hook(blob_id, watermark):
            raise RuntimeError("stale cache")

        vm.on_publish(bad_hook)
        outcomes = vm.commit_batch([("b", 1), ("b", 2), ("b", 9)])
        assert isinstance(outcomes[0].hook_error, PublishHookError)
        assert outcomes[0].hook_error is outcomes[1].hook_error
        assert outcomes[2].hook_error is None  # never committed
        # The snapshots ARE published despite the raising hook.
        assert vm.published_version("b") == 2

    def test_multi_blob_batch_advances_each_blob_once(self):
        vm = VersionManagerCore()
        fired = []
        vm.on_publish(lambda blob_id, watermark: fired.append((blob_id, watermark)))
        for blob_id in ("x", "y"):
            vm.create_blob(blob_id, block_size=BS)
            vm.assign_append(blob_id, BS)
            vm.assign_append(blob_id, BS)
        outcomes = vm.commit_batch([("x", 1), ("y", 1), ("x", 2), ("y", 2)])
        assert [o.watermark for o in outcomes] == [2, 2, 2, 2]
        assert sorted(fired) == [("x", 2), ("y", 2)]

    def test_gap_in_batch_holds_the_watermark(self):
        vm = VersionManagerCore()
        vm.create_blob("b", block_size=BS)
        for _ in range(3):
            vm.assign_append("b", BS)
        outcomes = vm.commit_batch([("b", 2), ("b", 3)])
        # Version 1 is still in flight: nothing is revealed yet.
        assert [o.watermark for o in outcomes] == [0, 0]
        assert vm.commit("b", 1) == 3


# ---------------------------------------------------------------------------
# The store pipeline under concurrent appenders
# ---------------------------------------------------------------------------


def _concurrent_appends(store, blob, writers, rounds, payload_of, extra=None):
    """Run appenders concurrently; returns per-thread recorded versions."""
    barrier = threading.Barrier(writers + (1 if extra else 0))
    versions = {t: [] for t in range(writers)}
    errors = []

    def appender(tid):
        try:
            barrier.wait()
            for r in range(rounds):
                versions[tid].append(store.append(blob, payload_of(tid, r)))
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=appender, args=(t,)) for t in range(writers)
    ]
    if extra:
        threads.append(threading.Thread(target=extra, args=(barrier,)))
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    return versions


#: Bound on every wait of the held-flush tests: a broken pipeline fails
#: them instead of hanging the suite.
WAIT_S = 10.0


class _QueueWatch:
    """Stands in for a group batcher's queue mutex: every release wakes
    :meth:`wait_queued`, so a test can see writers join the queue."""

    def __init__(self, batcher):
        self._batcher = batcher
        self._cond = threading.Condition()
        batcher._mutex = self

    def __enter__(self):
        self._cond.acquire()

    def __exit__(self, *exc):
        self._cond.notify_all()
        self._cond.release()

    def wait_queued(self, count):
        with self._cond:
            queued = self._cond.wait_for(
                lambda: len(self._batcher._queue) >= count, timeout=WAIT_S
            )
        assert queued, f"fewer than {count} writers queued within {WAIT_S}s"


def _hold_first_flush(pipeline, phase, writers):
    """Make one phase (``"assign"`` or ``"commit"``) exactly two flushes.

    The first writer to reach the phase flushes alone; the others enter
    only once that flush has begun, and the flush is held until all
    ``writers - 1`` of them are queued behind it, so the next leader
    drains them in one batch.  No window, no sleep.
    """
    batcher = getattr(pipeline, f"_{phase}s")
    watch = _QueueWatch(batcher)
    enter, flush = getattr(pipeline, phase), batcher._flush
    first, flushing = threading.Lock(), threading.Event()

    def gated(*args):
        if not first.acquire(blocking=False):
            assert flushing.wait(WAIT_S), f"the first {phase} flush never began"
        return enter(*args)

    def held(batch):
        if not flushing.is_set():
            flushing.set()
            watch.wait_queued(writers - 1)
        flush(batch)

    setattr(pipeline, phase, gated)
    batcher._flush = held


class TestPublishPipeline:
    def test_round_trips_scale_with_batches_not_writers(self):
        writers = 8
        with LocalBlobStore(config=StoreConfig(
            data_providers=4, metadata_providers=2, block_size=BS, publish_window=0
        )) as store:
            for phase in ("assign", "commit"):
                _hold_first_flush(store.publish_pipeline, phase, writers)
            blob = store.create()
            store.vman_stats.reset()
            _concurrent_appends(store, blob, writers, 1, lambda t, r: bytes([65 + t]) * BS)
            stats = store.vman_stats.snapshot()
            # Per-writer would be 2 * writers serialized interactions;
            # group commit pays one per batch: the first writer's, then
            # everyone queued behind it.
            assert stats["vman_assign_rounds"] == 2
            assert stats["vman_commit_rounds"] == 2
            assert stats["vman_round_trips"] == 4
            assert stats["vman_max_assign_batch"] == writers - 1
            assert stats["vman_max_commit_batch"] == writers - 1
            assert stats["vman_tickets_assigned"] == writers
            assert stats["vman_commits_reported"] == writers
            assert store.latest_version(blob) == writers

    def test_every_version_reads_back_in_assignment_order(self):
        writers, rounds = 6, 3
        with LocalBlobStore(config=StoreConfig(
            data_providers=4,
            metadata_providers=2,
            block_size=BS,
            io_workers=4,
            publish_window=2e-3,
            overlap_publish=True,
        )) as store:
            blob = store.create()
            versions = _concurrent_appends(
                store, blob, writers, rounds,
                lambda t, r: bytes([65 + t]) * ((1 + (t + r) % 2) * BS),
            )
            # Versions are dense, unique, and per-writer monotone
            # (per-blob ordering: a writer's later append has a higher
            # version than its earlier one).
            flat = sorted(v for vs in versions.values() for v in vs)
            assert flat == list(range(1, writers * rounds + 1))
            for vs in versions.values():
                assert vs == sorted(vs)
            # Content equals the concatenation of every writer's
            # payloads in version order: nothing lost, nothing reordered.
            by_version = {
                v: bytes([65 + t]) * ((1 + (t + r) % 2) * BS)
                for t, vs in versions.items()
                for r, v in enumerate(vs)
            }
            expected = b"".join(by_version[v] for v in flat)
            assert store.read(blob) == expected

    def test_invalid_member_fails_alone(self):
        writers, rounds = 4, 2
        with LocalBlobStore(config=StoreConfig(
            data_providers=4,
            metadata_providers=2,
            block_size=BS,
            io_workers=4,
            publish_window=5e-3,
        )) as store:
            blob = store.create()
            bad_error = []

            def bad_writer(barrier):
                barrier.wait()
                try:
                    # Misaligned offset: rejected at assignment, inside
                    # whatever batch it landed in.
                    store.write(blob, 17, b"x" * BS)
                except InvalidRange as exc:
                    bad_error.append(exc)

            _concurrent_appends(
                store, blob, writers, rounds,
                lambda t, r: bytes([65 + t]) * BS, extra=bad_writer,
            )
            assert len(bad_error) == 1
            assert store.latest_version(blob) == writers * rounds
            assert len(store.read(blob)) == writers * rounds * BS

    def test_single_threaded_behavior_unchanged(self):
        with LocalBlobStore(config=StoreConfig(
            data_providers=2, metadata_providers=2, block_size=BS
        )) as store:
            blob = store.create()
            assert store.append(blob, b"a" * BS) == 1
            assert store.append(blob, b"b" * BS) == 2
            stats = store.vman_stats.snapshot()
            assert stats["vman_assign_rounds"] == 2
            assert stats["vman_commit_rounds"] == 2
            assert stats["vman_max_commit_batch"] == 1
            assert store.read(blob) == b"a" * BS + b"b" * BS


# ---------------------------------------------------------------------------
# Chaos: a writer dying inside a commit batch
# ---------------------------------------------------------------------------


def _run_doomed_scenario(writers, rounds, doomed_round, window):
    """Concurrent appenders; one extra writer's metadata publish dies.

    Returns (store-read checks done inside); asserts the §10 abort
    invariants: the dead writer tombstones, the watermark advances
    over it, every survivor's append lands intact and in order.
    """
    store = LocalBlobStore(config=StoreConfig(
        data_providers=4,
        metadata_providers=2,
        block_size=BS,
        io_workers=4,
        publish_window=window,
        overlap_publish=True,
    ))
    try:
        blob = store.create()
        doomed_error = []
        original = store._publish_metadata

        def failing_publish(ticket, nonce, sizes, placements):
            if threading.current_thread().name == "doomed":
                raise ProviderError("injected: metadata provider died")
            return original(ticket, nonce, sizes, placements)

        store._publish_metadata = failing_publish

        def doomed_writer(barrier):
            barrier.wait()
            for r in range(doomed_round):
                store.append(blob, b"z" * BS)  # healthy warm-up appends
            threading.current_thread().name = "doomed"
            try:
                store.append(blob, b"z" * (2 * BS))
            except ProviderError as exc:
                doomed_error.append(exc)

        versions = _concurrent_appends(
            store, blob, writers, rounds,
            lambda t, r: bytes([65 + t]) * BS, extra=doomed_writer,
        )
        assert len(doomed_error) == 1
        total = writers * rounds + doomed_round + 1
        # The watermark advanced over the tombstone: every version is
        # published, none is wedged in flight.
        assert store.latest_version(blob) == total
        assert store.version_manager.in_flight(blob) == []
        tombstones = [
            v for v in range(1, total + 1) if store.snapshot(blob, v).tombstone
        ]
        assert len(tombstones) == 1
        # Survivors: dense versions, per-writer order, correct bytes.
        by_version = {
            v: bytes([65 + t]) * BS
            for t, vs in versions.items()
            for v in vs
        }
        for vs in versions.values():
            assert vs == sorted(vs)
        healthy_doomed = (
            set(range(1, total + 1)) - set(by_version) - set(tombstones)
        )
        for v in healthy_doomed:  # the doomed writer's warm-up appends
            by_version[v] = b"z" * BS
        by_version[tombstones[0]] = bytes(2 * BS)  # filler reads as zeros
        expected = b"".join(by_version[v] for v in range(1, total + 1))
        assert store.read(blob) == expected
        # The store stays fully writable after the abort.
        assert store.append(blob, b"t" * BS) == total + 1
    finally:
        store.close()


class TestCrashInsideCommitBatch:
    def test_metadata_death_mid_batch_tombstones_cleanly(self):
        _run_doomed_scenario(writers=6, rounds=2, doomed_round=1, window=5e-3)

    @given(
        writers=st.integers(min_value=2, max_value=5),
        rounds=st.integers(min_value=1, max_value=2),
        doomed_round=st.integers(min_value=0, max_value=2),
        window=st.sampled_from([0.0, 1e-3, 4e-3]),
    )
    def test_doomed_batches_property(self, writers, rounds, doomed_round, window):
        _run_doomed_scenario(writers, rounds, doomed_round, window)

    def test_abort_drains_in_flight_scatter_before_rollback(self):
        """Metadata dying while the overlapped scatter is still in
        flight must not strand late-landing replicas: the abort settles
        every transfer first, so the rollback sees the full list."""
        with LocalBlobStore(config=StoreConfig(
            data_providers=3,
            metadata_providers=2,
            block_size=BS,
            io_workers=4,
            provider_latency=0.02,  # transfers outlive the metadata failure
            overlap_publish=True,
        )) as store:
            blob = store.create()
            store.append(blob, b"a" * BS)
            before = store.provider_block_counts()

            def instant_failure(ticket, nonce, sizes, placements):
                raise ProviderError("injected: metadata down")

            store._publish_metadata = instant_failure
            with pytest.raises(ProviderError):
                store.append(blob, b"b" * (3 * BS))
            # Every replica the doomed write scattered was rolled back —
            # including the ones that landed after the failure surfaced.
            assert store.provider_block_counts() == before
            assert store.snapshot(blob, 2).tombstone

    def test_overlapped_scatter_failure_tombstones_cleanly(self):
        """A provider dying mid-scatter AFTER assignment (overlap mode)
        must tombstone — and the store must keep serving."""
        with LocalBlobStore(config=StoreConfig(
            data_providers=2,
            metadata_providers=2,
            block_size=BS,
            replication=2,
            io_workers=4,
            overlap_publish=True,
        )) as store:
            blob = store.create()
            store.append(blob, b"a" * BS)
            # Fail the provider WITHOUT decommissioning it: placement
            # still targets it, so the overlapped scatter dies after
            # the version was already assigned.
            victim = sorted(store.providers)[0]
            store.providers[victim].fail()
            with pytest.raises(ProviderUnavailable):
                store.append(blob, b"b" * (2 * BS))
            assert store.latest_version(blob) == 2
            assert store.snapshot(blob, 2).tombstone
            assert store.read(blob) == b"a" * BS + bytes(2 * BS)
            store.providers[victim].recover()
            store.provider_manager.recover(victim)
            assert store.append(blob, b"c" * BS) == 3
            assert store.read(blob) == b"a" * BS + bytes(2 * BS) + b"c" * BS
