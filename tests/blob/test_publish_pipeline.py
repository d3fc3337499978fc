"""Group-commit publish pipeline (DESIGN.md §10).

Four layers of coverage:

* the version manager's batch surface itself — per-item error
  isolation, the watermark advancing once per batch over the full
  committed range;
* the store's :class:`~repro.blob.store.PublishPipeline` under real
  concurrent appenders — round trips scale with batches (not writers),
  per-blob ordering holds, one writer's invalid request never poisons
  its batch-mates;
* the version-manager lock's scope — placement never waits for a
  version-manager round trip — and writers interrupted while waiting
  for a batch, which leave no version in flight;
* chaos: a writer crashing *inside* a commit batch (metadata publish
  or overlapped scatter failing after assignment) still tombstones
  cleanly — the watermark advances over it, filler resolves, and no
  other batch member is lost or reordered.
"""

import sys
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.blob import LocalBlobStore, StoreConfig
from repro.blob import store as store_module
from repro.blob.version_manager import AssignRequest, VersionManagerCore
from repro.errors import (
    BlobNotFound,
    InvalidRange,
    ProviderError,
    ProviderUnavailable,
    VersionNotFound,
    WriteConflict,
)

from tests.blob.test_vman_seam import OwnerLock
from tests.blob.vman_calls import assign, commit

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
        assign(vm, "b", BS)
        assign(vm, "b", BS)
        return vm

    def test_watermark_advances_once_per_batch(self):
        vm = self._two_assigned()
        outcomes = vm.commit_batch([("b", 1), ("b", 2)])
        # Every member sees the batch's final watermark, not its own.
        assert outcomes == [2, 2]
        assert vm.published_version("b") == 2

    def test_per_item_errors_do_not_poison_batch_mates(self):
        vm = self._two_assigned()
        outcomes = vm.commit_batch(
            [("b", 9), ("b", 1), ("b", 1), ("nope", 1), ("b", 2)]
        )
        assert isinstance(outcomes[0], VersionNotFound)
        # Members observe the BATCH's final watermark (2: versions 1
        # and 2 both committed in this batch), not their own version.
        assert outcomes[1] == 2
        # Duplicate *within* the batch: the second report conflicts.
        assert isinstance(outcomes[2], WriteConflict)
        assert isinstance(outcomes[3], BlobNotFound)
        assert outcomes[4] == 2
        assert vm.published_version("b") == 2

    def test_multi_blob_batch_advances_each_blob_once(self):
        vm = VersionManagerCore()
        for blob_id in ("x", "y"):
            vm.create_blob(blob_id, block_size=BS)
            assign(vm, blob_id, BS)
            assign(vm, blob_id, BS)
        outcomes = vm.commit_batch([("x", 1), ("y", 1), ("x", 2), ("y", 2)])
        assert outcomes == [2, 2, 2, 2]
        assert vm.published_version("x") == vm.published_version("y") == 2

    def test_gap_in_batch_holds_the_watermark(self):
        vm = VersionManagerCore()
        vm.create_blob("b", block_size=BS)
        for _ in range(3):
            assign(vm, "b", BS)
        outcomes = vm.commit_batch([("b", 2), ("b", 3)])
        # Version 1 is still in flight: nothing is revealed yet.
        assert outcomes == [0, 0]
        assert commit(vm, "b", 1) == 3


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


def _inline_store():
    return LocalBlobStore(config=StoreConfig(
        data_providers=4, metadata_providers=2, block_size=BS
    ))


#: Bound on every wait of the held-flush tests: a broken pipeline fails
#: them instead of hanging the suite.
WAIT_S = 10.0


class _QueueWatch(threading.Condition):
    """Stands in for a group batcher's condition: every writer that parks
    behind a running flush wakes :meth:`wait_queued` first, so a test can
    see writers join the queue."""

    def __init__(self, batcher):
        super().__init__()
        self._batcher = batcher
        self._seen = threading.Condition()
        batcher._cond = self

    def wait(self, timeout=None):
        with self._seen:
            self._seen.notify_all()
        return super().wait(timeout)

    def wait_queued(self, count):
        with self._seen:
            queued = self._seen.wait_for(
                lambda: len(self._batcher._queue) >= count, timeout=WAIT_S
            )
        assert queued, f"fewer than {count} writers queued within {WAIT_S}s"


def _hold_flushes(pipeline, *behind):
    """Hold the n-th flush of the pipeline's batcher until ``behind[n]``
    entries are queued behind it; later flushes run unheld.  Returns
    one event per held flush, set as that flush begins.  No sleep."""
    batcher = pipeline._batcher
    watch = _QueueWatch(batcher)
    flush, flushes = batcher._flush, iter(range(len(behind)))
    began = [threading.Event() for _ in behind]

    def held(batch):
        n = next(flushes, None)
        if n is not None:
            began[n].set()
            watch.wait_queued(behind[n])
        flush(batch)

    batcher._flush = held
    return began


def _gate(pipeline, step, *events):
    """The k-th writer to enter *step* (``"assign"`` or ``"commit"``)
    first waits for ``events[k]`` (``None``: no wait); writers past the
    last event wait for it."""
    enter, arrivals, lock = getattr(pipeline, step), iter(range(len(events))), threading.Lock()

    def gated(*args):
        with lock:
            event = events[next(arrivals, len(events) - 1)]
        if event is not None:
            assert event.wait(WAIT_S), f"a {step} gate never opened"
        return enter(*args)

    setattr(pipeline, step, gated)


class TestPublishPipeline:
    def test_round_trips_scale_with_batches_not_writers(self):
        writers = 8
        with _inline_store() as store:
            # Four flushes: the first writer's assign alone, the other
            # assigns queued behind it, the first writer's commit (let
            # in only once the second flush has begun, so it cannot
            # ride it), then the other commits queued behind that.
            pipeline = store.publish_pipeline
            began = _hold_flushes(pipeline, writers - 1, 1, writers - 1)
            _gate(pipeline, "assign", None, began[0])
            _gate(pipeline, "commit", began[1], began[2])
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

    def test_a_queued_commit_and_a_queued_assign_ride_one_flush(self):
        """Three writers, five flushes: the first assign alone, the
        second assign with the first commit and the third assign queued
        behind it, then both of those in ONE flush, then the two other
        commits, one flush each (each let in once the flush before it
        has begun)."""
        with _inline_store() as store:
            pipeline = store.publish_pipeline
            began = _hold_flushes(pipeline, 1, 2, 1, 1)
            _gate(pipeline, "assign", None, began[0], began[1])
            _gate(pipeline, "commit", began[1], began[2], began[3])
            kinds, deltas = [], []
            flush = pipeline._batcher._flush

            def measured(batch):
                before = store.vman_stats.snapshot()
                flush(batch)
                after = store.vman_stats.snapshot()
                kinds.append(sorted(type(entry.request).__name__ for entry in batch))
                deltas.append({key: after[key] - before[key] for key in after})

            pipeline._batcher._flush = measured
            blob = store.create()
            store.vman_stats.reset()
            versions = _concurrent_appends(
                store, blob, 3, 1, lambda t, r: bytes([65 + t]) * BS
            )
            stats = store.vman_stats.snapshot()
            assert kinds == [
                ["AssignRequest"],
                ["AssignRequest"],
                ["AssignRequest", "tuple"],
                ["tuple"],
                ["tuple"],
            ]
            mixed = deltas[2]
            assert mixed["vman_round_trips"] == 1
            assert mixed["vman_assign_rounds"] == mixed["vman_commit_rounds"] == 1
            assert mixed["vman_tickets_assigned"] == mixed["vman_commits_reported"] == 1
            # Each kind counts the flushes that carried it: 3 + 3 > 5.
            assert stats["vman_round_trips"] == 5
            assert stats["vman_assign_rounds"] == stats["vman_commit_rounds"] == 3
            assert sorted(v for vs in versions.values() for v in vs) == [1, 2, 3]
            assert store.latest_version(blob) == 3
            assert len(store.read(blob)) == 3 * BS

    def test_every_version_reads_back_in_assignment_order(self):
        writers, rounds = 6, 3
        with LocalBlobStore(config=StoreConfig(
            data_providers=4,
            metadata_providers=2,
            block_size=BS,
            io_workers=4,
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

    def test_batcher_holds_under_a_short_switch_interval(self):
        """More writers than cores, switching threads every microsecond:
        a lost or doubled batcher entry breaks the counts."""
        writers, rounds = 12, 3
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _inline_store() as store:
                blob = store.create()
                store.vman_stats.reset()
                versions = _concurrent_appends(
                    store, blob, writers, rounds, lambda t, r: bytes([65 + t]) * BS
                )
                stats = store.vman_stats.snapshot()
        finally:
            sys.setswitchinterval(interval)
        ops = writers * rounds
        assert sorted(v for vs in versions.values() for v in vs) == list(
            range(1, ops + 1)
        )
        assert stats["vman_tickets_assigned"] == ops
        assert stats["vman_commits_reported"] == ops
        assert stats["vman_assign_rounds"] <= ops
        assert store.version_manager.in_flight(blob) == []

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
# The version-manager lock's scope, and writers interrupted mid-wait
# ---------------------------------------------------------------------------


def _held_assign_batch(store, *gates):
    """Run ``gates[n]`` inside the n-th assign flush, before the version
    manager assigns; returns the list of flushed batch sizes."""
    real, calls = store.version_manager.assign_batch, []

    def held(requests):
        calls.append(len(requests))
        if len(calls) <= len(gates):
            gates[len(calls) - 1]()
        return real(requests)

    store.version_manager.assign_batch = held
    return calls


def _start_writer(store, blob, data, name, outcomes):
    """Append on a thread called *name*; its version or exception type
    lands in ``outcomes[name]``."""

    def run():
        try:
            outcomes[name] = store.append(blob, data)
        except BaseException as exc:
            outcomes[name] = type(exc)

    thread = threading.Thread(target=run, name=name)
    thread.start()
    return thread


class _InterruptedWait(threading.Condition):
    """Stands in for a batcher's condition: the ``victim`` thread's first
    wait leaves the condition until *resume* is set, then raises
    ``KeyboardInterrupt`` as a signal landing mid-wait would; its later
    waits set :attr:`rewaits` and wait for real."""

    def __init__(self, batcher, resume):
        super().__init__()
        self._resume = resume
        self.parked, self.rewaits = threading.Event(), threading.Event()
        batcher._cond = self

    def wait(self, timeout=None):
        if threading.current_thread().name != "victim":
            return super().wait(timeout)
        if self.parked.is_set():
            self.rewaits.set()
            return super().wait(timeout)
        self.release()
        try:
            self.parked.set()
            self._resume.wait(WAIT_S)
        finally:
            self.acquire()
        raise KeyboardInterrupt


class TestVersionManagerLockScope:
    def test_placement_does_not_wait_for_a_vman_round_trip(self):
        """A writer arriving during an assign flush places and ships its
        blocks while the flush holds the version manager."""
        with _inline_store() as store:
            blob = store.create()
            began, release, reached = (threading.Event() for _ in range(3))
            _held_assign_batch(store, lambda: (began.set(), release.wait(WAIT_S)))
            for provider in store.providers.values():

                def put_vector(items, landed, real=provider._put_vector):
                    if threading.current_thread().name == "second":
                        reached.set()
                    return real(items, landed)

                provider._put_vector = put_vector
            outcomes = {}
            first = _start_writer(store, blob, b"a" * BS, "first", outcomes)
            flushing = began.wait(WAIT_S)
            second = _start_writer(store, blob, b"b" * BS, "second", outcomes)
            placed = reached.wait(WAIT_S)
            release.set()
            first.join(WAIT_S)
            second.join(WAIT_S)
            assert flushing, "the first assign flush never began"
            assert placed, "the second writer's put request waited for the flush"
            assert outcomes == {"first": 1, "second": 2}

    def test_no_thread_holds_the_lock_while_it_pays_a_round_trip(self, monkeypatch):
        """The round trip is network latency: concurrent callers overlap
        it, and only the core call is serialized."""
        with LocalBlobStore(config=StoreConfig(
            data_providers=4, metadata_providers=2, block_size=BS, vman_latency=0.001
        )) as store:
            lock = store._lock = OwnerLock()
            paid, held = [], []

            def sleep(seconds):  # records, never sleeps
                paid.append(seconds)
                if lock.owner == threading.get_ident():
                    held.append(seconds)

            monkeypatch.setattr(store_module, "time", SimpleNamespace(sleep=sleep))
            blob = store.create()
            _concurrent_appends(store, blob, 4, 3, lambda t, r: bytes([65 + t]) * BS)
            assert store.snapshot(blob).size == 12 * BS
            stats = store.vman_stats.snapshot()
        assert held == []
        assert paid == [0.001] * stats["vman_round_trips"]
        assert stats["vman_tickets_assigned"] == stats["vman_commits_reported"] == 12

    def test_interrupted_while_queued_withdraws_its_entry(self):
        with _inline_store() as store:
            blob = store.create()
            began, release, now = (threading.Event() for _ in range(3))
            now.set()
            calls = _held_assign_batch(
                store, lambda: (began.set(), release.wait(WAIT_S))
            )
            _InterruptedWait(store.publish_pipeline._batcher, resume=now)
            outcomes = {}
            first = _start_writer(store, blob, b"a" * BS, "first", outcomes)
            assert began.wait(WAIT_S)
            _start_writer(store, blob, b"b" * BS, "victim", outcomes).join(WAIT_S)
            release.set()
            first.join(WAIT_S)
            assert outcomes == {"first": 1, "victim": KeyboardInterrupt}
            # No flush served the withdrawn entry: no version for nobody.
            assert store.append(blob, b"c" * BS) == 2
            assert calls == [1, 1]
            assert store.version_manager.in_flight(blob) == []
            assert store.latest_version(blob) == 2
            assert store.read(blob) == b"a" * BS + b"c" * BS
            assert sum(store.provider_block_counts().values()) == 2

    def test_interrupted_while_flushing_tombstones_its_version(self):
        with _inline_store() as store:
            blob = store.create()
            began, release, second_began = (threading.Event() for _ in range(3))
            watch = _InterruptedWait(
                store.publish_pipeline._batcher, resume=second_began
            )
            calls = _held_assign_batch(
                store,
                lambda: (began.set(), release.wait(WAIT_S)),
                # The victim's entry rides this flush; hold it until the
                # interrupted victim waits for it to settle.
                lambda: (second_began.set(), watch.rewaits.wait(WAIT_S)),
            )
            outcomes = {}
            first = _start_writer(store, blob, b"a" * BS, "first", outcomes)
            assert began.wait(WAIT_S)
            victim = _start_writer(store, blob, b"b" * BS, "victim", outcomes)
            assert watch.parked.wait(WAIT_S)
            third = _start_writer(store, blob, b"c" * BS, "third", outcomes)
            release.set()
            for thread in (first, victim, third):
                thread.join(WAIT_S)
            assert outcomes == {"first": 1, "victim": KeyboardInterrupt, "third": 3}
            assert calls == [1, 2]
            assert watch.rewaits.is_set()
            # The victim's assigned version became a tombstone, so the
            # watermark passes it.
            assert store.version_manager.in_flight(blob) == []
            assert store.latest_version(blob) == 3
            assert store.snapshot(blob, 2).tombstone
            assert store.read(blob) == b"a" * BS + bytes(BS) + b"c" * BS
            assert sum(store.provider_block_counts().values()) == 2


# ---------------------------------------------------------------------------
# Chaos: a writer dying inside a commit batch
# ---------------------------------------------------------------------------


def _run_doomed_scenario(writers, rounds, doomed_round):
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
        _run_doomed_scenario(writers=6, rounds=2, doomed_round=1)

    @given(
        writers=st.integers(min_value=2, max_value=8),
        rounds=st.integers(min_value=1, max_value=3),
        doomed_round=st.integers(min_value=0, max_value=2),
    )
    def test_doomed_batches_property(self, writers, rounds, doomed_round):
        _run_doomed_scenario(writers, rounds, doomed_round)

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
