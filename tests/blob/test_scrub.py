"""Anti-entropy scrub (DESIGN.md §8): replicas converge on their own.

PR 2 left one manual step in the failure story: after a metadata
bucket outage spanning a write abort, a recovered replica serves stale
real-patch nodes of the dead write until ``republish_tombstone`` runs
by hand.  The scrub subsystem removes it — these tests drive the whole
acceptance scenario (bucket dies mid-write, abort, recovery, one scrub
pass restores digest-verified convergence), the fold-in of block
re-replication, the GC-floor and in-flight guards, the rate limiter,
and the background daemon.
"""

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.blob import (
    LocalBlobStore,
    MaintenanceDaemon,
    ScrubReport,
    StoreConfig,
    Throttle,
    collect_garbage,
)
from repro.dht.store import MISSING
from repro.errors import ProviderUnavailable, ReplicationError, VersionNotFound
from tests.blob.test_write_rollback import IO_MODES, engine_kwargs, make_chaos_store

BS = 16


def make_store(**kwargs):
    defaults = dict(
        data_providers=4, metadata_providers=4, block_size=BS, replication=1
    )
    defaults.update(kwargs)
    return LocalBlobStore(config=StoreConfig(**defaults))


def co_owned_keys(store, bucket_a, bucket_b):
    """Keys whose replica set contains both named buckets."""
    owners = store.metadata.store.owners
    return {
        key
        for key in store.metadata.all_node_keys()
        if bucket_a in owners(key) and bucket_b in owners(key)
    }


class TestCleanStore:
    def test_scrub_of_healthy_store_heals_nothing(self):
        store = make_store(metadata_replication=2, replication=2)
        blob = store.create()
        store.append(blob, b"a" * (4 * BS))
        store.write(blob, 0, b"b" * (2 * BS))
        report = store.scrub()
        assert isinstance(report, ScrubReport)
        assert report.clean
        assert report.blobs_scanned == 1
        assert report.nodes_checked > 0
        assert report.blocks_checked > 0
        assert report.errors == ()
        store.close()

    def test_scrub_is_idempotent_after_healing(self):
        store = make_store(metadata_replication=2)
        blob = store.create()
        store.append(blob, b"a" * (4 * BS))
        # Damage: one replica of every key loses its copy (a bucket that
        # was down during the writes and came back empty-handed).
        victim = next(iter(store.metadata.store.buckets))
        store.metadata.store.buckets[victim]._items.clear()
        first = store.scrub()
        assert first.replicas_healed > 0
        second = store.scrub()
        assert second.clean
        store.close()


class TestMetadataReconciliation:
    def test_lagging_replica_refed_from_healthy_copy(self):
        store = make_store(metadata_providers=6, metadata_replication=2)
        blob = store.create()
        store.append(blob, b"a" * (4 * BS))

        # A bucket down during the write misses every put addressed to it.
        victim = sorted(store.metadata.store.buckets)[0]
        store.metadata.store.fail_bucket(victim)
        store.append(blob, b"b" * (4 * BS))
        store.metadata.store.recover_bucket(victim)

        missing_before = [
            key
            for key in store.metadata.all_node_keys()
            if store.metadata.replica_nodes(key).get(victim) is MISSING
        ]
        report = store.scrub()
        assert report.replicas_healed == len(missing_before)
        assert store.metadata.divergent_keys() == []
        # Digest equality across buckets over every co-owned key set.
        buckets = store.metadata.store.buckets
        for other in buckets:
            if other == victim:
                continue
            shared = co_owned_keys(store, victim, other)
            assert buckets[victim].digest(shared) == buckets[other].digest(shared)
        store.close()

    @pytest.mark.parametrize("io_workers", IO_MODES)
    def test_offline_bucket_is_skipped_not_an_error(self, io_workers):
        store = make_store(
            metadata_providers=4, metadata_replication=2, **engine_kwargs(io_workers)
        )
        blob = store.create()
        store.append(blob, b"a" * (2 * BS))
        victim = sorted(store.metadata.store.buckets)[0]
        store.metadata.store.fail_bucket(victim)
        report = store.scrub()
        assert report.offline_buckets == 1
        # Nothing readable diverged; the dead bucket heals after recovery.
        assert report.errors == ()
        store.close()

    @pytest.mark.parametrize("io_workers", IO_MODES)
    def test_bucket_dying_mid_pass_is_recorded_not_raised(self, io_workers):
        """A bucket failing between the pass's enumeration and its heal
        write must not abort the sweep (the GC's mid-sweep rule)."""
        store = make_store(
            metadata_providers=6, metadata_replication=2, **engine_kwargs(io_workers)
        )
        blob = store.create()
        victim = sorted(store.metadata.store.buckets)[0]
        store.metadata.store.fail_bucket(victim)
        store.append(blob, b"a" * (4 * BS))  # victim lags behind
        store.metadata.store.recover_bucket(victim)

        bucket = store.metadata.store.buckets[victim]
        real_put = bucket.put

        def die_on_first_heal(key, value):
            bucket.online = False  # fails between enumeration and heal
            return real_put(key, value)

        bucket.put = die_on_first_heal
        report = store.scrub()
        bucket.put = real_put
        assert report.errors  # the lost heals are recorded ...
        assert all("heal of" in err for err in report.errors)
        # ... and the pass after recovery finishes the job.
        store.metadata.store.recover_bucket(victim)
        store.scrub()
        assert store.metadata.divergent_keys() == []
        store.close()

    def test_in_flight_version_is_left_alone(self):
        store = make_store(metadata_replication=2)
        blob = store.create()
        store.append(blob, b"a" * BS)
        ticket = store.version_manager.assign_append(blob, BS)  # v2 in flight
        report = store.scrub()
        assert report.skipped_in_flight == 0  # nothing published under v2 yet
        # Publish half the patch by hand: the scrub must not "heal"
        # (i.e. interfere with) a racing writer's partial publish.
        store._publish_metadata(
            ticket, nonce=999, sizes=[BS], placements=[("provider-000",)]
        )
        report = store.scrub()
        assert report.skipped_in_flight > 0
        assert report.filler_republished == 0
        store.close()


class TestTombstoneHealing:
    def stale_node_scenario(self, **store_kwargs):
        """A replica receives a real-patch node of a doomed write, dies
        before the abort, and recovers serving it — the exact stale-node
        gap the ROADMAP left open (metadata_replication >= 2)."""
        store = make_store(
            metadata_providers=8, metadata_replication=2, data_providers=4,
            **store_kwargs,
        )
        blob = store.create()
        store.append(blob, b"a" * (4 * BS))  # v1

        real = store.metadata.put_patch
        state = {}

        def put_then_kill_first_owner(nodes):
            # Per-node publish so the injection keeps its old shape: the
            # first v2 node lands on every replica, then its primary
            # owner dies, then the rest of the patch fails.
            for node in nodes:
                if node.key.version != 2:
                    real([node])
                    continue
                if "victim" not in state:
                    real([node])  # lands on every replica
                    state["victim"] = store.metadata.store.owners(node.key)[0]
                    state["key"] = node.key
                    store.metadata.store.fail_bucket(state["victim"])
                    continue
                raise ProviderUnavailable("metadata outage")

        store.metadata.put_patch = put_then_kill_first_owner
        with pytest.raises(ProviderUnavailable):
            store.append(blob, b"x" * (2 * BS))  # v2 dies mid-publish
        store.metadata.put_patch = real
        return store, blob, state["victim"], state["key"]

    def test_recovered_replica_serves_stale_node_until_scrubbed(self):
        # Cache disabled: this test demonstrates the raw DHT-layer
        # stale-node hazard, which a warm client cache (correct filler
        # cached by the pre-recovery read) would mask.
        store, blob, victim, key = self.stale_node_scenario(metadata_cache_nodes=0)
        assert store.snapshot(blob, 2).tombstone

        # While the victim is down, reads resolve through the filler on
        # the surviving replica: correct already.
        expected = b"a" * (4 * BS) + bytes(2 * BS)
        assert store.read(blob, version=2) == expected

        # The victim recovers: ring order consults it first, and it
        # still holds the dead write's real leaf — whose block was
        # rolled back.  Stale-node reads are now possible.
        store.metadata.store.recover_bucket(victim)
        assert store.metadata.replica_nodes(key)[victim] != store.metadata.get_node(key) or (
            store.metadata.divergent_keys() != []
        )
        with pytest.raises(ProviderUnavailable):
            store.read(blob, version=2)

        # One scrub pass — no republish_tombstone — and the store
        # converges: digests equal on every co-owned key set, reads
        # can never hit the stale node again.
        report = store.scrub()
        assert report.filler_republished > 0
        assert store.metadata.divergent_keys() == []
        buckets = store.metadata.store.buckets
        for other in buckets:
            if other == victim:
                continue
            shared = co_owned_keys(store, victim, other)
            assert buckets[victim].digest(shared) == buckets[other].digest(shared)
        assert store.read(blob, version=2) == expected
        assert store.scrub().clean  # idempotent: nothing left to heal
        store.close()

    def test_scrub_heal_invalidates_cached_stale_nodes(self):
        """Cache-invalidation path #3 (DESIGN.md §9): a descent that
        cached a recovered replica's stale real-patch node must refetch
        after the scrub heals it — without the invalidation, the client
        would keep resolving the tombstoned version through the dead
        write's leaf forever."""
        store, blob, victim, key = self.stale_node_scenario()  # cache ON
        assert store.metadata.cache is not None
        store.metadata.store.recover_bucket(victim)

        # Ring order consults the recovered replica first: the descent
        # fetches (and caches) the dead write's real leaf, whose block
        # was rolled back — the read fails, stale node now cached.
        with pytest.raises(ProviderUnavailable):
            store.read(blob, version=2)

        report = store.scrub()
        assert report.filler_republished > 0
        # The heal invalidated the cached stale node: the next descent
        # refetches and resolves through the filler, with zero stale
        # reads ever served.
        assert store.read(blob, version=2) == b"a" * (4 * BS) + bytes(2 * BS)
        assert store.metadata.cache.invalidations > 0
        store.close()

    def test_scrub_respects_gc_floor(self):
        """A bucket that slept through a GC sweep holds swept nodes;
        the scrub must neither resurrect them onto healthy replicas nor
        resurrect readability below the floor."""
        store = make_store(metadata_providers=4, metadata_replication=2)
        blob = store.create()
        store.append(blob, b"a" * (2 * BS))
        store.write(blob, 0, b"b" * (2 * BS))
        victim = sorted(store.metadata.store.buckets)[0]
        store.metadata.store.fail_bucket(victim)
        collect_garbage(store, blob, retain_from=2)  # sweeps v1 where it can
        store.metadata.store.recover_bucket(victim)

        report = store.scrub()
        assert report.skipped_gc_floor >= 0  # below-floor keys not healed
        assert report.filler_republished == 0
        with pytest.raises(VersionNotFound):
            store.read(blob, version=1)
        assert store.read(blob, version=2) == b"b" * (2 * BS)
        store.close()


class TestBlockRepairFoldIn:
    def test_under_replicated_blocks_healed_in_same_pass(self):
        store = make_store(data_providers=5, replication=2, metadata_replication=2)
        blob = store.create()
        store.append(blob, b"a" * (4 * BS))
        store.append(blob, b"b" * (2 * BS))
        store.fail_provider("provider-000")

        report = store.scrub()
        assert report.blocks_repaired > 0
        assert report.copies_created >= report.blocks_repaired
        assert report.errors == ()
        # Every retained version reads even with the provider still dead.
        assert store.read(blob, version=1) == b"a" * (4 * BS)
        assert store.read(blob, version=2) == b"a" * (4 * BS) + b"b" * (2 * BS)
        # And every block is back at target on *live* providers.
        assert store.scrub().clean
        store.close()

    def test_lost_block_is_reported_not_raised(self):
        store = make_store(data_providers=2, replication=1)
        blob = store.create()
        store.append(blob, b"a" * BS)
        # Drop the only replica: unrecoverable without a re-write.
        victim = next(
            name for name, p in store.providers.items() if p.block_count
        )
        store.fail_provider(victim)
        report = store.scrub()
        assert report.errors  # recorded ...
        assert report.blocks_repaired == 0  # ... but the pass completed
        store.close()

    def test_shared_subtrees_checked_once_across_versions(self):
        store = make_store(data_providers=4, replication=1)
        blob = store.create()
        store.append(blob, b"a" * (8 * BS))
        for _ in range(4):
            store.write(blob, 0, b"b" * BS)  # v2..v5 share 7 of 8 leaves
        report = store.scrub()
        # 8 distinct blocks + 4 rewrites — not 5 versions x 8 leaves.
        assert report.blocks_checked == 12
        store.close()


class TestThrottle:
    def test_throttle_paces_ticks(self):
        throttle = Throttle(ops_per_sec=200)
        start = time.monotonic()
        for _ in range(21):
            throttle.tick()
        elapsed = time.monotonic() - start
        assert elapsed >= 0.1  # 21 ticks at 200/s spans >= 100 ms

    def test_throttle_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            Throttle(0)

    def test_zero_rate_is_rejected_not_silently_unpaced(self):
        # A falsy-but-present rate must hit Throttle's validation, not
        # accidentally run the pass at full speed.
        store = make_store()
        with pytest.raises(ValueError):
            store.scrub(ops_per_sec=0)
        with pytest.raises(ValueError):
            store.start_maintenance(ops_per_sec=0)
        store.close()

    def test_throttled_scrub_still_heals(self):
        store = make_store(metadata_replication=2)
        blob = store.create()
        store.append(blob, b"a" * (2 * BS))
        victim = next(iter(store.metadata.store.buckets))
        store.metadata.store.buckets[victim]._items.clear()
        report = store.scrub(ops_per_sec=10_000)
        assert report.replicas_healed > 0
        assert store.metadata.divergent_keys() == []
        store.close()


class TestMaintenanceDaemon:
    def wait_for(self, predicate, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.01)
        return False

    @pytest.mark.parametrize("io_workers", IO_MODES)
    def test_chaos_bucket_dies_mid_write_daemon_heals_after_recovery(self, io_workers):
        """The acceptance scenario, end to end, with a REAL bucket
        failure (no monkeypatching) and the background daemon doing the
        healing — no manual republish_tombstone anywhere."""
        store, blob, victim = make_chaos_store(io_workers)
        store.append(blob, b"a" * (4 * BS))  # v1
        store.metadata.store.fail_bucket(victim)
        with pytest.raises((ReplicationError, ProviderUnavailable)):
            store.append(blob, b"x" * (2 * BS))  # v2 aborts mid-publish
        assert store.snapshot(blob, 2).tombstone

        daemon = store.start_maintenance(interval=0.02)
        assert daemon.running
        # While the bucket is down the tombstone stays partially
        # unreadable — the daemon must keep cycling, not crash.
        assert self.wait_for(lambda: daemon.passes >= 2)
        with pytest.raises((VersionNotFound, ProviderUnavailable)):
            store.read(blob, version=2)

        store.metadata.store.recover_bucket(victim)
        expected = b"a" * (4 * BS) + bytes(2 * BS)

        def healed():
            try:
                return store.read(blob, version=2) == expected
            except (VersionNotFound, ProviderUnavailable):
                return False  # daemon has not completed a pass yet

        assert self.wait_for(healed)
        assert store.metadata.divergent_keys() == []
        assert store.read(blob, version=2) == expected
        # A later write keeps working and the next pass stays clean.
        assert store.append(blob, b"y" * (2 * BS)) == 3
        assert self.wait_for(
            lambda: daemon.last_report is not None and daemon.last_report.clean
        )
        store.stop_maintenance()
        assert not daemon.running
        store.close()

    def test_close_stops_daemon(self):
        store = make_store()
        daemon = store.start_maintenance(interval=0.01)
        assert daemon.running
        store.close()
        assert not daemon.running

    def test_start_maintenance_is_idempotent(self):
        store = make_store()
        daemon = store.start_maintenance(interval=0.01)
        assert store.start_maintenance(interval=0.01) is daemon
        store.close()

    def test_start_maintenance_restarts_on_changed_settings(self):
        store = make_store()
        first = store.start_maintenance(interval=60.0)
        second = store.start_maintenance(interval=0.01, ops_per_sec=10_000)
        assert second is not first
        assert not first.running
        assert second.running
        assert second.interval == 0.01
        store.close()

    def test_stop_interrupts_throttled_pass_promptly(self):
        # At 20 ops/s a store with dozens of nodes would take seconds
        # per pass; stop() must cut through the throttle sleeps instead
        # of waiting the pass out.
        store = make_store(metadata_replication=2)
        blob = store.create()
        for i in range(6):
            store.append(blob, bytes([65 + i]) * (2 * BS))
        daemon = store.start_maintenance(interval=0.01, ops_per_sec=20)
        assert self.wait_for(lambda: daemon.running)
        time.sleep(0.1)  # let the pass get into its throttled loops
        start = time.monotonic()
        daemon.stop()
        assert time.monotonic() - start < 2.0
        assert not daemon.running
        store.close()

    def test_daemon_records_pass_failures_and_keeps_running(self):
        store = make_store()
        daemon = MaintenanceDaemon(store, interval=0.01)
        original = store.version_manager.blob_ids

        def exploding_blob_ids():
            raise RuntimeError("boom")

        store.version_manager.blob_ids = exploding_blob_ids
        assert daemon.run_once() is None
        assert isinstance(daemon.last_error, RuntimeError)
        store.version_manager.blob_ids = original
        assert daemon.run_once() is not None
        assert daemon.last_error is None
        store.close()


class TestPropertyScrubbedStoreReadsBack:
    # Example count comes from the hypothesis profile: the tier-1 job
    # runs the default, the CI chaos job runs the larger `chaos` one.
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 4)), min_size=1, max_size=8
        ),
        damage=st.data(),
    )
    def test_every_version_reads_byte_identical_after_scrub(self, ops, damage):
        """Random writes, then random replica damage (lagging metadata
        buckets, a dead data provider), then ONE scrub pass: every
        retained version must read back byte-identical to the model and
        the replicas must be digest-converged."""
        store = LocalBlobStore(config=StoreConfig(
            data_providers=4,
            metadata_providers=6,
            block_size=BS,
            replication=2,
            metadata_replication=2,
        ))
        blob = store.create()
        content = b""
        expected = {}
        for seq, (kind, nblocks) in enumerate(ops):
            data = bytes([65 + seq % 26]) * (nblocks * BS)
            if kind == 0 or not content:
                version = store.append(blob, data)
                content += data
            else:
                max_block = len(content) // BS
                offset = (seq * 7 % (max_block + 1)) * BS
                version = store.write(blob, offset, data)
                grown = max(len(content), offset + len(data))
                buf = bytearray(content.ljust(grown, b"\0"))
                buf[offset : offset + len(data)] = data
                content = bytes(buf)
            expected[version] = content

        # Damage 1: some replicas "lose" a random subset of their keys.
        keys = sorted(store.metadata.all_node_keys(), key=repr)
        for key in keys:
            if damage.draw(st.booleans()):
                owners = store.metadata.store.owners(key)
                bucket = store.metadata.store.buckets[
                    damage.draw(st.sampled_from(owners))
                ]
                bucket._items.pop(key, None)
        # Damage 2: one data provider dies (replication=2 keeps a copy).
        store.fail_provider("provider-001")

        store.scrub()
        assert store.metadata.divergent_keys() == []
        for version, want in expected.items():
            assert store.read(blob, version=version) == want
        store.close()
