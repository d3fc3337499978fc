"""Anti-entropy scrub (DESIGN.md §8): replicas converge on their own.

The scrub is the store's only repair.  After a metadata bucket outage
spanning a write abort, a recovered replica serves stale real-patch
nodes of the dead write until a pass heals them.  These tests drive
the whole acceptance scenario (bucket dies mid-write, abort, recovery,
one scrub pass restores digest-verified convergence), block
re-replication (paper §VI-B) and its allocator accounting, the
GC-floor and in-flight guards, and the paced pass.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.blob import (
    LocalBlobStore,
    NodeKey,
    ScrubReport,
    StoreConfig,
    collect_garbage,
)
from repro.blob import store as store_module
from repro.blob.scrub import live_replicas
from repro.dht.store import MISSING
from repro.errors import (
    BlobError,
    ProviderUnavailable,
    ReplicationError,
    VersionNotFound,
)
from tests.blob.test_write_rollback import IO_MODES, engine_kwargs, make_chaos_store
from tests.blob.vman_calls import assign

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
        store.append(blob, b"a" * (4 * BS))  # one run node
        # Damage: one replica of every key loses its copy (a bucket that
        # was down during the writes and came back empty-handed).
        (key,) = store.metadata.all_node_keys()
        victim = store.metadata.store.owners(key)[0]
        store.metadata.store.buckets[victim]._items.clear()
        first = store.scrub()
        assert first.replicas_healed > 0
        second = store.scrub()
        assert second.clean
        store.close()


class TestControlPlaneSnapshot:
    """The pass reads every retained version's snapshot in its one
    version-manager seam call, not one round trip per version."""

    def _aged_store(self, vman_latency):
        store = make_store(replication=2, vman_latency=vman_latency)
        blob = store.create()
        for k in range(50):
            store.append(blob, bytes([k]) * BS)
        store.write(blob, 0, b"w" * BS)  # a blob with history to walk
        return store

    def test_a_pass_pays_no_snapshot_round_trip_per_version(self):
        store = self._aged_store(vman_latency=0.0001)
        store.vman_stats.reset()
        report = store.scrub()
        stats = store.vman_stats.snapshot()
        assert stats["vman_info_rounds"] == 0
        assert stats["vman_round_trips"] == 0
        assert report.clean and report.blocks_checked == 51
        store.close()

    def test_the_report_is_the_one_a_latency_free_store_gives(self):
        slow, fast = self._aged_store(0.0001), self._aged_store(0.0)
        for store in (slow, fast):
            store.providers["provider-000"].fail()  # repairs to make
        assert slow.scrub() == fast.scrub()
        slow.close()
        fast.close()


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
            for key, values in store.metadata.replica_nodes_many(
                list(store.metadata.all_node_keys())
            ).items()
            if values.get(victim) is MISSING
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
        # The append publishes one run node; its first owner lags.
        victim = store.metadata.store.owners(NodeKey(blob, 1, 0, 4))[0]
        store.metadata.store.fail_bucket(victim)
        store.append(blob, b"a" * (4 * BS))  # victim lags behind
        store.metadata.store.recover_bucket(victim)

        bucket = store.metadata.store.buckets[victim]
        real_put_vector = bucket._put_vector

        def die_on_first_heal(items, conditional=False):
            bucket.online = False  # fails between enumeration and heal
            return real_put_vector(items, conditional=conditional)

        bucket._put_vector = die_on_first_heal
        report = store.scrub()
        bucket._put_vector = real_put_vector
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
        ticket = assign(store.version_manager, blob, BS)  # v2 in flight
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
    def stale_node_scenario(self):
        """A replica receives a real-patch node of a doomed write, dies
        before the abort, and recovers serving it — the exact stale-node
        gap the ROADMAP left open (metadata_replication >= 2)."""
        store = make_store(
            metadata_providers=8, metadata_replication=2, data_providers=4,
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
        store, blob, victim, key = self.stale_node_scenario()
        assert store.snapshot(blob, 2).tombstone

        # While the victim is down, reads resolve through the filler on
        # the surviving replica: correct already.
        expected = b"a" * (4 * BS) + bytes(2 * BS)
        assert store.read(blob, version=2) == expected

        # The victim recovers: ring order consults it first, and it
        # still holds the dead write's real leaf — whose block was
        # rolled back.  Stale-node reads are now possible.  The cache
        # is cleared: this test demonstrates the raw DHT-layer hazard,
        # which the correct filler the pre-recovery read cached would
        # mask.
        store.metadata.store.recover_bucket(victim)
        store.metadata.cache.clear()
        assert store.metadata.replica_nodes_many([key])[key][victim] != store.metadata.get_node(key) or (
            store.metadata.divergent_keys() != []
        )
        with pytest.raises(ProviderUnavailable):
            store.read(blob, version=2)

        # One scrub pass and the store
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
        store, blob, victim, key = self.stale_node_scenario()
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
    """Block re-replication (paper §VI-B) through the scrub, the only
    repair entry point."""

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
        assert any("no live replica" in err for err in report.errors)  # recorded ...
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

    def test_empty_blob_checks_nothing(self):
        store = make_store(data_providers=6, replication=2)
        store.create()
        report = store.scrub()
        assert report.blocks_checked == 0
        assert report.clean
        store.close()

    def test_failed_provider_blocks_are_repaired(self):
        store = make_store(data_providers=6, replication=2)
        blob = store.create()
        store.write(blob, 0, b"a" * (4 * BS))
        locations = store.block_locations(blob, 0, 4 * BS)
        victim = locations[0].providers[0]
        homed = sum(victim in loc.providers for loc in locations)
        store.fail_provider(victim)
        report = store.scrub()
        assert report.blocks_checked == 4
        assert report.blocks_repaired == homed
        assert report.copies_created == homed
        assert store.scrub().blocks_repaired == 0  # idempotent
        assert store.read(blob) == b"a" * (4 * BS)
        store.close()

    def test_repaired_leaf_has_new_replica_set(self):
        store = make_store(data_providers=6, replication=2)
        blob = store.create()
        store.write(blob, 0, b"a" * BS)
        victim = store.block_locations(blob, 0, BS)[0].providers[0]
        store.fail_provider(victim)
        store.scrub()
        providers = store.block_locations(blob, 0, BS)[0].providers
        assert victim not in providers
        assert len(providers) == 2
        store.close()

    def test_too_few_providers_is_recorded(self):
        store = make_store(data_providers=2, replication=2)
        blob = store.create()
        store.write(blob, 0, b"a" * BS)
        store.fail_provider(store.block_locations(blob, 0, BS)[0].providers[0])
        report = store.scrub()
        assert any("not enough live providers" in err for err in report.errors)
        assert store.provider_manager.block_counts() == store.provider_block_counts()
        store.close()

    def test_an_unreadable_subtree_stops_only_itself(self):
        """v1..v3 reach v1's run over blocks 192..255, whose bucket is
        down; v4 rewrote those blocks and reaches none of it.  Every
        version reaches v2's inner node over blocks 0..127, so it is
        walked whole, and v4's under-replicated block 5 below it is
        repaired; the unreadable run is reported once."""
        bs = 64
        store = make_store(
            data_providers=6,
            metadata_providers=24,
            metadata_replication=1,
            replication=2,
            block_size=bs,
        )
        blob = store.create()
        store.append(blob, b"a" * (256 * bs))  # v1
        store.write(blob, 0, b"b" * bs)  # v2
        store.write(blob, 128 * bs, b"c" * bs)  # v3
        store.write(blob, 192 * bs, b"d" * (64 * bs))  # v4
        store.metadata.cache.clear()
        run = NodeKey(blob, 1, 192, 64)
        assert store.metadata.store.owners(run) == ("mdp-023",)
        (block5,) = store._collect_descriptors(store.snapshot(blob, 4), 5 * bs, bs)
        assert "provider-005" in block5.providers
        store.metadata.store.fail_bucket("mdp-023")
        store.fail_provider("provider-005")

        report = store.scrub()
        unreadable = [err for err in report.errors if "unreadable" in err]
        assert len(unreadable) == 1 and repr(run) in unreadable[0]
        (block5,) = store._collect_descriptors(store.snapshot(blob, 4), 5 * bs, bs)
        assert len(live_replicas(store, block5)) == 2
        assert_charges_match(store)
        store.close()

    def test_old_versions_repaired_too(self):
        store = make_store(data_providers=6, replication=2)
        blob = store.create()
        store.write(blob, 0, b"a" * BS)  # v1
        store.write(blob, 0, b"b" * BS)  # v2
        victim = store.block_locations(blob, 0, BS, version=1)[0].providers[0]
        store.fail_provider(victim)
        report = store.scrub()
        assert report.blocks_repaired >= 1
        assert store.read(blob, version=1) == b"a" * BS
        assert store.read(blob, version=2) == b"b" * BS
        store.close()


def one_block_store(io_workers):
    """4 providers, 2 buckets, data replication 2, metadata replication
    1, one appended block whose leaf a read has cached.  Returns the
    store, the blob, the block's first provider and the leaf's bucket."""
    store = make_store(
        data_providers=4,
        metadata_providers=2,
        replication=2,
        metadata_replication=1,
        **engine_kwargs(io_workers),
    )
    blob = store.create()
    store.append(blob, b"a" * BS)
    assert store.read(blob) == b"a" * BS  # caches the leaf
    (key,) = store.metadata.all_node_keys()
    (bucket,) = store.metadata.store.owners(key)
    first = store.block_locations(blob, 0, BS)[0].providers[0]
    return store, blob, first, bucket


def assert_charges_match(store):
    assert store.provider_manager.block_counts() == store.provider_block_counts()


@pytest.mark.parametrize("io_workers", IO_MODES)
class TestRepairAccounting:
    """A repair is all or nothing, and every copy it leaves is charged
    to the allocator exactly once (no orphan blocks or charges)."""

    def test_copy_is_charged(self, io_workers):
        store, blob, first, _ = one_block_store(io_workers)
        store.fail_provider(first)
        report = store.scrub()
        assert report.copies_created == 1
        assert store.provider_block_counts()["provider-002"] == 1
        assert_charges_match(store)
        # GC of the block releases every copy's charge, the repair's too.
        store.write(blob, 0, b"b" * BS)
        gc = collect_garbage(store, blob, retain_from=2)
        assert gc.blocks_deleted == 2  # provider-001's and the copy
        assert_charges_match(store)
        store.close()

    def test_failed_leaf_republish_removes_its_copy(self, io_workers):
        store, blob, first, bucket = one_block_store(io_workers)
        store.fail_provider(first)
        store.metadata.store.fail_bucket(bucket)
        report = store.scrub()
        assert report.errors  # the leaf could not be republished
        assert report.copies_created == 0
        assert store.provider_block_counts()["provider-002"] == 0  # copy removed
        assert_charges_match(store)

        # The next pass after recovery heals instead of raising
        # WriteConflict on the copy the failed pass made.
        store.metadata.store.recover_bucket(bucket)
        report = store.scrub()
        assert report.copies_created == 1
        assert report.errors == ()
        assert_charges_match(store)
        assert store.read(blob) == b"a" * BS
        assert store.scrub().clean
        store.close()

    def test_stranded_copy_is_adopted_not_copied_again(self, io_workers):
        """A failed repair whose copy cannot be removed (its provider
        died first) leaves the copy charged; the next repair adopts it."""
        store, blob, first, bucket = one_block_store(io_workers)
        store.fail_provider(first)
        store.metadata.store.fail_bucket(bucket)
        target = store.providers["provider-002"]
        real_delete = target._delete_vector

        def die_then_delete(block_ids):
            store.fail_provider(target.name)
            return real_delete(block_ids)

        target._delete_vector = die_then_delete
        assert store.scrub().errors
        target._delete_vector = real_delete
        assert store.provider_block_counts()["provider-002"] == 1  # stranded
        assert_charges_match(store)

        store.recover_provider(target.name)
        store.metadata.store.recover_bucket(bucket)
        report = store.scrub()
        assert report.errors == ()
        assert report.copies_created == 1
        assert store.block_locations(blob, 0, BS)[0].providers == (
            "provider-001",
            "provider-002",
        )
        assert store.provider_block_counts()["provider-002"] == 1  # not re-copied
        assert_charges_match(store)
        assert store.scrub().clean
        store.close()


def damaged_store(io_workers):
    """8 providers at 5 ms, data replication 4, three four-block
    appends, then provider-000 and provider-001 die: a block on both
    needs two fresh copies, and every version still reads with one more
    provider down.  Returns the store, the blob and every version's
    bytes."""
    store = make_store(
        data_providers=8,
        replication=4,
        metadata_replication=2,
        provider_latency=0.005,
        **engine_kwargs(io_workers),
    )
    blob = store.create()
    for i in range(3):
        store.append(blob, bytes([65 + i]) * (4 * BS))
    contents = {v: store.read(blob, version=v) for v in (1, 2, 3)}
    store.fail_provider("provider-000")
    store.fail_provider("provider-001")
    return store, blob, contents


def assert_every_copy_named(store, blob):
    """No live provider holds a block its entry does not name: a failed
    repair left none of its copies behind."""
    named = {}
    for version in range(1, store.latest_version(blob) + 1):
        info = store.snapshot(blob, version)
        for descriptor in store._collect_descriptors(info, 0, info.size):
            named.setdefault(descriptor.block_id, set()).update(descriptor.providers)
    for provider in store.providers.values():
        if provider.online:
            for block_id in provider.block_ids():
                assert provider.name in named[block_id], (provider.name, block_id)


@pytest.mark.parametrize("io_workers", IO_MODES)
class TestRepairRoundFaults:
    """The block repair's copy round and its republish fail as rounds:
    the blocks they fail lose their copies and charges, the pass goes
    on, and the next pass repairs them."""

    def test_a_copy_destination_dying_mid_round_is_recorded_not_raised(
        self, clock, io_workers
    ):
        store, blob, contents = damaged_store(io_workers)
        real = store._scatter_tasks
        dead = []

        def scatter_then_die(block_ids, payloads, placements, stored):
            # The last vector's destination dies between its issue and
            # its deadline, so the vectors before it land first.
            last = list(dict.fromkeys(name for homes in placements for name in homes))[-1]
            dead.append(store.providers[last])
            clock.at(clock.now + 0.001, dead[0].fail)
            return real(block_ids, payloads, placements, stored)

        store._scatter_tasks = scatter_then_die
        report = store.scrub()
        store._scatter_tasks = real
        assert dead and not dead[0].online
        assert any("repair copies failed" in err for err in report.errors)
        assert_charges_match(store)
        assert_every_copy_named(store, blob)
        for version, want in contents.items():
            assert store.read(blob, version=version) == want

        dead[0].recover()
        healed = store.scrub()
        assert healed.errors == () and healed.blocks_repaired > 0
        assert_charges_match(store)
        assert store.scrub().clean
        for version, want in contents.items():
            assert store.read(blob, version=version) == want
        store.close()

    def test_an_interrupt_at_the_republish_removes_every_copy(self, clock, io_workers):
        store, blob, contents = damaged_store(io_workers)
        before = {name: set(p.block_ids()) for name, p in store.providers.items()}
        real = store.metadata.put_fillers

        def interrupted(nodes):
            raise KeyboardInterrupt

        store.metadata.put_fillers = interrupted
        with pytest.raises(KeyboardInterrupt):
            store.scrub()
        store.metadata.put_fillers = real
        assert {name: set(p.block_ids()) for name, p in store.providers.items()} == before
        assert_charges_match(store)

        report = store.scrub()
        assert report.errors == () and report.blocks_repaired > 0
        assert_charges_match(store)
        for version, want in contents.items():
            assert store.read(blob, version=version) == want
        store.close()


class TestPacedScrub:
    def test_zero_rate_is_rejected_not_silently_unpaced(self):
        # A falsy-but-present rate must hit the token bucket's
        # validation, not accidentally run the pass at full speed.
        store = make_store()
        with pytest.raises(ValueError):
            store.scrub(ops_per_sec=0)
        with pytest.raises(ValueError):
            store.scrub(ops_per_sec=-5)
        store.close()

    @pytest.mark.parametrize("io_workers", IO_MODES)
    def test_paced_pass_takes_one_token_per_checked_item(self, monkeypatch, io_workers):
        # A frozen clock: the k-th checked item waits (k-1)/r, so a
        # pass over n items is paced across exactly (n-1)/r seconds,
        # whether the pass's I/O runs inline or on the engine.
        slept = []
        real_bucket = store_module.TokenBucket

        def frozen_bucket(rate, burst):
            return real_bucket(rate, burst, clock=lambda: 0.0, sleep=slept.append)

        monkeypatch.setattr(store_module, "TokenBucket", frozen_bucket)
        store = make_store(metadata_replication=2, **engine_kwargs(io_workers))
        blob = store.create()
        for i in range(3):
            store.append(blob, bytes([65 + i]) * (2 * BS))
        report = store.scrub(ops_per_sec=50)
        items = report.nodes_checked + report.blocks_checked
        assert report.clean and items > 10
        assert slept == [pytest.approx(k / 50) for k in range(1, items)]
        store.close()

    @pytest.mark.parametrize("io_workers", IO_MODES)
    def test_throttled_scrub_still_heals(self, io_workers):
        store = make_store(metadata_replication=2, **engine_kwargs(io_workers))
        blob = store.create()
        store.append(blob, b"a" * (2 * BS))
        victim = next(iter(store.metadata.store.buckets))
        store.metadata.store.buckets[victim]._items.clear()
        report = store.scrub(ops_per_sec=10_000)
        assert report.replicas_healed > 0
        assert store.metadata.divergent_keys() == []
        store.close()

    @pytest.mark.parametrize("io_workers", IO_MODES)
    def test_paced_pass_heals_what_the_unpaced_pass_heals(self, io_workers):
        """Pacing only spaces the pass out: on twin stores left in the
        same damaged state, the paced and unpaced passes report the
        same work and leave the same readable bytes."""
        reports, contents = [], []
        for ops_per_sec in (None, 20_000):
            store, blob, victim = make_chaos_store(io_workers)
            store.append(blob, b"a" * (4 * BS))
            store.metadata.store.fail_bucket(victim)
            with pytest.raises((ReplicationError, ProviderUnavailable)):
                store.append(blob, b"x" * (2 * BS))
            store.metadata.store.recover_bucket(victim)
            reports.append(store.scrub(ops_per_sec=ops_per_sec))
            contents.append(store.read(blob, version=2))
            assert store.metadata.divergent_keys() == []
            store.close()
        assert reports[0].healed_total > 0
        assert reports[1] == reports[0]
        assert contents[1] == contents[0] == b"a" * (4 * BS) + bytes(2 * BS)

    def test_failed_pass_raises_and_the_next_pass_runs(self):
        # With no daemon to swallow it, a pass that fails part-way
        # raises to its caller; the store is left usable and the next
        # pass runs normally.
        store = make_store(metadata_replication=2)
        blob = store.create()
        store.append(blob, b"a" * (2 * BS))
        original = store.version_manager.blob_ids

        def exploding_blob_ids():
            raise RuntimeError("boom")

        store.version_manager.blob_ids = exploding_blob_ids
        with pytest.raises(RuntimeError, match="boom"):
            store.scrub(ops_per_sec=10_000)
        store.version_manager.blob_ids = original
        assert store.scrub().clean
        assert store.read(blob) == b"a" * (2 * BS)
        store.close()


class TestChaosAcceptance:
    @pytest.mark.parametrize("io_workers", IO_MODES)
    def test_chaos_bucket_dies_mid_write_scrub_heals_after_recovery(self, io_workers):
        """The acceptance scenario, end to end, with a REAL bucket
        failure (no monkeypatching) and store.scrub() doing the
        healing — no other repair step anywhere."""
        store, blob, victim = make_chaos_store(io_workers)
        store.append(blob, b"a" * (4 * BS))  # v1
        store.metadata.store.fail_bucket(victim)
        with pytest.raises((ReplicationError, ProviderUnavailable)):
            store.append(blob, b"x" * (2 * BS))  # v2 aborts mid-publish
        assert store.snapshot(blob, 2).tombstone

        # While the bucket is down the tombstone stays partially
        # unreadable; passes report the outage instead of raising.
        for _ in range(2):
            assert store.scrub().offline_buckets == 1
        with pytest.raises((VersionNotFound, ProviderUnavailable)):
            store.read(blob, version=2)

        store.metadata.store.recover_bucket(victim)
        report = store.scrub()
        assert report.offline_buckets == 0
        assert report.healed_total > 0
        expected = b"a" * (4 * BS) + bytes(2 * BS)
        assert store.metadata.divergent_keys() == []
        assert store.read(blob, version=2) == expected
        # A later write keeps working and the next pass stays clean.
        assert store.append(blob, b"y" * (2 * BS)) == 3
        assert store.scrub().clean
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


#: One chaos step: an append of 1–3 blocks, a read, a provider or
#: bucket failure or recovery, or a scrub pass.
CHAOS_OPS = st.one_of(
    st.tuples(st.just("append"), st.integers(1, 3)),
    st.tuples(st.sampled_from(("read", "scrub")), st.just(0)),
    st.tuples(st.sampled_from(("fail_provider", "recover_provider")), st.integers(0, 3)),
    st.tuples(st.sampled_from(("fail_bucket", "recover_bucket")), st.integers(0, 2)),
)


class TestPropertyScrubConverges:
    # Example count comes from the hypothesis profile, like the class
    # above.
    @given(
        io_mode=st.sampled_from((0, 2)),
        metadata_replication=st.sampled_from((1, 2)),
        ops=st.lists(CHAOS_OPS, min_size=1, max_size=14),
    )
    def test_two_passes_after_recovery_converge(
        self, io_mode, metadata_replication, ops
    ):
        """Random appends, reads, provider and bucket failures and
        recoveries, and scrub passes (none may raise).  Once everything
        is back, two passes later the store is converged: the second
        pass heals nothing and records no error, every copy is charged
        to the allocator exactly once, and every published version
        reads back its bytes."""
        store = make_store(
            data_providers=4,
            metadata_providers=3,
            replication=2,
            metadata_replication=metadata_replication,
            **engine_kwargs(io_mode),
        )
        try:
            blob = store.create()
            buckets = sorted(store.metadata.store.buckets)
            content = b""
            expected = {}
            for seq, (op, arg) in enumerate(ops):
                if op == "append":
                    data = bytes([65 + seq % 26]) * (arg * BS)
                    try:
                        expected[store.append(blob, data)] = content = content + data
                    except BlobError:
                        info = store.snapshot(blob)
                        if info.version not in expected and info.version > 0:
                            assert info.tombstone  # aborted after assignment
                            content += bytes(info.size - len(content))
                            expected[info.version] = content
                elif op == "read":
                    try:
                        store.read(blob)  # warms the node cache
                    except BlobError:
                        pass  # an outage owns part of the tree
                elif op == "scrub":
                    store.scrub()
                elif op.endswith("provider"):
                    getattr(store, op)(f"provider-{arg:03d}")
                else:
                    getattr(store.metadata.store, op)(buckets[arg])

            for name in store.providers:
                store.recover_provider(name)
            for name in buckets:
                store.metadata.store.recover_bucket(name)
            store.scrub()
            second = store.scrub()
            assert second.healed_total == 0
            assert second.errors == ()
            assert store.provider_manager.block_counts() == store.provider_block_counts()
            for version, want in expected.items():
                assert store.read(blob, version=version) == want
        finally:
            store.close()
