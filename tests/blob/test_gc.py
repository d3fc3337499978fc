"""Tests for version garbage collection (mark and sweep)."""

import pytest

from repro.blob import LocalBlobStore, StoreConfig, collect_garbage
from repro.errors import BlobError, VersionNotFound

from tests.blob.vman_calls import assign

BS = 16


@pytest.fixture
def store():
    return LocalBlobStore(config=StoreConfig(data_providers=4, metadata_providers=2, block_size=BS))


def total_blocks(store):
    return sum(p.block_count for p in store.providers.values())


class TestCollect:
    def test_collects_unreachable_blocks(self, store):
        blob = store.create()
        store.write(blob, 0, b"a" * (4 * BS))  # v1: 4 blocks
        store.write(blob, 0, b"b" * (4 * BS))  # v2: rewrites all 4
        assert total_blocks(store) == 8
        report = collect_garbage(store, blob, retain_from=2)
        assert report.blocks_deleted == 4
        assert report.bytes_freed == 4 * BS
        assert total_blocks(store) == 4
        assert store.read(blob, version=2) == b"b" * (4 * BS)

    def test_shared_blocks_survive(self, store):
        blob = store.create()
        store.write(blob, 0, b"a" * (4 * BS))  # v1
        store.write(blob, 0, b"b" * BS)  # v2 rewrites only block 0
        report = collect_garbage(store, blob, retain_from=2)
        # v1's block 0 is dead; blocks 1-3 are shared into v2 and live.
        assert report.blocks_deleted == 1
        assert store.read(blob, version=2) == b"b" * BS + b"a" * (3 * BS)

    def test_old_version_unreadable_after_gc(self, store):
        blob = store.create()
        store.write(blob, 0, b"a" * BS)
        store.write(blob, 0, b"b" * BS)
        collect_garbage(store, blob, retain_from=2)
        with pytest.raises(VersionNotFound):
            store.read(blob, version=1)

    def test_retained_range_fully_readable(self, store):
        blob = store.create()
        contents = {}
        for v in range(1, 6):
            store.append(blob, bytes([v]) * BS)
            contents[v] = store.read(blob, version=v)
        collect_garbage(store, blob, retain_from=3)
        for v in (3, 4, 5):
            assert store.read(blob, version=v) == contents[v]
        for v in (1, 2):
            with pytest.raises(VersionNotFound):
                store.read(blob, version=v)

    def test_append_only_blob_frees_no_blocks(self, store):
        """Appends never orphan data blocks — only stale tree roots."""
        blob = store.create()
        for v in range(1, 5):
            store.append(blob, bytes([v]) * BS)
        report = collect_garbage(store, blob, retain_from=4)
        assert report.blocks_deleted == 0
        assert report.nodes_deleted > 0  # old roots/inner nodes die

    def test_metadata_nodes_swept(self, store):
        blob = store.create()
        store.write(blob, 0, b"a" * (2 * BS))
        store.write(blob, 0, b"b" * (2 * BS))
        before = sum(store.metadata.load_by_provider().values())
        report = collect_garbage(store, blob, retain_from=2)
        after = sum(store.metadata.load_by_provider().values())
        assert report.nodes_deleted > 0
        assert after < before

    def test_multi_blob_isolation(self, store):
        a, b = store.create(), store.create()
        store.write(a, 0, b"a" * BS)
        store.write(a, 0, b"A" * BS)
        store.write(b, 0, b"b" * BS)
        collect_garbage(store, a, retain_from=2)
        assert store.read(b) == b"b" * BS  # untouched
        assert store.read(a) == b"A" * BS


class TestGuards:
    def test_gc_with_inflight_write_rejected(self, store):
        blob = store.create()
        store.write(blob, 0, b"a" * BS)
        assign(store.version_manager, blob, BS)  # in flight
        with pytest.raises(BlobError, match="in flight"):
            collect_garbage(store, blob, retain_from=1)

    def test_retain_beyond_watermark_rejected(self, store):
        blob = store.create()
        store.write(blob, 0, b"a" * BS)
        with pytest.raises(BlobError):
            collect_garbage(store, blob, retain_from=2)

    def test_retain_zero_rejected(self, store):
        blob = store.create()
        store.write(blob, 0, b"a" * BS)
        with pytest.raises(ValueError):
            collect_garbage(store, blob, retain_from=0)

    def test_gc_idempotent(self, store):
        blob = store.create()
        store.write(blob, 0, b"a" * BS)
        store.write(blob, 0, b"b" * BS)
        collect_garbage(store, blob, retain_from=2)
        report = collect_garbage(store, blob, retain_from=2)
        assert report.blocks_deleted == 0 and report.nodes_deleted == 0

    def test_writes_continue_after_gc(self, store):
        """Future writes must weave correctly over GC'd history."""
        blob = store.create()
        store.write(blob, 0, b"a" * (4 * BS))
        store.write(blob, 0, b"b" * BS)
        collect_garbage(store, blob, retain_from=2)
        store.write(blob, 2 * BS, b"c" * BS)
        assert store.read(blob) == b"b" * BS + b"a" * BS + b"c" * BS + b"a" * BS

    def test_writes_and_appends_weave_over_deep_collected_history(self, store):
        """Regression for the ``history_upto`` GC-floor gap: after a
        pass collects most of a long history, new writers' hints still
        resolve — shared subtrees of retained snapshots keep every
        referenced node alive — and reads stay byte-for-byte."""
        blob = store.create()
        expect = bytearray()
        for v in range(1, 7):  # six appends, then two interior rewrites
            store.append(blob, bytes([v]) * BS)
            expect += bytes([v]) * BS
        store.write(blob, BS, b"X" * BS)
        expect[BS : 2 * BS] = b"X" * BS
        collect_garbage(store, blob, retain_from=7)
        store.write(blob, 3 * BS, b"Y" * BS)
        expect[3 * BS : 4 * BS] = b"Y" * BS
        store.append(blob, b"Z" * BS)
        expect += b"Z" * BS
        assert store.read(blob) == bytes(expect)
        # The hint endpoint itself enforces the floor (weaving against
        # a collected version would reference swept nodes).
        with pytest.raises(VersionNotFound):
            store.version_manager.history_upto(blob, 6)


class TestOfflineMetadataBuckets:
    def test_gc_skips_offline_metadata_bucket(self):
        """An offline bucket must not abort the pass after a partial
        deletion — its garbage keeps until a pass after recovery, like
        the data-provider sweep."""
        store = LocalBlobStore(config=StoreConfig(
            data_providers=4,
            metadata_providers=4,
            block_size=BS,
            metadata_replication=2,
        ))
        blob = store.create()
        store.write(blob, 0, b"a" * (4 * BS))
        store.write(blob, 0, b"b" * (4 * BS))  # v1 becomes garbage
        store.metadata.store.fail_bucket("mdp-001")

        report = collect_garbage(store, blob, retain_from=2)  # must not raise
        assert report.nodes_deleted > 0
        assert store.read(blob, version=2) == b"b" * (4 * BS)

        # The recovered bucket's stale copies go on the next pass.
        store.metadata.store.recover_bucket("mdp-001")
        collect_garbage(store, blob, retain_from=2)
        assert not [
            key
            for key in store.metadata.store.buckets["mdp-001"].keys()
            if getattr(key, "version", None) == 1
        ]
        assert store.read(blob, version=2) == b"b" * (4 * BS)

    def test_sweep_is_one_delete_request_per_online_bucket(self):
        """The metadata sweep deletes a bucket's whole share of the
        garbage in one request (one service delay), and never asks an
        offline bucket."""
        store = LocalBlobStore(config=StoreConfig(
            data_providers=4,
            metadata_providers=4,
            block_size=BS,
            metadata_replication=2,
        ))
        blob = store.create()
        # 512 blocks: eight runs and seven inner nodes per version, so
        # v1's garbage spreads over every bucket.
        store.write(blob, 0, b"a" * (512 * BS))
        store.write(blob, 0, b"b" * (512 * BS))  # v1 becomes garbage
        store.metadata.store.fail_bucket("mdp-001")
        buckets = store.metadata.store.buckets
        holders = {
            name
            for name, bucket in buckets.items()
            if bucket.online and any(key.version == 1 for key in bucket.keys())
        }
        assert len(holders) == 3  # every online bucket holds garbage
        calls = {name: 0 for name in buckets}
        for name, bucket in buckets.items():

            def counted(keys, name=name, real=bucket._delete_vector):
                calls[name] += 1
                return real(keys)

            bucket._delete_vector = counted
        report = collect_garbage(store, blob, retain_from=2)
        assert calls == {name: int(name in holders) for name in buckets}
        assert report.nodes_deleted > 0
        assert store.read(blob, version=2) == b"b" * (512 * BS)

    def test_gc_survives_metadata_bucket_dying_mid_sweep(self):
        store = LocalBlobStore(config=StoreConfig(
            data_providers=4,
            metadata_providers=2,
            block_size=BS,
            metadata_replication=2,
        ))
        blob = store.create()
        store.write(blob, 0, b"a" * (4 * BS))
        store.write(blob, 0, b"b" * (4 * BS))

        victim = store.metadata.store.buckets["mdp-000"]
        original_delete_vector = victim._delete_vector

        def die_on_delete(keys):
            victim.online = False  # goes down just as the sweep reaches it
            return original_delete_vector(keys)

        victim._delete_vector = die_on_delete
        report = collect_garbage(store, blob, retain_from=2)  # completes
        victim._delete_vector = original_delete_vector
        victim.online = True
        assert report.nodes_deleted > 0
        assert store.read(blob, version=2) == b"b" * (4 * BS)


class TestConcurrentWriters:
    """A pass needs no quiescence: a write that scatters, publishes or
    commits while it runs keeps every node and block (DESIGN.md §5)."""

    KB = 1024

    @pytest.fixture
    def two_versions(self):
        store = LocalBlobStore(config=StoreConfig(data_providers=4, block_size=self.KB))
        blob = store.create()
        store.append(blob, b"a" * (2 * self.KB))  # v1
        store.append(blob, b"b" * (2 * self.KB))  # v2
        yield store, blob
        store.close()

    def test_pass_between_scatter_and_assignment_spares_the_blocks(self, two_versions):
        store, blob = two_versions
        real_assign = store.publish_pipeline.assign
        reports = []

        def collect_then_assign(request):
            # The writer's blocks are on their providers; no version yet.
            reports.append(collect_garbage(store, blob, retain_from=2))
            return real_assign(request)

        store.publish_pipeline.assign = collect_then_assign
        assert store.append(blob, b"c" * (2 * self.KB)) == 3
        assert reports[0].blocks_deleted == 0
        expected = b"a" * (2 * self.KB) + b"b" * (2 * self.KB) + b"c" * (2 * self.KB)
        assert store.read(blob, version=3) == expected

    def test_append_landing_during_the_mark_phase_survives(self, two_versions, monkeypatch):
        import repro.blob.gc as gc_module

        store, blob = two_versions
        real_walk = gc_module.walk_reachable
        landed = []

        def append_then_walk(*args, **kwargs):
            if not landed:
                landed.append(store.append(blob, b"c" * (2 * self.KB)))  # v3
            return real_walk(*args, **kwargs)

        monkeypatch.setattr(gc_module, "walk_reachable", append_then_walk)
        report = collect_garbage(store, blob, retain_from=2)
        assert landed == [3]
        assert report.nodes_deleted == 0 and report.blocks_deleted == 0
        expected = b"a" * (2 * self.KB) + b"b" * (2 * self.KB) + b"c" * (2 * self.KB)
        assert store.read(blob, version=3) == expected
        # The next pass, with v3 published before it starts, marks it.
        monkeypatch.setattr(gc_module, "walk_reachable", real_walk)
        collect_garbage(store, blob, retain_from=3)
        assert store.read(blob, version=3) == expected
