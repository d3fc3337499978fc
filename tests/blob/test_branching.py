"""Tests for BLOB branching (§II-A: fork a dataset, evolve independently)."""

import pytest

from repro.blob import LocalBlobStore, StoreConfig, collect_garbage
from repro.errors import BlobError, VersionNotFound, VersionNotReady

from tests.blob.vman_calls import assign

BS = 16


@pytest.fixture
def store():
    return LocalBlobStore(config=StoreConfig(data_providers=5, metadata_providers=2, block_size=BS))


def setup_source(store):
    src = store.create("src")
    store.write(src, 0, b"a" * (4 * BS))  # v1
    store.write(src, 0, b"b" * BS)  # v2
    return src


class TestBranchBasics:
    def test_branch_shares_history(self, store):
        src = setup_source(store)
        fork = store.branch(src, "fork")
        assert store.latest_version(fork) == 2
        assert store.read(fork) == store.read(src)
        assert store.read(fork, version=1) == b"a" * (4 * BS)

    def test_branch_is_metadata_only(self, store):
        src = setup_source(store)
        blocks_before = sum(p.block_count for p in store.providers.values())
        store.branch(src, "fork")
        blocks_after = sum(p.block_count for p in store.providers.values())
        assert blocks_after == blocks_before  # zero copies

    def test_branch_at_older_version(self, store):
        src = setup_source(store)
        fork = store.branch(src, "old-fork", version=1)
        assert store.latest_version(fork) == 1
        assert store.read(fork) == b"a" * (4 * BS)

    def test_autonamed_branch(self, store):
        src = setup_source(store)
        fork = store.branch(src)
        assert fork != src and store.read(fork) == store.read(src)


class TestIndependentEvolution:
    def test_writes_diverge(self, store):
        src = setup_source(store)
        fork = store.branch(src, "fork")
        store.write(fork, 0, b"F" * BS)
        store.write(src, BS, b"S" * BS)
        assert store.read(fork) == b"F" * BS + b"a" * (3 * BS)
        assert store.read(src) == b"b" * BS + b"S" * BS + b"a" * (2 * BS)

    def test_appends_diverge(self, store):
        src = setup_source(store)
        fork = store.branch(src, "fork")
        store.append(fork, b"x" * BS)
        assert store.snapshot(fork).size == 5 * BS
        assert store.snapshot(src).size == 4 * BS

    def test_branch_of_branch(self, store):
        src = setup_source(store)
        fork = store.branch(src, "fork")
        store.append(fork, b"x" * BS)
        grand = store.branch(fork, "grand")
        store.write(grand, 0, b"G" * BS)
        assert store.read(grand) == b"G" * BS + b"a" * (3 * BS) + b"x" * BS
        # Ancestors untouched.
        assert store.read(src) == b"b" * BS + b"a" * (3 * BS)
        assert store.read(fork) == b"b" * BS + b"a" * (3 * BS) + b"x" * BS

    def test_shared_block_count_stays_shared(self, store):
        """A branch write adds exactly its own blocks."""
        src = setup_source(store)
        before = sum(p.block_count for p in store.providers.values())
        fork = store.branch(src, "fork")
        store.write(fork, 0, b"F" * BS)
        after = sum(p.block_count for p in store.providers.values())
        assert after == before + 1


class TestBranchValidation:
    def test_existing_id_rejected(self, store):
        src = setup_source(store)
        with pytest.raises(BlobError):
            store.branch(src, src)

    def test_unpublished_version_rejected(self, store):
        src = setup_source(store)
        assign(store.version_manager, src, BS)  # v3 in flight
        with pytest.raises(VersionNotReady):
            store.branch(src, "fork", version=3)

    def test_missing_version_rejected(self, store):
        src = setup_source(store)
        with pytest.raises(VersionNotFound):
            store.branch(src, "fork", version=9)

    def test_gcd_version_rejected(self, store):
        src = setup_source(store)
        collect_garbage(store, src, retain_from=2)
        with pytest.raises(VersionNotFound):
            store.branch(src, "fork", version=1)


class TestBranchGcInterplay:
    def test_parent_gc_keeps_branch_readable(self, store):
        """Collecting the parent must never break a branch that shares
        its subtrees and blocks."""
        src = setup_source(store)
        fork = store.branch(src, "fork", version=1)  # pins v1 data
        store.write(src, 0, b"c" * (4 * BS))  # src v3 rewrites all
        collect_garbage(store, src, retain_from=3)
        # Parent's old snapshots are gone...
        with pytest.raises(VersionNotFound):
            store.read(src, version=1)
        # ...but the branch still reads the shared v1 bytes.
        assert store.read(fork) == b"a" * (4 * BS)

    def test_branch_gc_keeps_parent_intact(self, store):
        src = setup_source(store)
        fork = store.branch(src, "fork")
        store.write(fork, 0, b"F" * BS)  # fork v3
        collect_garbage(store, fork, retain_from=3)
        assert store.read(src) == b"b" * BS + b"a" * (3 * BS)
        assert store.read(src, version=1) == b"a" * (4 * BS)

    def test_branch_forked_during_a_pass_inherits_its_floor(self, store):
        """The pass raises the floor in the same critical section that
        takes its roots: a branch forked while it marks is not among
        them, so it must see the swept versions as collected, never as
        readable versions whose nodes are gone."""
        src = store.create()
        for fill in (b"a", b"b", b"c"):
            store.write(src, 0, fill * BS)  # v1..v3, each overwriting
        real, forks = store.metadata.gather_nodes, []

        def fork_then_get(keys, *args, **kwargs):
            if not forks:  # the pass's first mark round
                forks.append(store.branch(src, "fork"))
            return real(keys, *args, **kwargs)

        store.metadata.gather_nodes = fork_then_get
        report = collect_garbage(store, src, retain_from=3)
        store.metadata.gather_nodes = real
        assert forks == ["fork"] and report.nodes_deleted == 2
        for version in (1, 2):
            with pytest.raises(VersionNotFound, match="garbage-collected"):
                store.read("fork", version=version)
        assert store.read("fork") == b"c" * BS

    def test_branch_after_gc_inherits_the_gc_floor(self):
        """A branch taken after GC must not expose the swept versions:
        reads of them are refused up front, and every scrub pass stays
        clean instead of reporting their trees unreadable."""
        store = LocalBlobStore(config=StoreConfig(
            data_providers=4, metadata_providers=2, block_size=4096
        ))
        src = store.create()
        store.append(src, b"A")
        store.write(src, 0, b"B")
        store.write(src, 0, b"C")  # v3
        collect_garbage(store, src, 3)
        fork = store.branch(src, version=3)
        for version in (1, 2):
            with pytest.raises(VersionNotFound, match="garbage-collected"):
                store.version_manager.snapshot_info(fork, version)
            with pytest.raises(VersionNotFound, match="garbage-collected"):
                store.read(fork, version=version)
        assert store.read(fork) == b"C"
        for _ in range(2):
            assert store.scrub().errors == ()
        store.close()

    def test_branch_of_a_branch_after_gc_inherits_the_floor_too(self, store):
        src = setup_source(store)
        store.write(src, 0, b"c" * BS)  # v3
        collect_garbage(store, src, retain_from=3)
        fork = store.branch(src, "fork", version=3)
        grandchild = store.branch(fork, "grandchild")
        for version in (1, 2):
            with pytest.raises(VersionNotFound, match="garbage-collected"):
                store.read(grandchild, version=version)
        assert store.read(grandchild) == b"c" * BS + b"a" * (3 * BS)
        assert store.scrub().errors == ()

    def test_branch_after_gc_keeps_evolving(self, store):
        """Writes and a GC of their own on a branch taken after the
        source's GC leave every scrub pass clean."""
        src = setup_source(store)
        store.write(src, 0, b"c" * BS)  # v3
        collect_garbage(store, src, retain_from=3)
        fork = store.branch(src, "fork")
        assert store.append(fork, b"F" * BS) == 4
        assert store.read(fork) == b"c" * BS + b"a" * (3 * BS) + b"F" * BS
        collect_garbage(store, fork, retain_from=4)
        with pytest.raises(VersionNotFound):
            store.read(fork, version=3)
        assert store.read(src) == b"c" * BS + b"a" * (3 * BS)
        for _ in range(2):
            assert store.scrub().errors == ()

    def test_branch_taken_before_gc_keeps_its_history(self, store):
        """Only a branch taken *after* GC inherits the floor: one taken
        before keeps every version it was forked with."""
        src = setup_source(store)
        fork = store.branch(src, "fork")
        store.write(src, 0, b"c" * BS)  # v3
        collect_garbage(store, src, retain_from=3)
        assert store.read(fork, version=1) == b"a" * (4 * BS)
        assert store.read(fork) == b"b" * BS + b"a" * (3 * BS)
        assert store.scrub().errors == ()

    def test_parent_gc_with_inflight_branch_write_refused(self, store):
        src = setup_source(store)
        fork = store.branch(src, "fork")
        assign(store.version_manager, fork, BS)  # in flight on fork
        with pytest.raises(BlobError, match="descendant branch"):
            collect_garbage(store, src, retain_from=2)
