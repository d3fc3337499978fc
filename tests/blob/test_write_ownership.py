"""Copy-on-publish happens once per write, at the store boundary.

DESIGN.md §11: ``LocalBlobStore`` freezes the caller's buffer once,
before cutting it into blocks — a ``bytes`` buffer is aliased, anything
else is copied once whatever the replication — and providers store the
payloads they are given.  These tests pin the boundary: one copy per
write, every replica immune to the caller rewriting its buffer, and
``CopyStats``' ``provider.put`` layer counting the bytes that landed on
providers (a write's replicas, a failed write's landed prefix, a scrub
repair's copies), one record per write.
"""

import pytest

from repro.blob import LocalBlobStore, StoreConfig
from repro.errors import ProviderUnavailable

BS = 16
BLOCKS = 4
SIZE = BLOCKS * BS
ORIGINAL = bytes(range(SIZE))

#: The two mutable sources a caller may hand a write.
SOURCES = {
    "bytearray": lambda backing: backing,
    "readonly_view": lambda backing: memoryview(backing).toreadonly(),
}


def make_store(replication, **fields):
    return LocalBlobStore(
        config=StoreConfig(
            data_providers=4,
            metadata_providers=2,
            block_size=BS,
            replication=replication,
            **fields,
        )
    )


def stored_replicas(store):
    """Block position -> the bytes of every stored replica of it."""
    replicas = {}
    for provider in store.providers.values():
        for block_id in provider.block_ids():
            replicas.setdefault(block_id[2], []).append(provider.get(block_id).tobytes())
    return replicas


@pytest.mark.parametrize("replication", [1, 2, 3])
@pytest.mark.parametrize("source", list(SOURCES))
@pytest.mark.parametrize("io_workers", [0, 2])
class TestOneCopyPerWrite:
    def test_a_mutable_buffer_is_copied_exactly_once(self, replication, source, io_workers):
        with make_store(replication, io_workers=io_workers) as store:
            blob = store.create()
            backing = bytearray(ORIGINAL)
            store.append(blob, SOURCES[source](backing))
            # One copy whatever the replication: every replica stores a
            # window of the same frozen buffer.
            assert store.copy_stats.bytes_copied == SIZE
            assert store.copy_stats.bytes_transferred == SIZE * replication
            assert store.copy_stats.layers() == {
                "provider.put": {"copied": SIZE, "transferred": SIZE * replication, "result": 0}
            }

    def test_every_replica_keeps_the_original_bytes(self, replication, source, io_workers):
        with make_store(replication, io_workers=io_workers) as store:
            blob = store.create()
            backing = bytearray(ORIGINAL)
            version = store.append(blob, SOURCES[source](backing))
            backing[:] = bytes(SIZE)  # the caller reuses its buffer
            replicas = stored_replicas(store)
            assert sorted(replicas) == list(range(BLOCKS))
            for seq, copies in replicas.items():
                assert copies == [ORIGINAL[seq * BS : (seq + 1) * BS]] * replication
            assert store.read(blob, version=version) == ORIGINAL


@pytest.mark.parametrize("replication", [1, 2, 3])
class TestTransferredBytes:
    """``bytes_transferred`` counts the bytes that landed on providers:
    the same totals the per-vector provider records used to add up."""

    def test_immutable_bytes_are_aliased(self, replication):
        with make_store(replication) as store:
            blob = store.create()
            store.append(blob, ORIGINAL)
            assert store.copy_stats.bytes_copied == 0
            assert store.copy_stats.bytes_transferred == SIZE * replication

    def test_a_write_failing_part_way_counts_its_landed_prefix(self, replication):
        # Inline I/O, round-robin from provider-000: vectors go out in
        # order of first placement, provider-000 and provider-001 first,
        # and the scatter stops at the dead provider-002.  Each of the
        # first two providers holds `replication` of the four blocks.
        with make_store(replication) as store:
            blob = store.create()
            store.providers["provider-002"].fail()
            with pytest.raises(ProviderUnavailable):
                store.append(blob, ORIGINAL)
            assert store.copy_stats.bytes_transferred == 2 * replication * BS
            assert store.copy_stats.bytes_copied == 0
            # The landed prefix was rolled back.
            assert sum(store.provider_block_counts().values()) == 0

    def test_a_failed_mutable_write_still_made_its_one_copy(self, replication):
        with make_store(replication) as store:
            blob = store.create()
            store.providers["provider-002"].fail()
            with pytest.raises(ProviderUnavailable):
                store.append(blob, bytearray(ORIGINAL))
            assert store.copy_stats.bytes_copied == SIZE
            assert store.copy_stats.bytes_transferred == 2 * replication * BS


@pytest.mark.parametrize("io_workers", [0, 2])
def test_a_scrub_repair_counts_its_copies(io_workers):
    with make_store(2, io_workers=io_workers) as store:
        blob = store.create()
        store.append(blob, ORIGINAL)
        victim = "provider-001"
        homed = sum(victim in loc.providers for loc in store.block_locations(blob, 0, SIZE))
        store.fail_provider(victim)
        store.copy_stats.reset()
        report = store.scrub()
        assert report.copies_created == homed == 2
        assert store.copy_stats.bytes_transferred == homed * BS
        assert store.copy_stats.bytes_copied == 0  # stored blocks are immutable already
        assert store.read(blob) == ORIGINAL
