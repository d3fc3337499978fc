"""End-to-end tests of the in-process BlobSeer store."""

import pytest

from repro.blob import LocalBlobStore, StoreConfig, SyntheticPayload
from repro.errors import (
    BlobError,
    InvalidRange,
    ProviderUnavailable,
    VersionNotReady,
)

from tests.blob.vman_calls import assign

BS = 64


@pytest.fixture
def store():
    return LocalBlobStore(config=StoreConfig(
        data_providers=8, metadata_providers=3, block_size=BS, seed=0
    ))


class TestCreate:
    def test_autonamed_blobs(self, store):
        a, b = store.create(), store.create()
        assert a != b
        assert store.snapshot(a).size == 0

    def test_explicit_id(self, store):
        assert store.create("mine") == "mine"

    def test_duplicate_rejected(self, store):
        store.create("x")
        with pytest.raises(BlobError):
            store.create("x")

    def test_per_blob_block_size(self, store):
        blob = store.create(block_size=16)
        store.write(blob, 0, b"z" * 32)
        assert store.snapshot(blob).block_size == 16


class TestWriteRead:
    def test_roundtrip_single_block(self, store):
        blob = store.create()
        v = store.write(blob, 0, b"a" * BS)
        assert v == 1
        assert store.read(blob) == b"a" * BS

    def test_roundtrip_multi_block(self, store):
        blob = store.create()
        data = bytes(range(256)) * BS  # 4 blocks
        store.write(blob, 0, data[: 4 * BS])
        assert store.read(blob) == data[: 4 * BS]

    def test_trailing_partial_block(self, store):
        blob = store.create()
        store.write(blob, 0, b"x" * (BS + 10))
        assert store.snapshot(blob).size == BS + 10
        assert store.read(blob) == b"x" * (BS + 10)

    def test_sub_range_reads(self, store):
        blob = store.create()
        data = bytes(i % 251 for i in range(3 * BS))
        store.write(blob, 0, data)
        assert store.read(blob, offset=10, size=100) == data[10:110]
        assert store.read(blob, offset=BS, size=BS) == data[BS : 2 * BS]
        assert store.read(blob, offset=3 * BS - 5, size=5) == data[-5:]

    def test_zero_size_read(self, store):
        blob = store.create()
        store.write(blob, 0, b"x" * BS)
        assert store.read(blob, offset=10, size=0) == b""

    def test_read_beyond_size_rejected(self, store):
        blob = store.create()
        store.write(blob, 0, b"x" * BS)
        with pytest.raises(InvalidRange):
            store.read(blob, offset=0, size=BS + 1)
        with pytest.raises(InvalidRange):
            store.read(blob, offset=-1, size=1)

    def test_empty_blob_read(self, store):
        blob = store.create()
        assert store.read(blob) == b""

    def test_zero_byte_write_rejected(self, store):
        blob = store.create()
        with pytest.raises(InvalidRange):
            store.write(blob, 0, b"")


class TestVersioning:
    def test_every_write_creates_a_version(self, store):
        blob = store.create()
        assert store.write(blob, 0, b"a" * BS) == 1
        assert store.write(blob, 0, b"b" * BS) == 2
        assert store.latest_version(blob) == 2

    def test_old_versions_stay_readable(self, store):
        """§III-A.1: all past versions remain accessible."""
        blob = store.create()
        store.write(blob, 0, b"a" * 2 * BS)
        store.write(blob, BS, b"b" * BS)
        store.append(blob, b"c" * BS)
        assert store.read(blob, version=1) == b"a" * 2 * BS
        assert store.read(blob, version=2) == b"a" * BS + b"b" * BS
        assert store.read(blob, version=3) == b"a" * BS + b"b" * BS + b"c" * BS

    def test_append_offsets(self, store):
        blob = store.create()
        store.append(blob, b"1" * BS)
        store.append(blob, b"2" * (BS + 5))
        assert store.read(blob) == b"1" * BS + b"2" * (BS + 5)

    def test_append_after_unaligned_rejected(self, store):
        blob = store.create()
        store.append(blob, b"x" * 10)
        with pytest.raises(InvalidRange):
            store.append(blob, b"y" * BS)

    def test_trailing_rewrite_after_unaligned(self, store):
        blob = store.create()
        store.append(blob, b"x" * 10)
        # The FS-layer pattern: rewrite the trailing partial block.
        store.write(blob, 0, b"x" * 10 + b"y" * BS)
        assert store.read(blob) == b"x" * 10 + b"y" * BS

    def test_unpublished_version_not_readable(self, store):
        blob = store.create()
        store.write(blob, 0, b"a" * BS)
        # Simulate an in-flight concurrent writer holding version 2.
        assign(store.version_manager, blob, BS)
        with pytest.raises(VersionNotReady):
            store.snapshot(blob, 2)
        # Latest still resolves to the published snapshot.
        assert store.snapshot(blob).version == 1

    def test_snapshot_isolation_under_overwrites(self, store):
        blob = store.create()
        data = {}
        for v in range(1, 6):
            payload = bytes([v]) * (v * BS)
            store.write(blob, 0, payload)
            data[v] = payload
        for v, payload in data.items():
            assert store.read(blob, version=v) == payload


class TestBlockLocations:
    def test_exposes_block_layout(self, store):
        """The §IV-C primitive Hadoop uses for affinity scheduling."""
        blob = store.create()
        store.write(blob, 0, b"z" * (3 * BS))
        locations = store.block_locations(blob, 0, 3 * BS)
        assert len(locations) == 3
        assert [l.offset for l in locations] == [0, BS, 2 * BS]
        assert all(len(l.providers) == 1 for l in locations)
        # round robin: three distinct providers
        assert len({l.providers[0] for l in locations}) == 3

    def test_sub_range(self, store):
        blob = store.create()
        store.write(blob, 0, b"z" * (3 * BS))
        locations = store.block_locations(blob, BS + 1, BS)
        assert [l.offset for l in locations] == [BS + 1, 2 * BS]

    def test_empty_range(self, store):
        blob = store.create()
        store.write(blob, 0, b"z" * BS)
        assert store.block_locations(blob, 0, 0) == []

    def test_out_of_range_rejected(self, store):
        blob = store.create()
        store.write(blob, 0, b"z" * BS)
        with pytest.raises(InvalidRange):
            store.block_locations(blob, 0, BS + 1)


class TestPlacement:
    def test_round_robin_balances(self, store):
        blob = store.create()
        store.write(blob, 0, b"q" * (16 * BS))
        counts = store.provider_block_counts()
        assert set(counts.values()) == {2}  # 16 blocks over 8 providers

    def test_synthetic_payload_write(self, store):
        blob = store.create()
        store.write(blob, 0, SyntheticPayload(4 * BS, tag="sim"))
        payload = store.read_payload(blob)
        assert payload.size == 4 * BS and not payload.is_real
        with pytest.raises(TypeError):
            store.read(blob)


class TestReplicationAndFailover:
    def test_replicated_write_counts(self):
        store = LocalBlobStore(config=StoreConfig(data_providers=6, block_size=BS, replication=3))
        blob = store.create()
        store.write(blob, 0, b"r" * (2 * BS))
        assert sum(store.provider_block_counts().values()) == 6

    def test_read_fails_over_to_replica(self):
        store = LocalBlobStore(config=StoreConfig(data_providers=6, block_size=BS, replication=2))
        blob = store.create()
        store.write(blob, 0, b"r" * BS)
        primary = store.block_locations(blob, 0, BS)[0].providers[0]
        store.fail_provider(primary)
        assert store.read(blob) == b"r" * BS

    def test_unreplicated_read_fails_when_provider_down(self, store):
        blob = store.create()
        store.write(blob, 0, b"r" * BS)
        primary = store.block_locations(blob, 0, BS)[0].providers[0]
        store.fail_provider(primary)
        with pytest.raises(ProviderUnavailable):
            store.read(blob)

    def test_writes_avoid_failed_providers(self, store):
        store.fail_provider("provider-000")
        blob = store.create()
        store.write(blob, 0, b"w" * (8 * BS))
        assert store.provider_block_counts()["provider-000"] == 0
