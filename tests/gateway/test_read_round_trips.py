"""One file read is one BlobSeer READ (paper §III-C, DESIGN.md §3).

A gateway read resolves its snapshot once, at ``open``; the multi-block
``pread`` behind it is then ONE pinned ``store.read_payload``: no
further vman round trip, one batched descent (at most one metadata
round trip per tree level), one parallel gather.  All counter-based —
no latency is configured and nothing sleeps.
"""

import math

import pytest

from repro.blob import StoreConfig
from repro.blob.gc import collect_garbage
from repro.errors import VersionNotFound
from repro.gateway import Gateway
from tests.io_requests import delete_blocks

BS = 1024
EXTENT = 4 * BS

#: Inline I/O, the I/O engine, and the engine behind a one-slot
#: in-flight window: round-trip counts must not depend on concurrency.
ENGINES = {
    "inline": {},
    "engine": {"io_workers": 2},
    "window1": {"io_workers": 2, "max_in_flight": 1},
}


def payload(tag: int, size: int = EXTENT) -> bytes:
    return bytes((tag * 31 + i) % 251 for i in range(size))


def depth(blocks: int) -> int:
    """Tree levels a descent visits over *blocks* leaves."""
    return max(1, math.ceil(math.log2(blocks))) + 1


@pytest.fixture(params=sorted(ENGINES))
def gateway(request):
    gw = Gateway(
        config=StoreConfig(
            data_providers=4, block_size=BS, replication=2, **ENGINES[request.param]
        )
    )
    yield gw
    gw.close()


@pytest.fixture
def client(gateway):
    return gateway.connect("t", gateway.register_tenant("t"))


def blob_of(gateway, path: str) -> str:
    return gateway.fs.blob_of(gateway.tenant_path("t", path))


class Cost:
    """What one client op cost the store, layer by layer."""

    def __init__(self, store, monkeypatch):
        self.store = store
        self.read_payload_calls = 0
        inner = store.read_payload

        def counting(*args, **kwargs):
            self.read_payload_calls += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(store, "read_payload", counting)
        # Cold node cache: every tree level really travels to the DHT.
        store.metadata.cache.clear()
        store.vman_stats.reset()
        store.metadata.store.stats.reset()

    @property
    def vman_info_rounds(self) -> int:
        return self.store.vman_stats.snapshot()["vman_info_rounds"]

    @property
    def vman_round_trips(self) -> int:
        return self.store.vman_stats.snapshot()["vman_round_trips"]

    @property
    def metadata_round_trips(self) -> int:
        return self.store.metadata.store.stats.snapshot()["round_trips"]


class TestReadCost:
    def test_read_file_is_one_pinned_store_read(self, gateway, client, monkeypatch):
        data = payload(1)
        client.write_file("/f", data)
        blob = blob_of(gateway, "/f")
        cost = Cost(gateway.store, monkeypatch)
        assert client.read_file("/f") == data
        assert cost.vman_info_rounds == cost.vman_round_trips == 1
        assert 1 <= cost.metadata_round_trips <= depth(4)
        assert cost.read_payload_calls == 1
        assert data == gateway.store.read(blob, version=1)

    def test_ranged_log_read_is_one_pinned_store_read(self, gateway, client, monkeypatch):
        extents = [payload(tag) for tag in range(5)]
        client.write_file("/log", extents[0])
        for extent in extents[1:]:
            with client.append("/log") as stream:
                stream.write(extent)
        blob = blob_of(gateway, "/log")
        for which in (0, 3, 4):
            want = gateway.store.read(blob, which * EXTENT, EXTENT, version=5)
            assert want == extents[which]
            with monkeypatch.context() as patch:
                cost = Cost(gateway.store, patch)
                assert client.read("/log", which * EXTENT, EXTENT) == want
            assert cost.vman_info_rounds == cost.vman_round_trips == 1
            assert 1 <= cost.metadata_round_trips <= depth(len(extents) * 4)
            assert cost.read_payload_calls == 1

    def test_unaligned_range_is_still_one_store_read(self, gateway, client, monkeypatch):
        data = payload(2, 6 * BS + 100)
        client.write_file("/f", data)
        cost = Cost(gateway.store, monkeypatch)
        assert client.read("/f", BS // 2, 4 * BS) == data[BS // 2 : BS // 2 + 4 * BS]
        assert cost.vman_round_trips == 1
        assert cost.read_payload_calls == 1

    def test_block_locations_resolve_the_snapshot_once(self, gateway, client, monkeypatch):
        client.write_file("/f", payload(4))
        cost = Cost(gateway.store, monkeypatch)
        locations = gateway.fs.block_locations(gateway.tenant_path("t", "/f"), 0, EXTENT)
        assert [loc.length for loc in locations] == [BS] * 4
        assert cost.vman_round_trips == 1
        assert cost.metadata_round_trips <= depth(4)


class TestPinnedSnapshot:
    def test_stream_opened_before_an_append_reads_its_pinned_file(
        self, gateway, client, monkeypatch
    ):
        first = payload(5, EXTENT + BS // 2)  # trailing partial block
        client.write_file("/f", first)
        with client.open("/f") as stream:
            with client.append("/f") as appender:
                appender.write(payload(6))
            cost = Cost(gateway.store, monkeypatch)
            assert stream.size == len(first)
            assert stream.read() == first
            assert cost.vman_round_trips == 0  # pinned at open
        assert client.read_file("/f") == first + payload(6)

    def test_swept_version_raises_version_not_found(self, gateway, client):
        first = payload(7, 3 * BS + BS // 2)
        client.write_file("/f", first)
        blob = blob_of(gateway, "/f")
        with client.open("/f") as stream:
            assert stream.pread(0, 10) == first[:10]  # block 0 is now cached
            with client.append("/f") as appender:
                appender.write(payload(8))  # rewrites the partial tail block
            latest = gateway.store.latest_version(blob)
            assert latest > stream.version
            collect_garbage(gateway.store, blob, retain_from=latest)
            assert stream.pread(5, 10) == first[5:15]  # cached: no store read
            with pytest.raises(VersionNotFound, match="garbage-collected"):
                stream.pread(BS, 2 * BS)
            with pytest.raises(VersionNotFound, match="garbage-collected"):
                stream.pread(3 * BS, 1)  # the single-block path too
        with pytest.raises(VersionNotFound, match="garbage-collected"):
            client.read("/f", version=stream.version)

    def test_lost_first_replica_fails_over_inside_a_ranged_fetch(
        self, gateway, client, monkeypatch
    ):
        data = payload(9)
        client.write_file("/f", data)
        store, blob = gateway.store, blob_of(gateway, "/f")
        victim = store.block_locations(blob, BS, BS)[0].providers[0]
        (block_id,) = [
            bid
            for bid in store.providers[victim].block_ids()
            if bid[0] == blob and bid[2] == 1
        ]
        assert delete_blocks(store.providers[victim], [block_id]) == {block_id: BS}
        cost = Cost(store, monkeypatch)
        assert client.read_file("/f") == data
        assert cost.read_payload_calls == 1
        assert cost.vman_round_trips == 1  # the pin was never re-validated
