"""End-to-end tests of BSFS (the paper's §IV layer)."""

import threading

import pytest

from repro.blob import LocalBlobStore, StoreConfig
from repro.bsfs import BSFSFileSystem
from repro.errors import FileAlreadyExists, FileNotFound, InvalidRange, IsADirectory

BS = 64


@pytest.fixture
def fs():
    return BSFSFileSystem(
        store=LocalBlobStore(config=StoreConfig(data_providers=6, metadata_providers=2, block_size=BS))
    )


class TestBasicIO:
    def test_write_read_roundtrip(self, fs):
        fs.write_file("/data/file.txt", b"hello bsfs")
        assert fs.read_file("/data/file.txt") == b"hello bsfs"

    def test_multi_block_file(self, fs):
        data = bytes(i % 256 for i in range(5 * BS + 17))
        fs.write_file("/big", data)
        assert fs.read_file("/big") == data
        assert fs.status("/big").size == len(data)

    def test_streaming_small_writes(self, fs):
        with fs.create("/stream") as out:
            for i in range(100):
                out.write(bytes([i % 251]) * 7)
        expected = b"".join(bytes([i % 251]) * 7 for i in range(100))
        assert fs.read_file("/stream") == expected

    def test_write_batching_into_blocks(self, fs):
        """§IV-B: commits happen per block, not per client write."""
        stream = fs.create("/batched")
        for _ in range(2 * BS // 4):
            stream.write(b"q" * 4)
        blob = fs.blob_of("/batched")
        assert fs.store.latest_version(blob) == 2  # exactly 2 block commits
        stream.close()
        assert fs.store.latest_version(blob) == 2  # nothing left to flush

    def test_empty_file(self, fs):
        fs.write_file("/empty", b"")
        assert fs.read_file("/empty") == b""
        assert fs.status("/empty").size == 0

    def test_sequential_and_positional_reads(self, fs):
        data = bytes(i % 256 for i in range(3 * BS))
        fs.write_file("/f", data)
        with fs.open("/f") as stream:
            assert stream.read(10) == data[:10]
            assert stream.read(10) == data[10:20]
            assert stream.pread(BS, 5) == data[BS : BS + 5]
            assert stream.read(10) == data[20:30]  # cursor unaffected
            assert stream.read() == data[30:]

    def test_read_prefetches_whole_blocks(self, fs):
        data = bytes(2 * BS)
        fs.write_file("/f", data)
        with fs.open("/f") as stream:
            for i in range(BS // 4):
                stream.read(4)
            assert stream.prefetches == 1

    def test_scan_fetches_once_per_block(self, fs):
        """§IV-B: a scan in small touches costs one fetch per block."""
        fs.write_file("/f", bytes(8 * BS))
        with fs.open("/f") as stream:
            while stream.read(4):
                pass
            assert stream.prefetches == 8

    def test_one_vman_round_per_phase_for_a_new_file(self, fs):
        """``create`` knows the fresh BLOB is empty: writing a one-block
        file asks the version manager nothing but its assign and commit."""
        fs.store.vman_stats.reset()
        fs.write_file("/f", b"x" * BS)
        stats = fs.store.vman_stats.snapshot()
        assert stats["vman_info_rounds"] == 0
        assert stats["vman_assign_rounds"] == stats["vman_commit_rounds"] == 1
        assert stats["vman_round_trips"] == 2


class TestAppend:
    def test_append_block_aligned(self, fs):
        fs.write_file("/log", b"a" * BS)
        with fs.append("/log") as out:
            out.write(b"b" * BS)
        assert fs.read_file("/log") == b"a" * BS + b"b" * BS

    def test_append_to_unaligned_file_rmw(self, fs):
        fs.write_file("/log", b"a" * 10)
        with fs.append("/log") as out:
            out.write(b"b" * 5)
        assert fs.read_file("/log") == b"a" * 10 + b"b" * 5

    def test_append_many_times(self, fs):
        fs.write_file("/log", b"")
        expected = b""
        for i in range(5):
            chunk = bytes([i]) * (BS // 2 + i)
            with fs.append("/log") as out:
                out.write(chunk)
            expected += chunk
        assert fs.read_file("/log") == expected

    def test_append_missing_file(self, fs):
        with pytest.raises(FileNotFound):
            fs.append("/ghost")


def _vman(fs):
    stats = fs.store.vman_stats.snapshot()
    return {k: stats[f"vman_{k}"] for k in ("info_rounds", "assign_rounds", "commit_rounds")}


class TestAppendRoundTrips:
    """A resumed stream asks the version manager only what the protocol
    needs: nothing at open on a block boundary, one snapshot at open
    when the file ends mid-block, and one assign and one commit per
    commit."""

    def test_aligned_file_opens_without_a_round_trip(self, fs):
        fs.write_file("/log", b"a" * (2 * BS))
        fs.store.vman_stats.reset()
        out = fs.append("/log")
        assert _vman(fs) == {"info_rounds": 0, "assign_rounds": 0, "commit_rounds": 0}
        out.write(b"b" * BS)
        out.write(b"c" * (2 * BS))
        out.close()
        assert _vman(fs) == {"info_rounds": 0, "assign_rounds": 2, "commit_rounds": 2}
        assert fs.read_file("/log") == b"a" * (2 * BS) + b"b" * BS + b"c" * (2 * BS)

    def test_unaligned_file_takes_one_snapshot_per_stream(self, fs):
        fs.write_file("/log", b"a" * 10)
        fs.store.vman_stats.reset()
        with fs.append("/log") as out:
            assert _vman(fs) == {"info_rounds": 1, "assign_rounds": 0, "commit_rounds": 0}
            # The tail's rewrite: 10 + 2 blocks + 5 bytes commit two
            # whole blocks by position.
            out.write(b"b" * (2 * BS + 5))
            assert _vman(fs) == {"info_rounds": 1, "assign_rounds": 1, "commit_rounds": 1}
            out.write(b"c" * BS)
        # Every later commit is positional too, and asks nothing more.
        assert _vman(fs) == {"info_rounds": 1, "assign_rounds": 3, "commit_rounds": 3}
        assert fs.read_file("/log") == b"a" * 10 + b"b" * (2 * BS + 5) + b"c" * BS

    @pytest.mark.parametrize("io_workers", [0, 4])
    def test_unaligned_append_stores_only_the_blocks_it_keeps(self, io_workers):
        with LocalBlobStore(config=StoreConfig(
            data_providers=4,
            metadata_providers=2,
            block_size=BS,
            io_workers=io_workers,
            overlap_publish=io_workers > 0,
        )) as store:
            fs = BSFSFileSystem(store=store)
            fs.write_file("/log", b"a" * 10)
            with fs.append("/log") as out:
                out.write(b"b" * (3 * BS))
            # The first write's block, the rewrite's three (the tail and
            # all but 10 bytes of the new data) and the close's partial,
            # stored once each and all charged.
            assert sum(store.provider_block_counts().values()) == 5
            assert store.provider_manager.block_counts() == store.provider_block_counts()
            assert fs.read_file("/log") == b"a" * 10 + b"b" * (3 * BS)

    def test_rejection_after_an_aligned_snapshot_is_raised(self, fs):
        # A positional partial write holds the file's assigned size
        # mid-block while the published one stays aligned: the open
        # takes a snapshot, finds no tail to rewrite, and the version
        # manager rejects the append.
        fs.write_file("/log", b"a" * BS)
        blob = fs.namespace.lookup("/log").blob_id
        pipeline, assigned, release = fs.store.publish_pipeline, threading.Event(), threading.Event()
        real_commit = pipeline.commit

        def held_commit(*args):
            assigned.set()
            assert release.wait(10)
            return real_commit(*args)

        pipeline.commit = held_commit
        writer = threading.Thread(target=fs.store.write, args=(blob, BS, b"t" * 10))
        writer.start()
        try:
            assert assigned.wait(10)
            pipeline.commit = real_commit
            out = fs.append("/log")
            out.write(b"b" * 5)
            with pytest.raises(InvalidRange):
                out.close()
        finally:
            release.set()
            writer.join(10)
        assert fs.read_file("/log") == b"a" * BS + b"t" * 10

    def test_resumed_size_of_an_aligned_file(self, fs):
        fs.write_file("/log", b"a" * (2 * BS))
        fs.store.vman_stats.reset()
        out = fs.append("/log")
        assert out.size == 2 * BS
        out.write(b"b" * (BS + 3))  # one block committed, 3 bytes buffered
        assert out.size == 3 * BS + 3
        out.close()
        assert out.size == 3 * BS + 3
        assert _vman(fs)["info_rounds"] == 0

    def test_resumed_size_of_an_unaligned_file(self, fs):
        fs.write_file("/log", b"a" * 10)
        out = fs.append("/log")
        out.write(b"b" * 4)
        assert out.size == 14
        out.close()
        assert out.size == 14
        assert fs.read_file("/log") == b"a" * 10 + b"b" * 4


class TestVersioning:
    def test_reader_pinned_against_appends(self, fs):
        """A BSFS reader sees an immutable snapshot while writers append."""
        fs.write_file("/f", b"1" * BS)
        reader = fs.open("/f")
        with fs.append("/f") as out:
            out.write(b"2" * BS)
        assert reader.size == BS
        assert reader.read() == b"1" * BS
        assert fs.status("/f").size == 2 * BS

    def test_open_past_version(self, fs):
        fs.write_file("/f", b"1" * BS)
        with fs.append("/f") as out:
            out.write(b"2" * BS)
        old = fs.open("/f", version=1)
        assert old.read() == b"1" * BS

    def test_file_versions_counter(self, fs):
        fs.write_file("/f", b"1" * (3 * BS))
        assert fs.file_versions("/f") == 1
        with fs.append("/f") as out:
            out.write(b"2" * BS)
        assert fs.file_versions("/f") == 2


class TestNamespace:
    def test_create_existing_rejected(self, fs):
        fs.write_file("/x", b"1")
        with pytest.raises(FileAlreadyExists):
            fs.create("/x")

    def test_missing_file(self, fs):
        with pytest.raises(FileNotFound):
            fs.open("/nope")
        with pytest.raises(FileNotFound):
            fs.status("/nope")

    def test_mkdir_list_delete(self, fs):
        fs.make_dirs("/a/b")
        fs.write_file("/a/b/f1", b"x")
        fs.write_file("/a/f2", b"y")
        assert fs.list_dir("/a") == ["/a/b", "/a/f2"]
        assert fs.exists("/a/b/f1")
        fs.delete("/a", recursive=True)
        assert not fs.exists("/a")

    def test_write_creates_missing_parents(self, fs):
        fs.write_file("/new/place/f", b"content")
        assert fs.list_dir("/new") == ["/new/place"]
        assert fs.status("/new/place").is_dir
        assert fs.read_file("/new/place/f") == b"content"

    def test_status_dir(self, fs):
        fs.make_dirs("/d")
        status = fs.status("/d")
        assert status.is_dir and status.size == 0


class TestBlockLocations:
    def test_locations_reflect_round_robin(self, fs):
        fs.write_file("/f", bytes(4 * BS))
        locations = fs.block_locations("/f", 0, 4 * BS)
        assert len(locations) == 4
        assert len({l.hosts[0] for l in locations}) == 4  # spread out

    def test_locations_subrange(self, fs):
        fs.write_file("/f", bytes(4 * BS))
        locations = fs.block_locations("/f", BS, 2 * BS)
        assert [l.offset for l in locations] == [BS, 2 * BS]

    def test_locations_clamped_to_size(self, fs):
        fs.write_file("/f", bytes(BS + 5))
        locations = fs.block_locations("/f", 0, 10 * BS)
        assert sum(l.length for l in locations) == BS + 5

    def test_locations_on_dir_rejected(self, fs):
        fs.make_dirs("/d")
        with pytest.raises(IsADirectory):
            fs.block_locations("/d", 0, 1)

    def test_namespace_not_on_data_path(self, fs):
        """§IV-A: data ops don't touch the namespace manager."""
        fs.write_file("/f", bytes(4 * BS))
        with fs.open("/f") as stream:
            before = fs.namespace.requests
            stream.read()  # all data traffic
            assert fs.namespace.requests == before
