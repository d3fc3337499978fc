"""End-to-end tests of the HDFS baseline (paper §II-B semantics)."""

import pytest

from repro.errors import (
    AppendNotSupported,
    FileAlreadyExists,
    FileNotFound,
    LeaseConflict,
    ProviderUnavailable,
)
from repro.hdfs import HDFSFileSystem

BS = 64


@pytest.fixture
def fs():
    return HDFSFileSystem(datanodes=6, block_size=BS, seed=7)


class TestBasicIO:
    def test_roundtrip(self, fs):
        fs.write_file("/data/f", b"hello hdfs")
        assert fs.read_file("/data/f") == b"hello hdfs"

    def test_multi_chunk_file(self, fs):
        data = bytes(i % 256 for i in range(5 * BS + 9))
        fs.write_file("/big", data)
        assert fs.read_file("/big") == data
        assert fs.status("/big").size == len(data)

    def test_chunks_land_on_datanodes(self, fs):
        fs.write_file("/f", bytes(4 * BS))
        assert sum(fs.datanode_chunk_counts().values()) == 4

    def test_streamed_writes(self, fs):
        with fs.create("/s") as out:
            for i in range(50):
                out.write(bytes([i % 256]) * 5)
        assert len(fs.read_file("/s")) == 250

    def test_positional_reads(self, fs):
        data = bytes(i % 256 for i in range(3 * BS))
        fs.write_file("/f", data)
        with fs.open("/f") as stream:
            assert stream.pread(BS + 3, 7) == data[BS + 3 : BS + 10]
            assert stream.tell == 0
            assert stream.read(2 * BS) == data[: 2 * BS]
            assert stream.tell == 2 * BS
            assert stream.read() == data[2 * BS :]
            assert stream.tell == stream.size == 3 * BS

    def test_reads_prefetch_whole_chunks(self, fs):
        fs.write_file("/f", bytes(2 * BS))
        with fs.open("/f") as stream:
            for _ in range(BS // 4):
                stream.read(4)
            assert stream.prefetches == 1
            assert stream.tell == BS


class TestHdfsSemantics:
    def test_no_append(self, fs):
        """§V-F: HDFS does not implement append."""
        fs.write_file("/f", b"x")
        with pytest.raises(AppendNotSupported):
            fs.append("/f")

    def test_single_writer_lease(self, fs):
        fs.create("/f", client="w1")
        with pytest.raises(LeaseConflict):
            fs.create("/f", client="w2")

    def test_write_once(self, fs):
        fs.write_file("/f", b"first")
        with pytest.raises(FileAlreadyExists):
            fs.create("/f")

    def test_delete_leased_file_rejected(self, fs):
        fs.create("/f", client="w")
        with pytest.raises(LeaseConflict):
            fs.delete("/f")

    def test_local_first_placement(self, fs):
        """A writer colocated with a datanode stores everything locally
        — the pathological §V-E layout."""
        fs.write_file("/local", bytes(6 * BS), client="datanode-002")
        counts = fs.datanode_chunk_counts()
        assert counts["datanode-002"] == 6
        assert sum(counts.values()) == 6

    def test_remote_client_spreads_randomly(self, fs):
        fs.write_file("/remote", bytes(12 * BS), client="edge-node")
        counts = fs.datanode_chunk_counts()
        assert max(counts.values()) < 12  # not all on one node
        assert sum(counts.values()) == 12


class TestNamespace:
    def test_missing_file(self, fs):
        with pytest.raises(FileNotFound):
            fs.open("/nope")

    def test_mkdir_list_delete(self, fs):
        fs.make_dirs("/a/b")
        fs.write_file("/a/f", b"1")
        assert fs.list_dir("/a") == ["/a/b", "/a/f"]
        assert fs.exists("/a/f")
        fs.delete("/a", recursive=True)
        assert not fs.exists("/a")

    def test_write_creates_missing_parents(self, fs):
        fs.write_file("/new/place/f", b"content")
        assert fs.list_dir("/new") == ["/new/place"]
        assert fs.status("/new/place").is_dir
        assert fs.read_file("/new/place/f") == b"content"

    def test_delete_frees_datanode_chunks(self, fs):
        fs.write_file("/f", bytes(4 * BS))
        assert sum(fs.datanode_chunk_counts().values()) == 4
        fs.delete("/f")
        assert sum(fs.datanode_chunk_counts().values()) == 0


class TestReplicationFailover:
    def test_replicated_pipeline(self):
        fs = HDFSFileSystem(datanodes=5, block_size=BS, replication=3, seed=1)
        fs.write_file("/f", bytes(2 * BS))
        assert sum(fs.datanode_chunk_counts().values()) == 6
        locations = fs.block_locations("/f", 0, 2 * BS)
        for loc in locations:
            assert len(set(loc.hosts)) == 3

    def test_read_failover(self):
        fs = HDFSFileSystem(datanodes=5, block_size=BS, replication=2, seed=1)
        fs.write_file("/f", b"r" * BS)
        primary = fs.block_locations("/f", 0, BS)[0].hosts[0]
        fs.fail_datanode(primary)
        assert fs.read_file("/f") == b"r" * BS

    def test_unreplicated_loss(self, fs):
        fs.write_file("/f", b"r" * BS)
        primary = fs.block_locations("/f", 0, BS)[0].hosts[0]
        fs.fail_datanode(primary)
        with pytest.raises(ProviderUnavailable):
            fs.read_file("/f")

    def test_failed_datanode_excluded_from_placement(self, fs):
        fs.fail_datanode("datanode-000")
        fs.write_file("/f", bytes(12 * BS), client="edge")
        assert fs.datanode_chunk_counts()["datanode-000"] == 0


class TestBlockLocations:
    def test_chunk_layout_exposed(self, fs):
        """The namenode answers the scheduler's affinity query."""
        fs.write_file("/f", bytes(3 * BS), client="edge")
        locations = fs.block_locations("/f", 0, 3 * BS)
        assert len(locations) == 3
        assert [l.offset for l in locations] == [0, BS, 2 * BS]

    def test_subrange(self, fs):
        fs.write_file("/f", bytes(4 * BS))
        locations = fs.block_locations("/f", BS + 1, BS)
        assert len(locations) == 2
        assert locations[0].offset == BS + 1

    def test_every_metadata_op_hits_namenode(self, fs):
        """The centralized-metadata contrast with BSFS (§III-A.3)."""
        fs.write_file("/f", bytes(2 * BS))
        before = fs.namenode.requests
        fs.block_locations("/f", 0, 2 * BS)  # is_dir check + layout query
        fs.status("/f")
        fs.exists("/f")
        assert fs.namenode.requests == before + 4
