"""Tests for splits, the line record reader, and text output."""

import threading

import pytest

from repro.blob import LocalBlobStore, StoreConfig
from repro.bsfs import BSFSFileSystem
from repro.mapreduce import compute_file_splits, iter_lines, write_text_records

BS = 64


@pytest.fixture
def fs():
    return BSFSFileSystem(
        store=LocalBlobStore(config=StoreConfig(data_providers=6, metadata_providers=2, block_size=BS))
    )


class TestComputeSplits:
    def test_one_split_per_block(self, fs):
        fs.write_file("/f", bytes(3 * BS))
        splits = compute_file_splits(fs, ["/f"], BS)
        assert [(s.offset, s.length) for s in splits] == [
            (0, BS), (BS, BS), (2 * BS, BS)
        ]

    def test_trailing_partial_split(self, fs):
        fs.write_file("/f", bytes(BS + 10))
        splits = compute_file_splits(fs, ["/f"], BS)
        assert [(s.offset, s.length) for s in splits] == [(0, BS), (BS, 10)]

    def test_hosts_carried_from_layout(self, fs):
        fs.write_file("/f", bytes(2 * BS))
        splits = compute_file_splits(fs, ["/f"], BS)
        expected = [loc.hosts for loc in fs.block_locations("/f", 0, 2 * BS)]
        assert [s.hosts for s in splits] == expected

    def test_directory_recursion(self, fs):
        fs.write_file("/in/a", bytes(BS))
        fs.write_file("/in/sub/b", bytes(BS))
        fs.write_file("/elsewhere", bytes(BS))
        splits = compute_file_splits(fs, ["/in"], BS)
        assert sorted({s.path for s in splits}) == ["/in/a", "/in/sub/b"]

    def test_empty_file_no_splits(self, fs):
        fs.write_file("/empty", b"")
        assert compute_file_splits(fs, ["/empty"], BS) == []

    def test_validation(self, fs):
        fs.write_file("/f", bytes(BS))
        with pytest.raises(ValueError):
            compute_file_splits(fs, ["/f"], 0)

    def test_engine_split_planning_never_blocks_the_event_loop(self):
        # Each file's descent blocks; on the engine's loop thread it
        # would stall every other client's transfers.
        config = StoreConfig(
            data_providers=6, metadata_providers=2, block_size=BS, io_workers=4
        )
        with LocalBlobStore(config=config) as store:
            fs = BSFSFileSystem(store=store)
            paths = [f"/in/part-{i}" for i in range(6)]
            for path in paths:
                fs.write_file(path, bytes(2 * BS))
            threads = []
            real = fs.block_locations

            def recording(*args, **kwargs):
                threads.append(threading.current_thread().name)
                return real(*args, **kwargs)

            fs.block_locations = recording
            splits = compute_file_splits(fs, ["/in"], BS, engine=fs.io_engine)
        assert [(s.path, s.offset) for s in splits] == [
            (path, offset) for path in paths for offset in (0, BS)
        ]
        assert len(threads) == 2 * len(paths)
        assert not [name for name in threads if name.endswith("-loop")]


class TestLineReader:
    def write_lines(self, fs, lines):
        fs.write_file("/text", "".join(l + "\n" for l in lines).encode())

    def test_single_split_reads_all(self, fs):
        self.write_lines(fs, ["alpha", "beta", "gamma"])
        with fs.open("/text") as stream:
            records = list(iter_lines(stream, 0, stream.size))
        assert [line for _, line in records] == ["alpha", "beta", "gamma"]
        assert records[0][0] == 0

    def test_split_boundary_exactly_once(self, fs):
        """Every line is owned by exactly one split, whatever the cut."""
        lines = [f"line-{i:04d}-" + "x" * (i % 37) for i in range(100)]
        self.write_lines(fs, lines)
        with fs.open("/text") as stream:
            size = stream.size
            for split_len in (17, 64, 100, size):
                collected = []
                offset = 0
                while offset < size:
                    length = min(split_len, size - offset)
                    collected.extend(
                        line for _, line in iter_lines(stream, offset, length)
                    )
                    offset += length
                assert collected == lines, f"split_len={split_len}"

    def test_line_spanning_blocks(self, fs):
        long_line = "z" * (2 * BS + 7)
        self.write_lines(fs, [long_line, "tail"])
        with fs.open("/text") as stream:
            records = list(iter_lines(stream, 0, 10))  # split ends mid-line
            assert [l for _, l in records] == [long_line]
            records2 = list(iter_lines(stream, 10, stream.size - 10))
            assert [l for _, l in records2] == ["tail"]

    def test_no_trailing_newline(self, fs):
        fs.write_file("/text", b"one\ntwo")
        with fs.open("/text") as stream:
            records = list(iter_lines(stream, 0, stream.size))
        assert [l for _, l in records] == ["one", "two"]

    def test_offsets_are_byte_positions(self, fs):
        self.write_lines(fs, ["ab", "cdef"])
        with fs.open("/text") as stream:
            records = list(iter_lines(stream, 0, stream.size))
        assert records == [(0, "ab"), (3, "cdef")]

    def test_empty_lines_preserved(self, fs):
        fs.write_file("/text", b"a\n\nb\n")
        with fs.open("/text") as stream:
            assert [l for _, l in iter_lines(stream, 0, stream.size)] == ["a", "", "b"]


class TestTextOutput:
    def test_key_value_lines(self, fs):
        write_text_records(fs, "/out", [("k1", 1), ("k2", "two")])
        assert fs.read_file("/out") == b"k1\t1\nk2\ttwo\n"

    def test_none_key_bare_value(self, fs):
        write_text_records(fs, "/out", [(None, "just text")])
        assert fs.read_file("/out") == b"just text\n"

    def test_returns_bytes_written(self, fs):
        n = write_text_records(fs, "/out", [("a", "b")])
        assert n == len(b"a\tb\n")

    def test_empty(self, fs):
        write_text_records(fs, "/out", [])
        assert fs.read_file("/out") == b""
