"""Tests for splits, the line record reader, and text output."""

import threading
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.blob import LocalBlobStore, StoreConfig
from repro.bsfs import BSFSFileSystem
from repro.hdfs import HDFSFileSystem
from repro.mapreduce import compute_file_splits, iter_lines, write_text_records
from repro.mapreduce import io as record_io

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

    def test_reads_whole_chunks_clipped_at_split_end(self, fs):
        self.write_lines(fs, [f"line-{i:04d}" for i in range(100)])
        reads = []
        with fs.open("/text") as stream, mock.patch.object(record_io, "READ_CHUNK", 48):
            pread = stream.pread

            def recording_pread(offset, size):
                reads.append((offset, size))
                return pread(offset, size)

            stream.pread = recording_pread
            records = list(iter_lines(stream, BS, BS))
        assert [offset for offset, _ in records] == list(range(70, 2 * BS, 10))
        # The byte before the split, one 48-byte chunk, the 16 bytes
        # left to the split end (clipped: no read spans two blocks),
        # then one chunk past the end to finish the last line.
        assert reads == [(BS - 1, 1), (BS, 48), (BS + 48, 16), (2 * BS, 48)]

    def test_empty_lines_preserved(self, fs):
        fs.write_file("/text", b"a\n\nb\n")
        with fs.open("/text") as stream:
            assert [l for _, l in iter_lines(stream, 0, stream.size)] == ["a", "", "b"]


def _oracle(data: bytes) -> list[tuple[int, str]]:
    """Every line of *data* with its byte offset, once."""
    records, offset = [], 0
    for piece in data.split(b"\n"):
        if offset < len(data):  # a trailing newline ends, not starts, a line
            records.append((offset, piece.decode("utf-8", errors="replace")))
        offset += len(piece) + 1
    return records


_LINE = st.one_of(
    # Short lines: empty ones and multi-byte UTF-8 included.
    st.text(
        st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)),
        max_size=12,
    ),
    # Lines longer than two 64-byte chunks.
    st.builds(
        lambda char, n: char * n,
        st.sampled_from(["x", "\u00e9", "\u20ac"]),
        st.integers(130, 200),
    ),
)


class TestLineReaderProperty:
    @pytest.mark.parametrize("backend", ["bsfs", "hdfs"])
    @given(
        lines=st.lists(_LINE, max_size=20),
        trailing_newline=st.booleans(),
        chunk=st.sampled_from([1, 7, 64, record_io.READ_CHUNK]),
        data=st.data(),
    )
    def test_every_line_exactly_once(self, backend, lines, trailing_newline, chunk, data):
        text = "\n".join(lines) + ("\n" if trailing_newline and lines else "")
        body = text.encode("utf-8")
        if backend == "bsfs":
            config = StoreConfig(data_providers=3, metadata_providers=1, block_size=32)
            fs = BSFSFileSystem(store=LocalBlobStore(config=config))
        else:
            fs = HDFSFileSystem(datanodes=3, block_size=32, seed=1)
        fs.write_file("/text", body)
        cuts = data.draw(st.sets(st.integers(1, max(1, len(body) - 1)), max_size=8))
        bounds = [0, *sorted(c for c in cuts if c < len(body)), len(body)]
        records = []
        with mock.patch.object(record_io, "READ_CHUNK", chunk), fs.open("/text") as stream:
            for start, stop in zip(bounds, bounds[1:]):
                records.extend(iter_lines(stream, start, stop - start))
        assert records == _oracle(body)


def _per_pair(pairs) -> bytes:
    """The reference encoder: one line, one encode per pair."""
    return b"".join(
        (f"{v}\n" if k is None else f"{k}\t{v}\n").encode("utf-8") for k, v in pairs
    )


_TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40)


class TestTextOutput:
    @pytest.mark.parametrize(
        "pairs",
        [
            [(None, "a"), (None, "b c"), (None, "")],
            [("k", 1), (2, "v"), ("x", None), (3.5, ("t", 1))],
            [(None, "héllo wörld ✓"), ("ключ", "значение"), (None, "日本語")],
            # Lines crossing the 64 KB chunk: a long one, then one that
            # starts just below the boundary.
            [(None, "x" * 70_000), (None, "y" * 10), ("k", "z" * (64 * 1024 - 3))],
        ],
        ids=["none-keys", "keyed", "non-ascii", "crosses-64k"],
    )
    def test_bytes_equal_per_pair_encoder(self, fs, pairs):
        written = write_text_records(fs, "/out", pairs)
        expected = _per_pair(pairs)
        assert fs.read_file("/out") == expected
        assert written == len(expected)

    def test_returns_bytes_not_characters(self, fs):
        pairs = [(None, "é" * 40_000)] * 3  # two bytes a character, across chunks
        written = write_text_records(fs, "/out", pairs)
        assert written == 3 * 80_001 == fs.status("/out").size

    @given(
        pairs=st.lists(st.tuples(st.one_of(st.none(), _TEXT), _TEXT), max_size=30),
        chunk=st.integers(min_value=1, max_value=64),
    )
    def test_property_equals_per_pair_encoder(self, pairs, chunk):
        fs = BSFSFileSystem(
            store=LocalBlobStore(
                config=StoreConfig(data_providers=3, metadata_providers=1, block_size=BS)
            )
        )
        with mock.patch.object(record_io, "READ_CHUNK", chunk):
            written = write_text_records(fs, "/out", pairs)
        assert fs.read_file("/out") == _per_pair(pairs)
        assert written == len(_per_pair(pairs))

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

    def test_hands_the_stream_whole_chunks(self, fs):
        writes = []
        create = fs.create

        def counting_create(path, client=None):
            out = create(path, client=client)
            write = out.write

            def counting_write(data):
                writes.append(len(data))
                write(data)

            out.write = counting_write
            return out

        fs.create = counting_create
        pairs = [(i, "v" * (i % 50)) for i in range(5000)]
        written = write_text_records(fs, "/out", pairs)
        expected = "".join(f"{k}\t{v}\n" for k, v in pairs).encode()
        assert written == sum(writes) == len(expected)
        assert fs.read_file("/out") == expected
        assert len(writes) <= -(-written // record_io.READ_CHUNK) + 1
