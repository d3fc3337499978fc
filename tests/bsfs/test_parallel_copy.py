"""The §V-F parallel copy, done with nothing but the BSFS and store API.

"The possibility of running concurrent appends can improve the
performance of a simple operation such as copying a large distributed
file.  This can be done in parallel by multiple clients which read
different parts of the file, then concurrently append the data to the
destination file."  Each worker here reads a block-aligned slice of a
pinned source snapshot and writes it at its offset in the destination:
writers of disjoint ranges never conflict, and every write is its own
snapshot.
"""

import threading

import pytest

from repro.blob import LocalBlobStore, StoreConfig
from repro.bsfs import BSFSFileSystem
from repro.errors import FileSystemError, InvalidRange

BS = 64


@pytest.fixture
def fs():
    return BSFSFileSystem(
        store=LocalBlobStore(config=StoreConfig(data_providers=8, metadata_providers=3, block_size=BS))
    )


def slices_of(size, workers):
    """Block-aligned ``(lo, hi)`` slices, at most one per worker."""
    n_blocks = -(-size // BS)
    per_worker = max(1, -(-n_blocks // workers))
    return [
        (start * BS, min(size, (start + per_worker) * BS))
        for start in range(0, n_blocks, per_worker)
    ]


def copy_in_order(fs, source, dst, workers):
    """Each slice extends the destination exactly at its end."""
    fs.create(dst).close()
    blob = fs.blob_of(dst)
    slices = slices_of(source.size, workers)
    for lo, hi in slices:
        fs.store.write(blob, lo, source.pread(lo, hi - lo))
    return slices


def copy_concurrently(fs, source, dst, workers):
    """Seed the full length, then every slice writer runs at once."""
    fs.create(dst).close()
    blob = fs.blob_of(dst)
    fs.store.append(blob, bytes(source.size))
    slices = slices_of(source.size, workers)
    threads = [
        threading.Thread(
            target=lambda lo=lo, hi=hi: fs.store.write(blob, lo, source.pread(lo, hi - lo))
        )
        for lo, hi in slices
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return slices


class TestParallelCopy:
    def test_in_order_slice_writes_copy_exact_bytes(self, fs):
        data = bytes(i % 251 for i in range(7 * BS + 13))
        fs.write_file("/src", data)
        slices = copy_in_order(fs, fs.open("/src"), "/dst", workers=3)
        assert len(slices) == 3
        assert fs.read_file("/dst") == data
        # One snapshot per slice write.
        assert fs.file_versions("/dst") == 3

    def test_concurrent_slice_writes_copy_exact_bytes(self, fs):
        data = bytes(i % 249 for i in range(9 * BS + 5))
        fs.write_file("/src", data)
        slices = copy_concurrently(fs, fs.open("/src"), "/dst", workers=4)
        assert fs.read_file("/dst") == data
        # The seed, then one snapshot per concurrent slice writer.
        assert fs.file_versions("/dst") == 1 + len(slices)

    def test_every_snapshot_of_a_concurrent_copy_holds_whole_slices(self, fs):
        """Concurrent writers serialize into versions: each snapshot of
        the destination holds every slice either still zero or fully
        copied, and version ``v`` holds exactly ``v - 1`` copied ones."""
        data = bytes(1 + i % 250 for i in range(8 * BS))
        fs.write_file("/src", data)
        slices = copy_concurrently(fs, fs.open("/src"), "/dst", workers=4)
        for version in range(1, fs.file_versions("/dst") + 1):
            snapshot = fs.open("/dst", version=version).read()
            copied = 0
            for lo, hi in slices:
                assert snapshot[lo:hi] in (bytes(hi - lo), data[lo:hi])
                copied += snapshot[lo:hi] == data[lo:hi]
            assert copied == version - 1

    def test_one_slice_when_the_file_is_one_block(self, fs):
        data = b"w" * BS
        fs.write_file("/src", data)
        slices = copy_in_order(fs, fs.open("/src"), "/dst", workers=8)
        assert slices == [(0, BS)]
        assert fs.read_file("/dst") == data

    def test_unaligned_tail_is_a_trailing_partial_write(self, fs):
        data = b"t" * (2 * BS + 7)
        fs.write_file("/src", data)
        slices = copy_concurrently(fs, fs.open("/src"), "/dst", workers=3)
        assert slices[-1] == (2 * BS, 2 * BS + 7)
        assert fs.read_file("/dst") == data
        assert fs.status("/dst").size == len(data)

    def test_empty_source_copies_to_an_empty_file(self, fs):
        fs.write_file("/src", b"")
        assert copy_in_order(fs, fs.open("/src"), "/dst", workers=4) == []
        assert fs.read_file("/dst") == b""
        assert fs.file_versions("/dst") == 0

    def test_copy_reads_the_snapshot_pinned_at_open(self, fs):
        """Appends racing with the copy never reach the destination."""
        data = b"s" * (4 * BS)
        fs.write_file("/src", data)
        source = fs.open("/src")
        with fs.append("/src") as out:
            out.write(b"late" * BS)
        assert source.size == 4 * BS
        copy_concurrently(fs, source, "/dst", workers=2)
        assert fs.read_file("/dst") == data
        assert fs.status("/src").size == 8 * BS

    def test_slice_beyond_the_end_is_a_hole(self, fs):
        """Without the seed, a later slice landing first would leave a
        hole, which the version manager refuses."""
        fs.write_file("/src", b"h" * (4 * BS))
        fs.create("/dst").close()
        with pytest.raises(InvalidRange):
            fs.store.write(fs.blob_of("/dst"), 2 * BS, b"h" * (2 * BS))
        assert fs.file_versions("/dst") == 0

    def test_a_directory_cannot_be_opened_as_a_source(self, fs):
        fs.make_dirs("/d")
        with pytest.raises(FileSystemError):
            fs.open("/d")
