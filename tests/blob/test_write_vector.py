"""A write's per-block objects, built in bulk.

:func:`~repro.blob.block.write_descriptors` checks a write vector once
and builds every descriptor without calling the constructor;
:func:`~repro.blob.store._split_payload` checks the caller's buffer
once and cuts windows that inherit the check.  These properties pin
both to the per-object path they replace: equal descriptors, the same
errors, the same bytes.
"""

import array

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.blob import BlockDescriptor, BytesPayload, LocalBlobStore, StoreConfig
from repro.blob.block import write_descriptors
from repro.blob.store import _split_payload
from repro.bsfs.filesystem import BSFSFileSystem

BS = 16

providers = st.sampled_from([f"p{i}" for i in range(6)])
replica_sets = st.lists(providers, min_size=1, max_size=3, unique=True).map(tuple)


@st.composite
def write_vectors(draw):
    """(version, start, sizes, placements, nonce): whole blocks and a
    short tail, one replica set per block."""
    count = draw(st.integers(1, 300))
    tail = draw(st.integers(1, BS))
    sizes = [BS] * (count - 1) + [tail]
    pool = draw(st.lists(replica_sets, min_size=1, max_size=8))
    rnd = draw(st.randoms(use_true_random=False))
    placements = [rnd.choice(pool) for _ in range(count)]
    version = draw(st.integers(1, 10**6))
    start = draw(st.integers(0, 10**6))
    nonce = draw(st.integers(0, 2**40))
    return version, start, sizes, placements, nonce


def one_by_one(version, start, sizes, placements, nonce):
    return [
        BlockDescriptor(
            blob_id="b",
            version=version,
            index=start + seq,
            size=size,
            providers=replicas,
            nonce=nonce,
            seq=seq,
        )
        for seq, (size, replicas) in enumerate(zip(sizes, placements))
    ]


@given(write_vectors())
def test_bulk_descriptors_equal_the_constructors(vector):
    bulk = write_descriptors("b", *vector)
    expected = one_by_one(*vector)
    assert len(bulk) == len(expected)
    for built, made in zip(bulk, expected):
        assert type(built) is BlockDescriptor
        assert tuple(built) == tuple(made)
        assert built._asdict() == made._asdict()
        assert built == made and hash(built) == hash(made)
        assert built.block_id == made.block_id and not built.is_zero


@st.composite
def bad_vectors(draw):
    """A write vector with one or more broken entries."""
    version, start, sizes, placements, nonce = draw(write_vectors())
    sizes, placements = list(sizes), list(placements)
    faults = st.sampled_from(["version", "start", "size", "replicas"])
    for fault in draw(st.lists(faults, min_size=1, max_size=3)):
        at = draw(st.integers(0, len(sizes) - 1))
        if fault == "version":
            version = draw(st.integers(-3, 0))
        elif fault == "start":
            start = draw(st.integers(-5, -1))
        elif fault == "size":
            sizes[at] = draw(st.integers(-3, 0))
        else:
            placements[at] = ()
    return version, start, sizes, placements, nonce


@given(bad_vectors())
def test_bad_vector_raises_the_constructors_error(vector):
    with pytest.raises(ValueError) as expected:
        one_by_one(*vector)
    with pytest.raises(ValueError) as bulk:
        write_descriptors("b", *vector)
    assert str(bulk.value) == str(expected.value)


def test_vector_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="2 block sizes but 1 replica sets"):
        write_descriptors("b", 1, 0, [BS, BS], [("p0",)], 7)


def buffers(data: bytes):
    """The caller buffers a write accepts: bytes, bytearray and a
    read-only view of a bytearray."""
    return [data, bytearray(data), memoryview(bytearray(data)).toreadonly()]


@given(st.binary(min_size=1, max_size=40 * BS), st.integers(1, 3 * BS))
def test_split_windows_equal_slices(data, block_size):
    for buffer in buffers(data):
        payloads, sizes = _split_payload(buffer, block_size)
        cuts = range(0, len(data), block_size)
        assert len(payloads) == len(sizes) == len(cuts)
        for payload, size, lo in zip(payloads, sizes, cuts):
            window = data[lo : lo + block_size]
            assert type(payload) is BytesPayload
            assert payload.tobytes() == window
            assert payload.size == size == len(window)


@pytest.mark.parametrize(
    "buffer",
    [
        memoryview(bytes(range(32)))[::2],  # strided: not contiguous
        memoryview(np.zeros((4, 4), dtype=np.uint8, order="F")),  # column-major
        array.array("H", range(8)),  # two-byte items
        memoryview(bytes(16)).cast("I"),  # four-byte items
    ],
)
def test_non_byte_buffers_still_rejected(buffer):
    with pytest.raises(TypeError, match="contiguous byte buffers"):
        BytesPayload(buffer)
    store = LocalBlobStore(config=StoreConfig(block_size=BS))
    blob = store.create()
    with pytest.raises(TypeError, match="contiguous byte buffers"):
        store.append(blob, buffer)
    assert store.latest_version(blob) == 0


def test_non_buffer_rejected():
    with pytest.raises(TypeError, match="buffer protocol, got str"):
        BytesPayload("text")
    store = LocalBlobStore(config=StoreConfig(block_size=BS))
    blob = store.create()
    with pytest.raises(TypeError, match="buffer protocol, got str"):
        store.append(blob, "text")


def test_any_byte_buffer_is_written():
    """Not only bytes, bytearray and memoryview: any contiguous buffer
    of one-byte items is a write's data."""
    store = LocalBlobStore(config=StoreConfig(block_size=BS))
    blob = store.create()
    store.append(blob, array.array("B", range(48)))
    store.append(blob, np.arange(8, dtype=np.uint8))
    assert store.read(blob) == bytes(range(48)) + bytes(range(8))


def square(side: int) -> memoryview:
    """A C-contiguous two-dimensional byte view: ``len`` counts rows."""
    return memoryview(bytearray(range(side * side))).cast("B", (side, side))


class TestMultiDimensionalBuffers:
    """A multi-dimensional buffer carries all of its bytes, not its
    first ``len`` of them."""

    def test_payload_size_is_byte_count(self):
        payload = BytesPayload(square(4))
        assert payload.size == 16
        assert payload.tobytes() == bytes(range(16))
        assert payload.slice(6, 4).tobytes() == bytes(range(6, 10))

    def test_store_append_keeps_every_byte(self):
        store = LocalBlobStore(config=StoreConfig(block_size=8))
        blob = store.create()
        assert store.append(blob, square(4)) == 1
        assert store.snapshot(blob).size == 16
        assert store.read(blob) == bytes(range(16))
        rows = memoryview(bytearray(range(8))).cast("B", (2, 4))
        assert store.write(blob, 8, rows) == 2
        assert store.read(blob) == bytes(range(8)) * 2

    def test_bsfs_stream_keeps_every_byte(self):
        fs = BSFSFileSystem(config=StoreConfig(block_size=8))
        stream = fs.create("/f")
        stream.write(b"abc")
        stream.write(square(4))
        stream.close()
        assert fs.open("/f").read() == b"abc" + bytes(range(16))
