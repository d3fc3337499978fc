"""Zero-copy data plane: payload views, vectored gather, CopyStats.

DESIGN.md §11: the block path hands ``memoryview`` windows end-to-end —
writes freeze the caller's buffer once at the store boundary
(copy-on-publish) and chunk it without copying, reads join every
block's covered window into ONE immutable ``bytes`` that is the result
itself.  These tests pin the
ownership rules, prove reads stay byte-exact against a reference model
across unaligned offsets, partial trailing blocks and tombstone zero
ranges, and gate the byte counters: a read of N bytes must never
materialize more than N bytes client-side.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blob import (
    BytesPayload,
    CopyStats,
    LocalBlobStore,
    StoreConfig,
    SyntheticPayload,
    concat,
)
from repro.errors import InvalidRange, ProviderUnavailable

BS = 16


def make_store(**kwargs):
    kwargs.setdefault("data_providers", 4)
    kwargs.setdefault("metadata_providers", 2)
    kwargs.setdefault("block_size", BS)
    return LocalBlobStore(config=StoreConfig(**kwargs))


def fail_publish_for_version(store, version):
    """Fail every real-patch publish of *version* (forces a tombstone)."""
    real = store.metadata.put_patch

    def failing_put_patch(nodes):
        if any(node.key.version == version for node in nodes):
            raise ProviderUnavailable("all replicas of the owning bucket are down")
        return real(nodes)

    store.metadata.put_patch = failing_put_patch
    return lambda: setattr(store.metadata, "put_patch", real)


class TestPayloadViews:
    def test_slice_aliases_not_copies(self):
        backing = bytearray(b"0123456789")
        view = BytesPayload(backing).slice(2, 4)
        assert view.tobytes() == b"2345"
        backing[2] = ord(b"X")  # visible through the view: no copy was made
        assert view.tobytes() == b"X345"

    def test_view_of_bytes_is_readonly(self):
        assert BytesPayload(b"abc").view().readonly
        assert not BytesPayload(bytearray(b"abc")).view().readonly

    def test_freeze_copies_only_mutable_backing(self):
        immutable = BytesPayload(b"abc")
        assert immutable.freeze() is immutable
        backing = bytearray(b"abc")
        frozen = BytesPayload(backing).freeze()
        assert frozen.view().readonly
        backing[0] = ord(b"Z")
        assert frozen.tobytes() == b"abc"

    def test_freeze_copies_a_readonly_view_of_a_mutable_buffer(self):
        backing = bytearray(b"abc")
        payload = BytesPayload(memoryview(backing).toreadonly())
        frozen = payload.freeze()
        assert frozen is not payload
        backing[0] = ord(b"Z")
        assert frozen.tobytes() == b"abc"

    def test_concat_joins_parts_once(self):
        parts = [BytesPayload(b"ab"), BytesPayload(bytearray(b"cd")).slice(1, 1)]
        assert concat(parts).tobytes() == b"abd"
        assert concat([]).tobytes() == b""
        mixed = concat([BytesPayload(b"ab"), SyntheticPayload(3)])
        assert isinstance(mixed, SyntheticPayload) and mixed.size == 5
        # The join is the one copy: the result is immutable bytes, so
        # materializing it copies nothing more.
        joined = concat(parts)
        assert type(joined.data) is bytes
        assert joined.tobytes() is joined.data

    def test_concat_of_disjoint_windows_covers_the_range(self):
        # Bytes [10, 40) over 16-byte blocks: the tail of block 0, all
        # of block 1, the head of block 2 — in order, nothing twice.
        blocks = [BytesPayload(bytes([i]) * 16) for i in range(3)]
        parts = [blocks[0].slice(10, 6), blocks[1], blocks[2].slice(0, 8)]
        assert [p.size for p in parts] == [6, 16, 8]
        assert concat(parts).tobytes() == b"\x00" * 6 + b"\x01" * 16 + b"\x02" * 8


class TestCopyOnPublish:
    def test_mutating_the_callers_buffer_after_write_is_harmless(self):
        store = make_store()
        blob = store.create()
        buffer = bytearray(b"a" * (2 * BS))
        store.append(blob, buffer)
        buffer[:] = b"z" * len(buffer)  # writer reuses its buffer
        assert store.read(blob) == b"a" * (2 * BS)
        store.close()

    def test_memoryview_input_round_trips(self):
        store = make_store()
        blob = store.create()
        data = bytes(range(256)) * ((3 * BS) // 256 + 1)
        data = data[: 3 * BS - 5]
        store.append(blob, b"x" * BS)
        store.write(blob, BS, memoryview(data))
        assert store.read(blob) == b"x" * BS + data
        store.close()

    def test_a_readonly_view_of_a_mutable_buffer_is_frozen(self):
        # A read-only memoryview is no proof of immutability: the writer
        # still holds the bytearray behind it, and a snapshot must not
        # change when the writer reuses that buffer.
        store = make_store()
        blob = store.create()
        backing = bytearray(b"a" * 3000)
        version = store.append(blob, memoryview(backing).toreadonly())
        backing[:] = b"z" * 3000
        assert store.read(blob, 0, 10, version=version) == b"a" * 10
        assert store.read(blob, version=version) == b"a" * 3000
        store.close()

    def test_immutable_bytes_are_stored_without_copy(self):
        store = make_store()
        blob = store.create()
        store.copy_stats.reset()
        store.append(blob, b"a" * (4 * BS))
        stats = store.copy_stats.snapshot()
        assert stats["bytes_copied"] == 0  # freeze elided: input is immutable
        assert stats["bytes_transferred"] == 4 * BS
        store.close()

    def test_mutable_input_is_frozen_exactly_once(self):
        store = make_store(replication=1)
        blob = store.create()
        store.copy_stats.reset()
        store.append(blob, bytearray(b"a" * (4 * BS)))
        stats = store.copy_stats.snapshot()
        assert stats["bytes_copied"] == 4 * BS  # one copy-on-publish per write
        store.close()


@pytest.mark.parametrize("io_workers", [0, 4])
class TestReadBudget:
    """The tripwire: N-byte reads materialize <= N bytes client-side."""

    def test_multi_block_read_copies_at_most_once(self, io_workers):
        store = make_store(io_workers=io_workers)
        blob = store.create()
        data = bytes(range(256))[: 5 * BS + 7]
        store.append(blob, data[: 5 * BS])
        store.write(blob, 5 * BS, data[5 * BS :])
        for offset, size in [(0, len(data)), (3, 2 * BS), (BS - 1, BS + 2), (0, 1)]:
            store.copy_stats.reset()
            assert store.read(blob, offset=offset, size=size) == data[offset : offset + size]
            stats = store.copy_stats.snapshot()
            assert stats["bytes_copied"] <= size, (offset, size, stats)
            assert stats["bytes_result"] == size
        store.close()

    def test_whole_block_read_aliases_with_zero_copies(self, io_workers):
        store = make_store(io_workers=io_workers)
        blob = store.create()
        store.append(blob, b"ab" * BS)
        store.copy_stats.reset()
        payload = store.read_payload(blob, offset=BS, size=BS)
        assert payload.tobytes() == b"ab" * (BS // 2)
        stats = store.copy_stats.snapshot()
        assert stats["bytes_copied"] == 0  # aliased the stored block
        assert stats["bytes_transferred"] == BS
        assert store.copy_stats.layers()["read.alias"]["transferred"] == BS
        store.close()

    def test_tombstone_zeros_cost_no_copies(self, io_workers):
        store = make_store(io_workers=io_workers)
        blob = store.create()
        store.append(blob, b"a" * BS)
        undo = fail_publish_for_version(store, 2)
        with pytest.raises(ProviderUnavailable):
            store.append(blob, b"x" * (2 * BS))
        undo()
        store.append(blob, b"c" * BS)
        expected = b"a" * BS + b"\x00" * (2 * BS) + b"c" * BS
        store.copy_stats.reset()
        assert store.read(blob) == expected
        stats = store.copy_stats.snapshot()
        # Only the two real blocks are gathered; the zero range is
        # synthesised by the reader and is no copy.
        assert stats["bytes_copied"] == 2 * BS
        store.close()

    def test_unaligned_read_across_a_tombstone(self, io_workers):
        store = make_store(io_workers=io_workers)
        blob = store.create()
        store.append(blob, b"a" * BS)
        undo = fail_publish_for_version(store, 2)
        with pytest.raises(ProviderUnavailable):
            store.append(blob, b"x" * (2 * BS))
        undo()
        store.append(blob, b"c" * BS)
        store.copy_stats.reset()
        got = store.read(blob, offset=BS - 3, size=2 * BS + 5)
        assert got == b"a" * 3 + b"\x00" * (2 * BS) + b"c" * 2
        assert type(got) is bytes
        # Only the covered runs of the two real blocks are copied.
        assert store.copy_stats.bytes_copied == 3 + 2
        store.close()

    def test_synthetic_blocks_read_back_synthetic(self, io_workers):
        store = make_store(io_workers=io_workers)
        blob = store.create()
        store.append(blob, SyntheticPayload(4 * BS, tag="bench"))
        store.copy_stats.reset()
        for offset, size in [(0, 4 * BS), (3, 2 * BS), (BS, BS)]:
            payload = store.read_payload(blob, offset=offset, size=size)
            assert isinstance(payload, SyntheticPayload)
            assert payload.size == size
        assert store.copy_stats.bytes_copied == 0
        store.close()

    def test_out_of_range_read_still_rejected(self, io_workers):
        store = make_store(io_workers=io_workers)
        blob = store.create()
        store.append(blob, b"a" * BS)
        with pytest.raises(InvalidRange):
            store.read(blob, offset=0, size=BS + 1)
        with pytest.raises(InvalidRange):
            store.read(blob, offset=-1, size=1)
        store.close()


class TestOneCopyRead:
    """A read's one copy is its result (DESIGN.md §11)."""

    def test_unaligned_2mb_read_peaks_near_its_size(self):
        block = 4096
        store = make_store(block_size=block, data_providers=16)
        blob = store.create()
        data = bytes(range(256)) * (3 * 1024 * 1024 // 256)
        store.append(blob, data)
        offset, size = 1000, 2 * 1024 * 1024
        store.copy_stats.reset()
        tracemalloc.start()
        try:
            got = store.read(blob, offset=offset, size=size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == data[offset : offset + size]
        assert type(got) is bytes
        assert peak <= 1.25 * size, peak / size
        assert store.copy_stats.bytes_copied == size
        assert store.copy_stats.bytes_result == size
        store.close()


class ModelBlob:
    """Reference: the full contents, bytes in a plain bytearray."""

    def __init__(self):
        self.data = bytearray()

    def abort(self, offset, length):
        """Apply tombstone semantics (DESIGN.md §7): the aborted write's
        size sticks; blocks it would have *created or extended* read as
        whole-block zeros, blocks it merely overwrote keep prior data."""
        prior = len(self.data)
        at = prior if offset is None else offset
        size_after = max(prior, at + length)
        self.data.extend(bytes(size_after - prior))
        for idx in range(at // BS, -(-(at + length) // BS)):
            bstart = idx * BS
            need = min(BS, size_after - bstart)
            prior_len = min(BS, max(0, prior - bstart))
            if prior_len != need:
                self.data[bstart : bstart + need] = bytes(need)


@st.composite
def histories(draw):
    """A mixed history: healthy appends, overwrites and aborted writes."""
    ops = []
    size = 0
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(
            st.sampled_from(
                ["append", "abort"] + (["overwrite"] if size >= BS else [])
            )
        )
        fill = draw(st.integers(min_value=1, max_value=255))
        nblocks = draw(st.integers(min_value=1, max_value=3))
        if kind == "overwrite":
            start = draw(st.integers(min_value=0, max_value=size // BS - 1))
            count = draw(st.integers(min_value=1, max_value=size // BS - start))
            ops.append(("overwrite", start * BS, bytes([fill]) * (count * BS)))
            continue
        tail = draw(st.integers(min_value=0, max_value=BS - 1))
        length = nblocks * BS + tail
        if size % BS != 0:
            # trailing partial block: appends must go through an aligned
            # overwrite of the tail (the BSFS resume pattern)
            offset = (size // BS) * BS
            length += size - offset
            ops.append((kind, offset, bytes([fill]) * length))
            size = offset + length  # aborts keep the size too (tombstone)
            continue
        ops.append((kind, None, bytes([fill]) * length))
        size += length
    return ops


class TestRoundTripProperty:
    @given(ops=histories(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_reads_match_reference_model_and_copy_budget(self, ops, data):
        store = make_store()
        model = ModelBlob()
        blob = store.create()
        for kind, offset, payload in ops:
            if kind == "abort":
                version = store.latest_version(blob) + 1
                undo = fail_publish_for_version(store, version)
                with pytest.raises(ProviderUnavailable):
                    if offset is None:
                        store.append(blob, payload)
                    else:
                        store.write(blob, offset, payload)
                undo()
                model.abort(offset, len(payload))
            elif offset is None:
                store.append(blob, payload)
                model.data.extend(payload)
            else:
                store.write(blob, offset, payload)
                end = offset + len(payload)
                model.data[offset:end] = payload
        expected = bytes(model.data)
        assert store.read(blob) == expected
        if expected:
            offset = data.draw(
                st.integers(min_value=0, max_value=len(expected) - 1), label="offset"
            )
            size = data.draw(
                st.integers(min_value=0, max_value=len(expected) - offset),
                label="size",
            )
            store.copy_stats.reset()
            assert store.read(blob, offset=offset, size=size) == (
                expected[offset : offset + size]
            )
            assert store.copy_stats.bytes_copied <= size
        store.close()


class TestCopyStats:
    def test_record_and_layers(self):
        stats = CopyStats()
        stats.record("read.gather", copied=10, transferred=10)
        stats.record("read.gather", copied=5, transferred=5)
        stats.record("provider.put", transferred=7)
        stats.record("read.result", result=15)
        snap = stats.snapshot()
        assert snap == {
            "bytes_copied": 15,
            "bytes_transferred": 22,
            "bytes_result": 15,
        }
        layers = stats.layers()
        assert layers["read.gather"] == {"copied": 15, "transferred": 15, "result": 0}
        assert layers["provider.put"]["transferred"] == 7
        stats.reset()
        assert stats.snapshot()["bytes_transferred"] == 0
        assert stats.layers() == {}
