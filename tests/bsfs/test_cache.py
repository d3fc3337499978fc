"""Tests for the §IV-B client caching mechanisms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bsfs import BlockReadCache, WriteBuffer
from repro.bsfs.cache import CachedReadStream
from repro.errors import InvalidRange

BS = 64


class TestBlockReadCache:
    def make(self, data: bytes, capacity=2, calls=None):
        fetched = []

        def fetch(first, count):
            if calls is not None:
                calls.append((first, count))
            fetched.extend(range(first, first + count))
            return [data[i * BS : (i + 1) * BS] for i in range(first, first + count)]

        cache = BlockReadCache(fetch, block_size=BS, file_size=len(data), capacity=capacity)
        return cache, fetched

    def test_small_reads_hit_one_prefetch(self):
        """4 KB-style reads cause exactly one backend fetch per block."""
        data = bytes(i % 256 for i in range(2 * BS))
        cache, fetched = self.make(data)
        out = b"".join(cache.pread(i * 4, 4) for i in range(BS // 4))
        assert out == data[:BS]
        assert fetched == [0]

    def test_cross_block_read(self):
        data = bytes(i % 256 for i in range(3 * BS))
        cache, fetched = self.make(data)
        assert cache.pread(BS - 5, 10) == data[BS - 5 : BS + 5]
        assert fetched == [0, 1]

    def test_lru_eviction(self):
        data = bytes(3 * BS)
        cache, fetched = self.make(data, capacity=1)
        cache.pread(0, 1)
        cache.pread(BS, 1)
        cache.pread(0, 1)  # block 0 was evicted -> refetch
        assert fetched == [0, 1, 0]

    def test_trailing_short_block(self):
        data = bytes(BS + 10)
        cache, _ = self.make(data)
        assert cache.pread(BS, 10) == data[BS:]

    def test_bounds_checked(self):
        data = bytes(BS)
        cache, _ = self.make(data)
        with pytest.raises(InvalidRange):
            cache.pread(0, BS + 1)
        with pytest.raises(InvalidRange):
            cache.pread(-1, 1)

    def test_zero_read(self):
        cache, fetched = self.make(bytes(BS))
        assert cache.pread(10, 0) == b""
        assert fetched == []

    def test_backend_size_mismatch_detected(self):
        cache = BlockReadCache(lambda i, n: [b"short"], block_size=BS, file_size=BS)
        with pytest.raises(InvalidRange, match="expected"):
            cache.pread(0, 1)

    def test_uncached_run_is_one_backend_call(self):
        """A pread over k uncached blocks costs ONE ranged fetch."""
        data = bytes(i % 251 for i in range(5 * BS + 7))
        calls = []
        cache, fetched = self.make(data, calls=calls)
        assert cache.pread(BS // 2, 3 * BS) == data[BS // 2 : BS // 2 + 3 * BS]
        assert calls == [(0, 4)]
        assert cache.fetches == 4  # counts blocks, not backend calls

    def test_only_the_missing_run_is_fetched(self):
        data = bytes(i % 251 for i in range(6 * BS))
        calls = []
        cache, _ = self.make(data, capacity=4, calls=calls)
        cache.pread(0, 1)
        cache.pread(BS, 1)
        del calls[:]
        assert cache.pread(0, 4 * BS) == data[: 4 * BS]
        assert calls == [(2, 2)]
        # Cached at both ends: the span between them is the run.
        cache.pread(5 * BS, 1)  # cached: 2, 3, 5 (+ one of 0/1)
        del calls[:]
        assert cache.pread(2 * BS, 4 * BS) == data[2 * BS :]
        assert calls == [(4, 1)]

    def test_run_longer_than_capacity_keeps_the_trailing_blocks(self):
        """The capacity-2 trap: admitting a 4-block run block by block
        would evict blocks the same pread still has to copy from."""
        data = bytes(i % 251 for i in range(4 * BS))
        calls = []
        cache, _ = self.make(data, capacity=2, calls=calls)
        assert cache.pread(0, 4 * BS) == data
        assert calls == [(0, 4)]
        del calls[:]
        assert cache.pread(2 * BS, 2 * BS) == data[2 * BS :]  # both cached
        assert calls == []
        cache.pread(BS, 1)
        assert calls == [(1, 1)]  # 0 and 1 were never admitted

    def test_wrong_sized_block_in_a_run_detected(self):
        cache = BlockReadCache(
            lambda i, n: [bytes(BS), b"short", bytes(BS)], block_size=BS, file_size=3 * BS
        )
        with pytest.raises(InvalidRange, match="block 1, expected"):
            cache.pread(0, 3 * BS)

    def test_cached_blocks_of_a_run_do_not_pin_its_buffer(self):
        """A backend may cut a run's blocks from ONE gathered buffer;
        the blocks the cache keeps are their own buffers, not views."""
        data = bytes(i % 251 for i in range(4 * BS))
        buffers = []

        def fetch(first, count):
            buffers.append(memoryview(bytearray(data[first * BS : (first + count) * BS])))
            return [buffers[-1][at : at + BS] for at in range(0, count * BS, BS)]

        cache = BlockReadCache(fetch, block_size=BS, file_size=len(data))
        assert cache.pread(0, len(data)) == data
        assert [type(block) for block in cache._blocks.values()] == [bytes, bytes]
        # A one-block run is kept as the backend returned it: on
        # BlobSeer that view aliases the provider's stored payload.
        assert cache.pread(0, 1) == data[:1]
        assert cache._blocks[0].obj is buffers[-1].obj

    @settings(max_examples=60, deadline=None)
    @given(
        tail=st.integers(1, BS - 1),
        capacity=st.integers(1, 4),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["pread", "read"]),
                st.integers(0, 5 * BS),
                st.integers(0, 4 * BS),
            ),
            max_size=25,
        ),
    )
    def test_random_access_matches_bytes_model(self, tail, capacity, ops):
        """pread/read in any order equal slicing the file's bytes,
        whatever is cached, with a trailing short block."""
        data = bytes(i % 251 for i in range(4 * BS + tail))
        calls = []
        cache, fetched = self.make(data, capacity=capacity, calls=calls)
        stream = CachedReadStream(cache)
        pos = 0
        for kind, offset, size in ops:
            if kind == "pread":
                assert stream.pread(offset, size) == data[offset : offset + size]
            else:
                assert stream.read(size) == data[pos : pos + size]
                pos = min(pos + size, len(data))
            assert stream.tell == pos
            assert len(cache._blocks) <= capacity
        assert stream.prefetches == len(fetched) == sum(n for _, n in calls)

    def test_stream_pread_at_or_past_eof_is_empty_and_fetches_nothing(self):
        data = bytes(i % 251 for i in range(2 * BS + 5))
        cache, fetched = self.make(data)
        stream = CachedReadStream(cache)
        for offset in (len(data), len(data) + 1, 10 * BS):
            assert stream.pread(offset, 3) == b""
        assert stream.pread(len(data) - 2, BS) == data[-2:]
        assert fetched == [2]
        assert stream.tell == 0

    def test_stream_negative_pread_raises_and_fetches_nothing(self):
        cache, fetched = self.make(bytes(2 * BS))
        stream = CachedReadStream(cache)
        for offset, size in ((-1, 1), (0, -1), (-BS, -1)):
            with pytest.raises(InvalidRange, match="negative"):
                stream.pread(offset, size)
        assert fetched == []
        assert stream.read() == bytes(2 * BS)

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockReadCache(lambda i, n: [b""] * n, block_size=0, file_size=0)
        with pytest.raises(ValueError):
            BlockReadCache(lambda i, n: [b""] * n, block_size=1, file_size=-1)
        with pytest.raises(ValueError):
            BlockReadCache(lambda i, n: [b""] * n, block_size=1, file_size=0, capacity=0)


class TestWriteBuffer:
    def make(self, committed=0, tail=b""):
        commits = []
        buffer = WriteBuffer(
            commit=lambda off, data: commits.append((off, data)),
            block_size=BS,
            committed=committed,
            initial_tail=tail,
        )
        return buffer, commits

    def test_small_writes_batch_into_blocks(self):
        """The §IV-B behaviour: 4 KB writes commit only at block fill."""
        buffer, commits = self.make()
        for _ in range(BS // 4 - 1):
            buffer.write(b"x" * 4)
        assert commits == []  # not a full block yet
        buffer.write(b"x" * 4)
        assert commits == [(0, b"x" * BS)]

    def test_multi_block_write_commits_together(self):
        buffer, commits = self.make()
        buffer.write(b"y" * (3 * BS + 7))
        assert commits == [(0, b"y" * (3 * BS))]
        assert buffer.size == 3 * BS + 7

    def test_close_flushes_partial(self):
        buffer, commits = self.make()
        buffer.write(b"z" * 10)
        assert buffer.close() == 10
        assert commits == [(0, b"z" * 10)]

    def test_close_empty_commits_nothing(self):
        buffer, commits = self.make()
        assert buffer.close() == 0
        assert commits == []

    def test_close_idempotent(self):
        buffer, commits = self.make()
        buffer.write(b"a" * 5)
        buffer.close()
        buffer.close()
        assert len(commits) == 1

    def test_write_after_close_rejected(self):
        buffer, _ = self.make()
        buffer.close()
        with pytest.raises(ValueError):
            buffer.write(b"x")

    def test_resume_with_tail_rewrites_merged_block(self):
        """The append-to-unaligned-file path: tail + new data at the
        aligned offset."""
        buffer, commits = self.make(committed=2 * BS, tail=b"t" * 10)
        buffer.write(b"n" * (BS - 10))
        assert commits == [(2 * BS, b"t" * 10 + b"n" * (BS - 10))]
        assert buffer.size == 3 * BS

    def test_validation(self):
        with pytest.raises(ValueError):
            WriteBuffer(lambda o, d: None, block_size=0)
        with pytest.raises(ValueError):
            WriteBuffer(lambda o, d: None, block_size=BS, committed=10)
        with pytest.raises(ValueError):
            WriteBuffer(lambda o, d: None, block_size=BS, initial_tail=b"x" * BS)
