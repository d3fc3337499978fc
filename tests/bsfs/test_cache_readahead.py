"""Read-ahead prefetching in the §IV-B block cache.

With an I/O engine attached, :class:`BlockReadCache` overlaps the
fetch of the *next* blocks (on the engine's helper threads) with the
client consuming the current one — Hadoop's strictly sequential record
readers turn that into a latency-hiding pipeline.
"""

import threading
from concurrent import futures

import pytest

from repro.blob import AsyncIOEngine
from repro.bsfs import BlockReadCache

BS = 64


@pytest.fixture
def engine():
    with AsyncIOEngine(helpers=2) as eng:
        yield eng


def make(data, engine, readahead, capacity=4, hold=None):
    """A cache over *data*; fetches on helper threads wait for *hold*."""
    fetched = []
    lock = threading.Lock()
    reader = threading.get_ident()

    def fetch(first, count):
        if hold is not None and threading.get_ident() != reader:
            hold.wait(timeout=10)
        with lock:
            fetched.extend(range(first, first + count))
        return [data[i * BS : (i + 1) * BS] for i in range(first, first + count)]

    cache = BlockReadCache(
        fetch,
        block_size=BS,
        file_size=len(data),
        capacity=capacity,
        engine=engine,
        readahead=readahead,
    )
    return cache, fetched


class TestReadAhead:
    def test_sequential_read_is_correct_and_prefetches_ahead(self, engine):
        data = bytes(i % 256 for i in range(6 * BS))
        cache, fetched = make(data, engine, readahead=2)
        out = b"".join(cache.pread(i * 4, 4) for i in range(len(data) // 4))
        assert out == data
        # Every block was fetched from the backend exactly once.
        assert sorted(fetched) == list(range(6))
        assert cache.fetches == 6

    def test_prefetch_does_not_run_past_the_file(self, engine):
        data = bytes(2 * BS + 10)  # trailing short block
        cache, fetched = make(data, engine, readahead=4)
        assert cache.pread(0, len(data)) == data
        assert sorted(set(fetched)) == [0, 1, 2]

    def test_readahead_hides_backend_latency(self, engine):
        # The mechanism that hides backend latency: while the reader
        # consumes block i, block i+1 is already being fetched on a
        # helper thread, so no read after the first fetches inline.
        data = bytes(i % 256 for i in range(8 * BS))
        threads, started = {}, [threading.Event() for _ in range(8)]

        def fetch(first, count):
            threads[first] = threading.get_ident()
            started[first].set()
            return [data[i * BS : (i + 1) * BS] for i in range(first, first + count)]

        cache = BlockReadCache(
            fetch,
            block_size=BS,
            file_size=len(data),
            capacity=4,
            engine=engine,
            readahead=2,
        )
        for i in range(8):
            assert cache.pread(i * BS, BS) == data[i * BS : (i + 1) * BS]
            if i < 7:
                assert started[i + 1].wait(timeout=10), f"block {i + 1} never prefetched"
        reader = threading.get_ident()
        assert sorted(threads) == list(range(8))
        assert threads[0] == reader
        assert all(threads[i] != reader for i in range(1, 8))
        assert cache.fetches == 8

    def test_readahead_requires_engine(self):
        with pytest.raises(ValueError):
            BlockReadCache(lambda i, n: [b""] * n, block_size=BS, file_size=0, readahead=1)

    def test_zero_readahead_with_engine_stays_synchronous(self, engine):
        data = bytes(3 * BS)
        cache, fetched = make(data, engine, readahead=0)
        cache.pread(0, 1)
        assert fetched == [0]

    def test_transient_prefetch_failure_retries_inline(self, engine):
        # A prefetch that failed in the background (provider flapping)
        # must not poison the read: consuming the block retries inline.
        data = bytes(i % 256 for i in range(4 * BS))
        failed_once = []
        lock = threading.Lock()

        def flaky_fetch(first, count):
            with lock:
                if first == 1 and not failed_once:
                    failed_once.append(first)
                    raise ConnectionError("replica's provider flapped")
            return [data[i * BS : (i + 1) * BS] for i in range(first, first + count)]

        cache = BlockReadCache(
            flaky_fetch,
            block_size=BS,
            file_size=len(data),
            capacity=4,
            engine=engine,
            readahead=1,
        )
        assert cache.pread(0, 1) == data[:1]  # schedules the prefetch of block 1
        assert cache.pread(0, len(data)) == data
        assert failed_once == [1]

    def test_random_access_does_not_amplify_fetches(self, engine):
        data = bytes(10 * BS)
        cache, fetched = make(data, engine, readahead=2)
        cache.pread(0, 1)  # sequential start: may prefetch 1, 2
        cache.pread(5 * BS, 1)  # seek: must NOT prefetch 6, 7
        assert cache.pread(6 * BS, 1) == b"\0"  # sequential again: may prefetch 7, 8
        assert not {3, 4, 9} & set(fetched)
        assert set(fetched) <= {0, 1, 2, 5, 6, 7, 8}

    def test_fetch_counter_uncounts_cancelled_prefetches(self, engine):
        # Prefetches cancelled on a seek never hit the backend and
        # must not inflate the cache-miss counter.
        data = bytes(30 * BS)
        release = threading.Event()
        cache, fetched = make(data, engine, readahead=4, hold=release)
        cache.pread(0, 1)  # prefetch 1..4 submitted on a 2-thread pool
        prefetches = list(cache._pending.values())
        cache.pread(20 * BS, 1)  # seek: 3 and 4 are still queued, so cancelled
        release.set()
        # Let every in-flight fetch land (a cancelled one is done too).
        _, not_done = futures.wait(prefetches, timeout=10)
        assert not not_done
        assert any(prefetch.cancelled() for prefetch in prefetches)
        assert cache.fetches == len(fetched)

    def test_prefetch_inside_a_fetched_span_is_dropped(self, engine):
        # The span of one multi-block fetch runs from the first to the
        # last missing block; a prefetch pending in between is fetched
        # again with it, so its future must not linger (nor be counted
        # if it never ran).
        data = bytes(i % 256 for i in range(4 * BS))
        cache, fetched = make(data, engine, readahead=1, capacity=2)
        assert cache.pread(BS, 1) == data[BS : BS + 1]  # block 2 is now pending
        prefetch = cache._pending[2]
        assert cache.pread(0, len(data)) == data  # 0 and 3 missing: span 0..3
        assert not cache._pending
        if not prefetch.cancelled():
            prefetch.result()
        assert cache.fetches == len(fetched)
