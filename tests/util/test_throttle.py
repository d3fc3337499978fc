"""Rate limiting: the TokenBucket the gateway admits with and the scrub
paces with."""

import threading

import pytest

from repro.util.throttle import TokenBucket


class FakeTime:
    """Deterministic clock+sleep pair for driving a TokenBucket."""

    def __init__(self):
        self.now = 0.0
        self.slept = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds

    def bucket(self, rate, burst=None):
        return TokenBucket(rate, burst, clock=self.clock, sleep=self.sleep)


def frozen_bucket(rate):
    """A one-token bucket on a clock that stands still, plus the list its
    sleeps are recorded in (lock-guarded: threads may share it).

    Concurrent waiters overlap their sleeps, so a frozen clock is what
    they see while they queue: each acquire's slot is the wait it was
    told to sleep.
    """
    slept = []
    lock = threading.Lock()

    def sleep(seconds):
        with lock:
            slept.append(seconds)

    return TokenBucket(rate, burst=1, clock=lambda: 0.0, sleep=sleep), slept


class TestScrubPacing:
    """``store.scrub(ops_per_sec=r)`` paces with ``TokenBucket(r, burst=1)``."""

    def test_kth_back_to_back_acquire_sleeps_k_minus_one_slots(self):
        # A frozen clock: every acquire arrives at the same instant, so
        # each reserves the next 1/r slot behind the ones before it.
        bucket, slept = frozen_bucket(200)
        for _ in range(5):
            bucket.acquire()
        # The first takes the one-token burst and does not sleep.
        assert slept == [pytest.approx(k / 200) for k in range(1, 5)]

    def test_sequential_caller_spans_one_slot_per_extra_op(self):
        ft = FakeTime()
        bucket = ft.bucket(rate=200, burst=1)
        for _ in range(21):
            bucket.acquire()
        # 21 ops at 200/s span exactly 100 ms.
        assert ft.now == pytest.approx(0.1)
        assert ft.slept == [pytest.approx(1 / 200)] * 20

    def test_an_idle_pause_banks_one_token_only(self):
        # However long the pass idles (a slow DHT round), a burst of 1
        # lets one item through at once; the next is a full slot later.
        ft = FakeTime()
        bucket = ft.bucket(rate=100, burst=1)
        bucket.acquire()
        ft.now += 5.0
        assert bucket.available == pytest.approx(1)
        bucket.acquire()
        bucket.acquire()
        assert ft.slept == [pytest.approx(1 / 100)]

    def test_threads_sharing_the_bucket_take_distinct_slots(self):
        # A frozen clock: concurrent callers each reserve their own
        # slot, so n of them sleep 0, 1/r, ..., (n-1)/r between them.
        bucket, slept = frozen_bucket(50)
        threads = [threading.Thread(target=bucket.acquire) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(slept) == [pytest.approx(k / 50) for k in range(1, 8)]
        assert bucket.waited == pytest.approx(sum(k / 50 for k in range(1, 8)))


class TestTokenBucket:
    def test_starts_full_at_burst(self):
        ft = FakeTime()
        bucket = ft.bucket(rate=10, burst=5)
        assert bucket.available == 5

    def test_burst_defaults_to_one_second_of_rate(self):
        ft = FakeTime()
        assert ft.bucket(rate=8).burst == 8

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(0)
        with pytest.raises(ValueError):
            TokenBucket(5, burst=0)

    def test_refill_is_capped_at_burst(self):
        ft = FakeTime()
        bucket = ft.bucket(rate=10, burst=3)
        bucket.acquire(3)
        ft.now += 100.0
        assert bucket.available == 3

    def test_acquire_sleeps_exactly_the_deficit(self):
        ft = FakeTime()
        bucket = ft.bucket(rate=10, burst=10)
        bucket.acquire(10)  # drains the initial burst, no wait
        assert ft.slept == []
        bucket.acquire(5)  # 5-token deficit at 10/s = 0.5s
        assert ft.slept == [pytest.approx(0.5)]
        assert bucket.waited == pytest.approx(0.5)

    def test_acquire_reserves_so_waiters_queue_fifo(self):
        ft = FakeTime()
        bucket = ft.bucket(rate=10, burst=10)
        bucket.acquire(15)  # 0.5s backlog; the balance went negative
        assert bucket.available == pytest.approx(0)  # refilled during the sleep
        bucket.acquire(10)  # pays its own 1.0s share on top
        assert ft.slept == [pytest.approx(0.5), pytest.approx(1.0)]

    def test_zero_request_is_free(self):
        ft = FakeTime()
        bucket = ft.bucket(rate=1, burst=1)
        bucket.acquire(0)
        assert bucket.available == 1

    def test_concurrent_acquires_converge_to_rate(self):
        bucket, slept = frozen_bucket(200)

        def worker():
            for _ in range(10):
                bucket.acquire(1)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # 4 threads x 10 acquires: the one-token burst is free, the
        # other 39 reserve distinct slots k/200 s apart.
        assert sorted(slept) == [pytest.approx(k / 200) for k in range(1, 40)]
        assert bucket.waited == pytest.approx(sum(k / 200 for k in range(1, 40)))
