"""Rate limiting: the pacing Throttle and the admission TokenBucket."""

import threading
import time

import pytest

from repro.util.throttle import Throttle, TokenBucket


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


class TestThrottleHome:
    def test_importable_from_util_and_scrub(self):
        from repro.blob.scrub import Throttle as scrub_throttle
        from repro.util import Throttle as util_throttle

        assert scrub_throttle is Throttle
        assert util_throttle is Throttle

    def test_paces_aggregate_rate(self):
        throttle = Throttle(ops_per_sec=1000)
        start = time.monotonic()
        for _ in range(50):
            throttle.tick()
        elapsed = time.monotonic() - start
        # 50 ops at 1000/s need at least ~49ms of pacing.
        assert elapsed >= 0.04

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            Throttle(ops_per_sec=0)


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

    def test_zero_timeout_spends_without_waiting(self):
        ft = FakeTime()
        bucket = ft.bucket(rate=10, burst=3)
        assert bucket.acquire(3, timeout=0)
        assert not bucket.acquire(1, timeout=0)
        assert ft.slept == []

    def test_refill_is_capped_at_burst(self):
        ft = FakeTime()
        bucket = ft.bucket(rate=10, burst=3)
        assert bucket.acquire(3)
        ft.now += 100.0
        assert bucket.available == 3

    def test_acquire_sleeps_exactly_the_deficit(self):
        ft = FakeTime()
        bucket = ft.bucket(rate=10, burst=10)
        assert bucket.acquire(10)  # drains the initial burst, no wait
        assert ft.slept == []
        assert bucket.acquire(5)  # 5-token deficit at 10/s = 0.5s
        assert ft.slept == [pytest.approx(0.5)]
        assert bucket.waited == pytest.approx(0.5)

    def test_acquire_reserves_so_waiters_queue_fifo(self):
        ft = FakeTime()
        bucket = ft.bucket(rate=10, burst=10)
        assert bucket.acquire(15)  # 0.5s backlog; the balance went negative
        assert bucket.available == pytest.approx(0)  # refilled during the sleep
        assert bucket.acquire(10)  # pays its own 1.0s share on top
        assert ft.slept == [pytest.approx(0.5), pytest.approx(1.0)]

    def test_timeout_rejects_without_consuming(self):
        ft = FakeTime()
        bucket = ft.bucket(rate=10, burst=10)
        assert bucket.acquire(10)
        before = bucket.available
        assert not bucket.acquire(20, timeout=0.1)  # needs 2s > 0.1s
        assert bucket.rejected == 1
        assert bucket.available == before
        assert ft.slept == []

    def test_timeout_admits_when_wait_fits(self):
        ft = FakeTime()
        bucket = ft.bucket(rate=10, burst=10)
        assert bucket.acquire(10)
        assert bucket.acquire(1, timeout=0.5)  # 0.1s wait fits
        assert ft.slept == [pytest.approx(0.1)]

    def test_zero_request_is_free(self):
        ft = FakeTime()
        bucket = ft.bucket(rate=1, burst=1)
        assert bucket.acquire(0)
        assert bucket.available == 1

    def test_interrupt_cuts_the_sleep_short(self):
        bucket = TokenBucket(rate=2, burst=1)
        assert bucket.acquire(1)
        stop = threading.Event()
        stop.set()
        start = time.monotonic()
        assert bucket.acquire(1, interrupt=stop)  # 0.5s wait skipped
        assert time.monotonic() - start < 0.25

    def test_concurrent_acquires_converge_to_rate(self):
        bucket = TokenBucket(rate=200, burst=1)
        done = []

        def worker():
            for _ in range(10):
                assert bucket.acquire(1)
            done.append(1)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        start = time.monotonic()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.monotonic() - start
        # 40 ops minus the 1-token burst at 200/s: >= ~0.19s of pacing.
        assert len(done) == 4
        assert elapsed >= 0.15
