"""AsyncIOEngine: the I/O engine behind every io_workers > 0 store.

Pins the DESIGN.md §13 contract: in-flight transfers are coroutines on
ONE event loop — results in input order, bounded by the in-flight
window, capped per destination, cancelled together on the first
error, and costing a handful of OS threads no matter how many
transfers are in flight; blocking ``submit`` work runs on helper
threads.
"""

import asyncio
import threading
import time
from concurrent.futures import CancelledError

import pytest

from repro.blob import AsyncIOEngine, LocalBlobStore, StoreConfig


@pytest.fixture
def engine():
    eng = AsyncIOEngine(max_in_flight=64, helpers=2)
    yield eng
    eng.shutdown()


class TestMap:
    def test_results_in_input_order(self, engine):
        assert engine.map(lambda x: x * 2, range(50)) == [x * 2 for x in range(50)]

    def test_awaits_the_async_twin(self, engine):
        calls = []

        async def twin(x):
            await asyncio.sleep(0)
            calls.append(x)
            return x + 100

        assert engine.map(lambda x: x, [1, 2, 3], afn=twin) == [101, 102, 103]
        assert sorted(calls) == [1, 2, 3]

    def test_sync_fn_returning_a_coroutine_is_awaited(self, engine):
        # One plain def returning a coroutine works without afn=.
        async def inner(x):
            await asyncio.sleep(0)
            return -x

        assert engine.map(lambda x: inner(x), [1, 2]) == [-1, -2]

    def test_empty_items(self, engine):
        assert engine.map(lambda x: x, []) == []

    def test_first_error_cancels_the_siblings(self, engine):
        finished = []

        async def twin(x):
            if x == 0:
                raise ValueError("x0")
            await asyncio.sleep(0.05)
            finished.append(x)
            return x

        start = time.perf_counter()
        with pytest.raises(ValueError, match="x0"):
            engine.map(lambda x: x, range(40), afn=twin)
        # The 39 sleeping siblings were cancelled at their await, not
        # drained: the call returns long before their 50 ms elapse.
        assert time.perf_counter() - start < 0.045
        assert finished == []

    def test_sync_fn_error_stops_the_fanout(self, engine):
        # Without afn= the sync fn runs on the loop, one task after the
        # other: the first error cancels every task queued behind it.
        ran = []

        def job(i):
            if i == 3:
                raise ValueError("boom")
            ran.append(i)
            return i

        with pytest.raises(ValueError, match="boom"):
            engine.map(job, range(200))
        assert ran == [0, 1, 2]

    def test_base_exception_escapes(self, engine):
        async def twin(x):
            await asyncio.sleep(0)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            engine.map(lambda x: x, [1], afn=twin)

    def test_in_flight_window_is_enforced(self):
        eng = AsyncIOEngine(max_in_flight=4)
        try:

            async def twin(x):
                await asyncio.sleep(0.002)
                return x

            eng.map(lambda x: x, range(64), afn=twin)
            snap = eng.stats.snapshot()
            assert 1 <= snap["in_flight_hwm"] <= 4
            assert snap["tasks_started"] == snap["tasks_finished"] == 64
        finally:
            eng.shutdown()

    def test_per_dest_cap_serializes_a_hot_destination(self):
        eng = AsyncIOEngine(max_in_flight=1024, per_dest=2)
        try:
            peak = {"hot": 0, "now": 0}
            lock = threading.Lock()

            async def twin(x):
                with lock:
                    peak["now"] += 1
                    peak["hot"] = max(peak["hot"], peak["now"])
                await asyncio.sleep(0.005)
                with lock:
                    peak["now"] -= 1
                return x

            eng.map(lambda x: x, range(16), afn=twin, dest=lambda x: "hot")
            assert peak["hot"] <= 2
            # Without a dest key the same load runs wide open.
            peak["hot"] = peak["now"] = 0
            eng.map(lambda x: x, range(16), afn=twin)
            assert peak["hot"] > 2
        finally:
            eng.shutdown()


class TestMapSettle:
    def test_pairs_in_order_never_fail_fast(self, engine):
        async def twin(x):
            await asyncio.sleep(0)
            if x == 1:
                raise KeyError("one")
            return x * 10

        pairs = engine.map_settle(lambda x: x, [0, 1, 2], afn=twin)
        assert pairs[0] == (0, None)
        assert pairs[2] == (20, None)
        assert isinstance(pairs[1][1], KeyError)

    def test_an_error_does_not_cancel_siblings(self, engine):
        finished = []

        async def twin(x):
            if x == 0:
                raise RuntimeError("early")
            await asyncio.sleep(0.01)
            finished.append(x)
            return x

        pairs = engine.map_settle(lambda x: x, range(8), afn=twin)
        assert isinstance(pairs[0][1], RuntimeError)
        assert sorted(finished) == list(range(1, 8))

    def test_a_base_exception_still_escapes(self, engine):
        # Only Exception settles; an interrupt cancels the rest and
        # reaches the caller.
        async def twin(x):
            await asyncio.sleep(0)
            if x == 0:
                raise KeyboardInterrupt
            await asyncio.sleep(0.05)
            return x

        with pytest.raises(KeyboardInterrupt):
            engine.map_settle(lambda x: x, range(4), afn=twin)

    def test_from_the_loop_thread_runs_inline_and_settles(self, engine):
        def nested(_):
            assert engine.in_worker
            return engine.map_settle(lambda y: 1 // y, [1, 0])

        [pairs] = engine.map(nested, [None])
        assert pairs[0] == (1, None)
        assert isinstance(pairs[1][1], ZeroDivisionError)


class TestSubmitEach:
    def test_returns_settleable_futures(self, engine):
        async def twin(x):
            await asyncio.sleep(0.001)
            return x * 3

        futures = engine.submit_each(lambda x: x, range(8), afn=twin)
        assert [f.result() for f in futures] == [x * 3 for x in range(8)]

    def test_first_error_cancels_unstarted_siblings(self, engine):
        async def twin(x):
            if x == 0:
                raise RuntimeError("first dies")
            await asyncio.sleep(0.05)
            return x

        futures = engine.submit_each(lambda x: x, range(8), afn=twin)
        with pytest.raises(RuntimeError, match="first dies"):
            futures[0].result()
        for future in futures[1:]:
            with pytest.raises((CancelledError, asyncio.CancelledError)):
                future.result()

    def test_a_full_window_is_cancelled_not_drained(self):
        # One slot: the siblings queue behind the failing transfer.  A
        # doomed scatter must not then pay for them one after another.
        finished = []

        async def twin(x):
            await asyncio.sleep(0.05)
            if x == 0:
                raise RuntimeError("scatter target died")
            finished.append(x)
            return x

        with AsyncIOEngine(max_in_flight=1) as eng:
            futures = eng.submit_each(lambda x: x, range(8), afn=twin)
            with pytest.raises(RuntimeError, match="scatter target died"):
                futures[0].result()
            for future in futures[1:]:
                with pytest.raises((CancelledError, asyncio.CancelledError)):
                    future.result()
        assert finished == []

    def test_stats_balance_without_a_helper_thread(self, engine):
        for future in engine.submit_each(lambda i: i, range(6)):
            future.result()
        snap = engine.stats.snapshot()
        assert snap["tasks_started"] == snap["tasks_finished"] == 6
        assert snap["in_flight"] == 0
        # Transfers run on the loop; only submit() starts helpers.
        assert snap["threads_started"] == 1

    def test_rejected_from_the_loop_thread(self, engine):
        def nested(_):
            return engine.submit_each(lambda x: x, [1])

        async def twin(x):
            # Runs ON the loop thread via a sync fn below.
            return x

        with pytest.raises(RuntimeError, match="loop"):
            engine.map(nested, [None])


class TestSubmitAndNesting:
    def test_submit_runs_on_a_helper_thread(self, engine):
        loop_thread = engine._thread.ident
        ident = engine.submit(threading.get_ident).result()
        assert ident != loop_thread
        assert ident != threading.get_ident()

    def test_submit_forwards_args_and_kwargs(self, engine):
        assert engine.submit(sum, (1, 2, 3)).result() == 6
        assert engine.submit(int, "ff", base=16).result() == 255

    def test_map_not_stalled_by_busy_helpers(self):
        # Read-ahead parked on every helper thread must not stall a
        # scatter-gather: transfers run on the loop, not on the helpers.
        release = threading.Event()
        with AsyncIOEngine(max_in_flight=8, helpers=1) as eng:
            blocker = eng.submit(release.wait, 10)
            start = time.perf_counter()
            result = eng.map(lambda x: x + 1, range(16))
            elapsed = time.perf_counter() - start
            release.set()
            blocker.result(timeout=10)
        assert result == list(range(1, 17))
        assert elapsed < 5  # nowhere near the blocker's 10 s wait

    def test_nested_map_from_a_helper_blocks_on_the_loop(self, engine):
        async def twin(x):
            await asyncio.sleep(0.001)
            return x * x

        def task(_):
            return engine.map(lambda x: x * x, range(4), afn=twin)

        assert engine.submit(task, None).result() == [0, 1, 4, 9]

    def test_map_from_the_loop_thread_runs_inline(self, engine):
        # An engine task (sync segment running ON the loop) that fans
        # out again cannot await; the nested map must run inline.
        def nested(_):
            assert engine.in_worker
            return engine.map(lambda y: y + 1, range(3))

        assert engine.map(nested, [None]) == [[1, 2, 3]]

    def test_in_worker_is_loop_thread_only(self, engine):
        assert not engine.in_worker
        assert engine.map(lambda _: engine.in_worker, [None]) == [True]
        assert engine.submit(lambda: engine.in_worker).result() is False


class TestStats:
    def test_counters_balance_and_thread_count_stays_small(self, engine):
        async def twin(x):
            await asyncio.sleep(0.001)
            return x

        engine.map(lambda x: x, range(200), afn=twin)
        engine.submit(lambda: None).result()
        snap = engine.stats.snapshot()
        assert snap["tasks_started"] == snap["tasks_finished"] == 201
        assert snap["in_flight"] == 0
        assert snap["in_flight_hwm"] >= 2
        # Loop thread + at most 2 helpers — never a thread per task.
        assert snap["threads_started"] <= 3

    def test_reset_keeps_the_thread_count(self, engine):
        engine.submit(lambda: None).result()
        engine.stats.reset()
        snap = engine.stats.snapshot()
        assert snap["tasks_started"] == 0
        assert snap["threads_started"] >= 1

    @pytest.mark.parametrize("where", ["helper", "transfer"])
    def test_reset_under_a_running_task_keeps_the_gauge(self, where):
        # A reset between a set-up and a measured phase can land while
        # read-ahead tasks or transfers are live: zeroing the gauge sent
        # it to -1 when they finished and hid them from the next
        # high-water mark.
        eng = AsyncIOEngine(max_in_flight=4)
        started, release = threading.Event(), threading.Event()

        def park():
            started.set()
            assert release.wait(5)

        async def apark(_):
            started.set()
            while not release.is_set():
                await asyncio.sleep(0.001)

        try:
            if where == "helper":
                future = eng.submit(park)
            else:
                [future] = eng.submit_each(lambda _: None, [None], afn=apark)
            assert started.wait(5)
            eng.stats.reset()
            release.set()
            future.result(timeout=5)
            snap = eng.stats.snapshot()
            assert snap["in_flight"] == 0
            assert snap["in_flight_hwm"] >= 1
        finally:
            release.set()
            eng.shutdown()

    def test_queue_wait_is_recorded_when_the_window_is_full(self):
        eng = AsyncIOEngine(max_in_flight=1)
        try:

            async def twin(x):
                await asyncio.sleep(0.002)
                return x

            eng.map(lambda x: x, range(5), afn=twin)
            # 4 tasks waited behind the 1-slot window.
            assert eng.stats.snapshot()["queue_wait_total"] > 0.004
        finally:
            eng.shutdown()


class TestLifecycle:
    def test_shutdown_is_idempotent_and_rejects_new_work(self):
        eng = AsyncIOEngine(max_in_flight=8)
        eng.shutdown()
        eng.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            eng.map(lambda x: x, [1])
        with pytest.raises(RuntimeError, match="shut down"):
            eng.submit(lambda: None)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_in_flight"):
            AsyncIOEngine(max_in_flight=0)
        with pytest.raises(ValueError, match="per_dest"):
            AsyncIOEngine(per_dest=-1)

    def test_store_close_shuts_its_engine_down_once(self):
        store = LocalBlobStore(config=StoreConfig(data_providers=2, io_workers=2))
        engine = store.io_engine
        store.close()
        store.close()
        with pytest.raises(RuntimeError, match="shut down"):
            engine.submit(lambda: None)

    def test_context_manager(self):
        with AsyncIOEngine(max_in_flight=8) as eng:
            assert eng.map(lambda x: x, [1, 2]) == [1, 2]


class TestStoreIntegration:
    @pytest.mark.parametrize("max_in_flight", [1, 64, 4096])
    @pytest.mark.parametrize("providers", [2, 4, 8, 16])
    def test_async_store_gather_uses_few_threads(self, providers, max_in_flight):
        # A many-block read on the engine: one engine task per provider
        # vector (not per block), their simulated latencies interleaved
        # on the loop within the window, and never a thread per task.
        # One metadata bucket keeps the descent off the engine, so every
        # task counted is a gather vector.
        config = StoreConfig(
            data_providers=providers,
            metadata_providers=1,
            block_size=512,
            provider_latency=0.001,
            io_workers=2,
            max_in_flight=max_in_flight,
        )
        with LocalBlobStore(config=config) as store:
            blob = store.create(block_size=512)
            data = bytes(range(256)) * 128  # 32 KiB -> 64 blocks
            version = store.append(blob, data)
            vectors = {
                loc.providers[0]
                for loc in store.block_locations(blob, 0, len(data), version=version)
            }
            store.io_engine.stats.reset()
            assert store.read(blob, 0, len(data), version=version) == data
            snap = store.io_engine.stats.snapshot()
            # Round-robin placement of 64 blocks touches every provider.
            assert snap["tasks_started"] == len(vectors) == providers
            assert snap["threads_started"] <= 8
            assert snap["in_flight_hwm"] <= max_in_flight
            assert snap["in_flight"] == 0

    def test_async_store_write_failure_rolls_back(self):
        config = StoreConfig(
            data_providers=4,
            block_size=1024,
            replication=2,
            io_workers=2,
        )
        with LocalBlobStore(config=config) as store:
            blob = store.create(block_size=1024)
            store.append(blob, b"a" * 4096)
            baseline = {
                name: provider.block_count
                for name, provider in store.providers.items()
            }
            store.providers["provider-001"].fail()
            with pytest.raises(Exception):
                store.append(blob, b"b" * 4096)
            store.providers["provider-001"].recover()
            # No orphaned replicas from the failed scatter.
            for name, provider in store.providers.items():
                assert provider.block_count == baseline[name]
