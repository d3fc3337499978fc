"""AsyncIOEngine: the deadline rounds behind every io_workers > 0 store.

Pins the DESIGN.md §13 contract on a virtual clock (the engine's
module-level ``_monotonic``/``_sleep``), so nothing here really sleeps:
a round issues every request at once, sleeps once per distinct
deadline, completes requests as their deadlines pass (ties in issue
order) with results in input order; ``map`` fails fast and closes the
siblings not yet completed, ``map_settle`` returns every outcome,
``submit_each`` issues now and completes when its handles are settled;
the in-flight window and the per-destination cap issue in waves; a
chunked request keeps its slot; an interrupt releases every slot; and
a store runs on its callers' threads with no event loop.  The chaos
cases kill a provider or a bucket between a request's issue and its
deadline.
"""

import subprocess
import sys
import threading
from concurrent.futures import CancelledError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.blob import AsyncIOEngine, LocalBlobStore, StoreConfig
from repro.blob import async_engine
from repro.dht.store import MISSING, DhtStore
from repro.errors import ProviderUnavailable


class VirtualClock:
    """The engine's clock and wait: a sleep advances virtual time and
    fires the alarms it passes."""

    def __init__(self):
        self.now = 0.0
        self.sleeps: list[float] = []
        self.alarms: list[tuple[float, object]] = []

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        target = self.now + seconds
        for alarm in sorted(self.alarms, key=lambda a: a[0]):
            when, action = alarm
            if when <= target:
                self.alarms.remove(alarm)
                self.now = max(self.now, when)
                action()
        self.now = target

    def at(self, when: float, action) -> None:
        """Run *action* once virtual time reaches *when* in a sleep."""
        self.alarms.append((when, action))


@pytest.fixture
def clock(monkeypatch):
    virtual = VirtualClock()
    monkeypatch.setattr(async_engine, "_monotonic", virtual.monotonic)
    monkeypatch.setattr(async_engine, "_sleep", virtual.sleep)
    return virtual


@pytest.fixture
def engine(clock):
    eng = AsyncIOEngine(max_in_flight=64, helpers=2)
    yield eng
    eng.shutdown()


def after(delay, value=None, log=None, issued=None):
    """A request of one issue: *delay*, then complete with *value*."""
    if issued is not None:
        issued.append(value)
    yield delay
    if log is not None:
        log.append(value)
    return value


def failing(delay, exc, log=None):
    """A request whose completion raises *exc* after *delay*."""
    yield delay
    if log is not None:
        log.append(exc)
    raise exc


def window_is_free(eng):
    return eng._free == eng.max_in_flight and not any(eng._busy.values())


class TestRound:
    def test_results_in_input_order(self, engine, clock):
        assert engine.map(lambda x: after(0.002, x * 2), range(50)) == [x * 2 for x in range(50)]
        assert clock.sleeps == [pytest.approx(0.002)]

    def test_a_round_sleeps_once_however_many_requests(self, engine, clock):
        engine.map(lambda x: after(0.002, x), range(16))
        assert len(clock.sleeps) == 1
        assert clock.now == pytest.approx(0.002)

    def test_unequal_delays_complete_as_their_deadlines_pass(self, engine, clock):
        log = []
        delays = {"slow": 0.003, "fast": 0.001, "mid": 0.002}
        out = engine.map(lambda name: after(delays[name], name, log), ["slow", "fast", "mid"])
        assert out == ["slow", "fast", "mid"]
        assert log == ["fast", "mid", "slow"]
        assert clock.sleeps == [pytest.approx(0.001)] * 3

    def test_ties_complete_in_issue_order(self, engine, clock):
        log = []
        engine.map(lambda x: after(0.002, x, log), range(10))
        assert log == list(range(10))

    def test_zero_delays_never_sleep(self, engine, clock):
        assert engine.map(lambda x: after(0, x), range(5)) == list(range(5))
        assert clock.sleeps == []

    def test_empty_items(self, engine, clock):
        assert engine.map(lambda x: after(1, x), []) == []
        assert engine.map_settle(lambda x: after(1, x), []) == []
        assert engine.submit_each(lambda x: after(1, x), []) == []

    def test_a_request_finished_at_its_issue(self, engine, clock):
        def immediate(x):
            return x + 1
            yield  # pragma: no cover - makes this a request

        assert engine.map(immediate, [1, 2]) == [2, 3]
        assert clock.sleeps == []

    def test_afn_is_refused_and_none_accepted(self, engine, clock):
        assert engine.map(lambda x: after(0, x), [1], afn=None) == [1]
        with pytest.raises(TypeError, match="afn"):
            engine.map(lambda x: after(0, x), [1], afn=lambda x: x)


class TestFailFast:
    def test_an_issue_error_is_raised(self, engine, clock):
        log = []

        def request(x):
            if x == 2:
                raise ProviderUnavailable("down at issue")
            return after(0.001, x, log)

        with pytest.raises(ProviderUnavailable, match="down at issue"):
            engine.map(request, range(5))
        assert log == []  # the issued siblings never complete
        assert window_is_free(engine)

    def test_first_error_closes_the_siblings_not_completed(self, engine, clock):
        log, closed = [], []

        def sibling(x):
            try:
                yield 0.005
                log.append(x)
            finally:
                closed.append(x)

        def request(x):
            return failing(0.001, ValueError("x0")) if x == 0 else sibling(x)

        with pytest.raises(ValueError, match="x0"):
            engine.map(request, range(40))
        # Closed at their issue, not waited out: the round ends at the
        # first deadline.
        assert clock.now == pytest.approx(0.001)
        assert log == [] and sorted(closed) == list(range(1, 40))
        assert window_is_free(engine)
        snap = engine.stats.snapshot()
        assert snap["tasks_started"] == snap["tasks_finished"] == 40

    def test_siblings_completed_before_the_error_stay_completed(self, engine, clock):
        log = []
        delays = [0.001, 0.002, 0.003]

        def request(x):
            if x == 1:
                return failing(delays[x], RuntimeError("second dies"))
            return after(delays[x], x, log)

        with pytest.raises(RuntimeError):
            engine.map(request, range(3))
        assert log == [0]

    def test_an_error_at_a_tie_stops_the_tied_siblings_behind_it(self, engine, clock):
        log = []

        def request(x):
            return failing(0.001, KeyError("k")) if x == 3 else after(0.001, x, log)

        with pytest.raises(KeyError):
            engine.map(request, range(8))
        assert log == [0, 1, 2]  # issue order up to the failure


class TestMapSettle:
    def test_pairs_in_order_never_fail_fast(self, engine, clock):
        def request(x):
            return failing(0.001, KeyError("one")) if x == 1 else after(0.002, x * 10)

        pairs = engine.map_settle(request, [0, 1, 2])
        assert pairs[0] == (0, None)
        assert pairs[2] == (20, None)
        assert isinstance(pairs[1][1], KeyError)

    def test_an_error_does_not_cancel_siblings(self, engine, clock):
        log = []

        def request(x):
            if x == 0:
                return failing(0.001, RuntimeError("early"))
            return after(0.002, x, log)

        pairs = engine.map_settle(request, range(8))
        assert isinstance(pairs[0][1], RuntimeError)
        assert log == list(range(1, 8))

    def test_an_issue_error_settles_that_item_only(self, engine, clock):
        def request(x):
            if x == 1:
                raise ProviderUnavailable("bucket down")
            return after(0.001, x)

        pairs = engine.map_settle(request, range(3))
        assert [value for value, _ in pairs] == [0, None, 2]
        assert isinstance(pairs[1][1], ProviderUnavailable)

    def test_a_base_exception_cancels_the_rest_and_escapes(self, engine, clock):
        log = []

        def request(x):
            return failing(0.001, KeyboardInterrupt()) if x == 0 else after(0.002, x, log)

        with pytest.raises(KeyboardInterrupt):
            engine.map_settle(request, range(4))
        assert log == []
        assert window_is_free(engine)


class TestInterrupts:
    def test_an_interrupt_during_the_wait_releases_every_slot(self, monkeypatch):
        def interrupted(_seconds):
            raise KeyboardInterrupt

        monkeypatch.setattr(async_engine, "_sleep", interrupted)
        log = []
        with AsyncIOEngine(max_in_flight=8, per_dest=2) as eng:
            with pytest.raises(KeyboardInterrupt):
                eng.map(lambda x: after(0.001, x, log), range(6), dest=lambda x: x % 3)
            assert log == []  # no issued request completed
            assert window_is_free(eng)
            assert eng.stats.snapshot()["in_flight"] == 0
            # The window is whole again: a new round gets every slot.
            monkeypatch.setattr(async_engine, "_sleep", lambda s: None)
            assert eng.map(lambda x: after(0.001, x), range(8)) == list(range(8))

    def test_an_interrupt_at_an_issue_releases_the_wave(self, engine, clock):
        def request(x):
            if x == 2:
                raise KeyboardInterrupt
            return after(0.001, x)

        with pytest.raises(KeyboardInterrupt):
            engine.map(request, range(5))
        assert window_is_free(engine)

    def test_an_interrupted_handle_settles_every_sibling_as_cancelled(self, monkeypatch):
        calls = []

        def interrupt_once(_seconds):
            calls.append(_seconds)
            if len(calls) == 1:
                raise KeyboardInterrupt

        monkeypatch.setattr(async_engine, "_sleep", interrupt_once)
        log = []
        with AsyncIOEngine(max_in_flight=4) as eng:
            handles = eng.submit_each(lambda x: after(0.001, x, log), range(3))
            with pytest.raises(KeyboardInterrupt):
                handles[0].result()
            for handle in handles:
                with pytest.raises(CancelledError):
                    handle.result()
            assert log == []
            assert window_is_free(eng)
            assert eng._own.rounds == []


class TestWindow:
    def test_a_small_window_issues_in_waves(self, clock):
        with AsyncIOEngine(max_in_flight=4) as eng:
            assert eng.map(lambda x: after(0.001, x), range(10)) == list(range(10))
            snap = eng.stats.snapshot()
        assert len(clock.sleeps) == 3  # waves of 4, 4, 2
        assert snap["in_flight_hwm"] == 4
        assert snap["tasks_started"] == snap["tasks_finished"] == 10

    def test_per_dest_cap_issues_a_hot_destination_in_waves(self, clock):
        live = {"hot": 0, "cold": 0}
        peak = {"hot": 0, "cold": 0}

        def request(key):
            live[key] += 1
            peak[key] = max(peak[key], live[key])
            yield 0.001
            live[key] -= 1
            return key

        items = ["hot"] * 6 + ["cold"] * 2
        with AsyncIOEngine(max_in_flight=1024, per_dest=2) as eng:
            assert eng.map(request, items, dest=lambda key: key) == items
        assert peak == {"hot": 2, "cold": 2}
        assert len(clock.sleeps) == 3  # the hot destination's 6 in 3 waves

    def test_without_a_dest_key_the_cap_is_not_applied(self, clock):
        with AsyncIOEngine(max_in_flight=1024, per_dest=2) as eng:
            eng.map(lambda x: after(0.001, x), range(16))
            assert eng.stats.snapshot()["in_flight_hwm"] == 16
        assert len(clock.sleeps) == 1

    def test_a_full_destination_does_not_hold_up_the_others(self, clock):
        log = []
        with AsyncIOEngine(max_in_flight=1024, per_dest=1) as eng:
            eng.map(lambda x: after(0.001, x, log), ["a", "a", "b", "c"], dest=lambda x: x)
        assert log == ["a", "b", "c", "a"]

    def test_queue_wait_is_recorded_when_the_window_is_full(self, clock):
        with AsyncIOEngine(max_in_flight=1) as eng:
            eng.map(lambda x: after(0.002, x), range(5))
            snap = eng.stats.snapshot()
        # Waves 2..5 waited 2, 4, 6 and 8 ms from the round's start.
        assert snap["queue_wait_total"] == pytest.approx(0.020)
        assert snap["queue_wait_max"] == pytest.approx(0.008)

    def test_a_first_wave_the_window_admits_waits_nothing(self, engine, clock):
        engine.map(lambda x: after(0.002, x), range(16))
        assert engine.stats.snapshot()["queue_wait_total"] == 0

    def test_a_round_settles_its_own_threads_pending_scatter_first(self, clock):
        # Both slots are held by this thread's overlapped scatter; a
        # round that waited for them would wait forever.
        log = []
        with AsyncIOEngine(max_in_flight=2) as eng:
            handles = eng.submit_each(lambda x: after(0.001, x, log), ["s0", "s1"])
            assert eng.map(lambda x: after(0.001, x, log), ["m0", "m1"]) == ["m0", "m1"]
            assert log == ["s0", "s1", "m0", "m1"]
            assert [h.result() for h in handles] == ["s0", "s1"]
            assert eng._own.rounds == []
            assert window_is_free(eng)

    def test_pending_rounds_of_one_thread_never_wait_on_each_other(self, clock):
        log = []
        with AsyncIOEngine(max_in_flight=1) as eng:
            first = eng.submit_each(lambda x: after(0.001, x, log), ["a"])
            second = eng.submit_each(lambda x: after(0.001, x, log), ["b", "c"])
            assert [h.result() for h in second] == ["b", "c"]  # settles `first` on the way
            assert first[0].result() == "a"
            assert log == ["a", "b", "c"]
            assert eng._own.rounds == [] and window_is_free(eng)

    def test_a_round_waits_for_slots_another_thread_holds(self):
        # Zero delays: the only wait is for the window, on its condition.
        class Watched(threading.Condition):
            parked = threading.Event()

            def wait(self, timeout=None):
                self.parked.set()
                return super().wait(timeout)

        with AsyncIOEngine(max_in_flight=2) as eng:
            eng._window = Watched(threading.Lock())
            handles = eng.submit_each(lambda x: after(0, x), [0, 1])
            out = {}

            def other():
                out["map"] = eng.map(lambda x: after(0, x), ["x", "y"])

            thread = threading.Thread(target=other)
            thread.start()
            assert Watched.parked.wait(10)  # parked: the window is full
            assert "map" not in out
            assert [h.result() for h in handles] == [0, 1]  # frees it
            thread.join(10)
            assert out["map"] == ["x", "y"]
            assert eng.stats.snapshot()["queue_wait_total"] > 0
            assert window_is_free(eng)


def chunks(count, delay, tag, log):
    """A request of *count* chunks sent one after another."""
    for k in range(count):
        yield delay
        log.append((tag, k))
    return tag


class TestChunks:
    def test_the_next_chunk_is_issued_when_the_last_completes(self, engine, clock):
        log = []

        def request(tag):
            return chunks(3 if tag == "long" else 1, 0.001, tag, log)

        assert engine.map(request, ["long", "short"]) == ["long", "short"]
        assert log == [("long", 0), ("short", 0), ("long", 1), ("long", 2)]
        assert clock.now == pytest.approx(0.003)
        snap = engine.stats.snapshot()
        assert snap["tasks_started"] == snap["tasks_finished"] == 4  # chunks count
        assert snap["in_flight_hwm"] == 2

    def test_a_chunked_request_keeps_its_slot(self, clock):
        log = []
        with AsyncIOEngine(max_in_flight=1) as eng:
            eng.map(
                lambda tag: chunks(3 if tag == "long" else 1, 0.001, tag, log), ["long", "next"]
            )
        assert log == [("long", 0), ("long", 1), ("long", 2), ("next", 0)]
        assert clock.now == pytest.approx(0.004)

    def test_a_sibling_failure_stops_a_drained_requests_next_chunk(self, engine, clock):
        log = []

        def request(tag):
            if tag == "dies":
                return failing(0.001, ProviderUnavailable("gone"))
            return chunks(3, 0.002, tag, log)

        handles = engine.submit_each(request, ["dies", "long"])
        with pytest.raises(ProviderUnavailable):
            handles[0].result()
        with pytest.raises(CancelledError):
            handles[1].result()
        assert log == [("long", 0)]  # its first chunk drained, no second issued
        assert window_is_free(engine)


class TestSubmitEach:
    def test_handles_return_the_results(self, engine, clock):
        handles = engine.submit_each(lambda x: after(0.001, x * 3), range(8))
        assert [h.result() for h in handles] == [x * 3 for x in range(8)]

    def test_requests_are_issued_at_once_and_completed_on_settle(self, engine, clock):
        issued, log = [], []
        handles = engine.submit_each(lambda x: after(0.002, x, log, issued), range(4))
        assert issued == [0, 1, 2, 3] and log == []
        assert engine._own.rounds != []
        handles[1].result()
        # Every request due by then completes, ties in issue order.
        assert log == [0, 1, 2, 3]
        assert engine._own.rounds == []
        assert [h.result() for h in handles] == [0, 1, 2, 3]

    def test_settling_waits_out_only_the_rest_of_the_deadline(self, engine, clock):
        handles = engine.submit_each(lambda x: after(0.002, x), [0])
        clock.now += 0.0015  # the caller's own work overlaps the delay
        handles[0].result()
        assert clock.sleeps == [pytest.approx(0.0005)]

    def test_an_overlapped_round_shares_the_wall_clock(self, engine, clock):
        handles = engine.submit_each(lambda x: after(0.002, x), range(4))
        engine.map(lambda x: after(0.002, x), range(4))  # issued after, same deadline
        [h.result() for h in handles]
        assert clock.now == pytest.approx(0.002)

    def test_first_error_cancels_the_unissued_siblings(self, clock):
        # One slot: the siblings wait unissued behind the failing one.
        # A doomed scatter must not then pay for them one after another.
        log = []

        def request(x):
            if x == 0:
                return failing(0.05, RuntimeError("scatter target died"))
            return after(0.05, x, log)

        with AsyncIOEngine(max_in_flight=1) as eng:
            handles = eng.submit_each(request, range(8))
            with pytest.raises(RuntimeError, match="scatter target died"):
                handles[0].result()
            for handle in handles[1:]:
                with pytest.raises(CancelledError):
                    handle.result()
            assert window_is_free(eng)
        assert log == []
        assert clock.now == pytest.approx(0.05)

    def test_issued_siblings_drain_after_an_error(self, engine, clock):
        log = []

        def request(x):
            return failing(0.001, RuntimeError("first")) if x == 0 else after(0.002, x, log)

        handles = engine.submit_each(request, range(4))
        with pytest.raises(RuntimeError):
            handles[0].result()
        assert [h.result() for h in handles[1:]] == [1, 2, 3]
        assert log == [1, 2, 3]

    def test_stats_balance_without_a_helper_thread(self, engine, clock):
        for handle in engine.submit_each(lambda i: after(0.001, i), range(6)):
            handle.result()
        snap = engine.stats.snapshot()
        assert snap["tasks_started"] == snap["tasks_finished"] == 6
        assert snap["in_flight"] == 0
        assert snap["threads_started"] == 0  # rounds run on the caller


class TestHelpers:
    def test_submit_runs_on_a_helper_thread(self, engine):
        assert engine.submit(threading.get_ident).result() != threading.get_ident()

    def test_submit_forwards_args_and_kwargs(self, engine):
        assert engine.submit(sum, (1, 2, 3)).result() == 6
        assert engine.submit(int, "ff", base=16).result() == 255

    def test_helpers_start_lazily(self, engine):
        assert engine.stats.snapshot()["threads_started"] == 0
        engine.submit(lambda: None).result()
        assert engine.stats.snapshot()["threads_started"] == 1

    def test_map_not_stalled_by_busy_helpers(self, clock):
        # Read-ahead parked on every helper thread must not stall a
        # scatter-gather: rounds run on their callers.
        release = threading.Event()
        with AsyncIOEngine(max_in_flight=8, helpers=1) as eng:
            blocker = eng.submit(release.wait, 10)
            result = eng.map(lambda x: after(0.001, x + 1), range(16))
            release.set()
            blocker.result(timeout=10)
        assert result == list(range(1, 17))

    def test_a_nested_round_runs_on_the_helper_thread(self, engine, clock):
        def request(x):
            yield 0
            return threading.get_ident()

        def task():
            return engine.map(request, range(2)), threading.get_ident()

        idents, helper = engine.submit(task).result()
        assert idents == [helper, helper]
        assert helper != threading.get_ident()


class TestStats:
    def test_counters_balance_and_thread_count_stays_small(self, engine, clock):
        engine.map(lambda x: after(0.001, x), range(200))
        engine.submit(lambda: None).result()
        snap = engine.stats.snapshot()
        assert snap["tasks_started"] == snap["tasks_finished"] == 201
        assert snap["in_flight"] == 0
        assert snap["in_flight_hwm"] == 64  # the window
        assert snap["threads_started"] <= 2  # helpers only, never per request

    def test_reset_keeps_the_thread_count(self, engine):
        engine.submit(lambda: None).result()
        engine.stats.reset()
        snap = engine.stats.snapshot()
        assert snap["tasks_started"] == 0
        assert snap["threads_started"] == 1

    def test_reset_under_a_running_helper_keeps_the_gauge(self, engine):
        # A reset between a set-up and a measured phase can land while a
        # read-ahead task runs: zeroing the gauge sent it to -1 when the
        # task finished and hid it from the next high-water mark.
        started, release = threading.Event(), threading.Event()

        def park():
            started.set()
            assert release.wait(5)

        future = engine.submit(park)
        assert started.wait(5)
        engine.stats.reset()
        release.set()
        future.result(timeout=5)
        snap = engine.stats.snapshot()
        assert snap["in_flight"] == 0
        assert snap["in_flight_hwm"] >= 1

    def test_reset_under_an_issued_request_keeps_the_gauge(self, engine, clock):
        [handle] = engine.submit_each(lambda x: after(0.001, x), [None])
        engine.stats.reset()
        handle.result()
        snap = engine.stats.snapshot()
        assert snap["in_flight"] == 0
        assert snap["in_flight_hwm"] == 1


class TestLifecycle:
    def test_shutdown_is_idempotent_and_rejects_new_work(self):
        eng = AsyncIOEngine(max_in_flight=8)
        eng.shutdown()
        eng.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            eng.map(lambda x: after(0, x), [1])
        with pytest.raises(RuntimeError, match="shut down"):
            eng.submit_each(lambda x: after(0, x), [1])
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

    def test_context_manager(self, clock):
        with AsyncIOEngine(max_in_flight=8) as eng:
            assert eng.map(lambda x: after(0, x), [1, 2]) == [1, 2]
        with pytest.raises(RuntimeError):
            eng.map(lambda x: after(0, x), [1])

    def test_a_store_starts_no_event_loop_and_no_thread(self, clock):
        before = {thread.ident for thread in threading.enumerate()}
        config = StoreConfig(
            data_providers=8, block_size=512, provider_latency=0.002, io_workers=4
        )
        with LocalBlobStore(config=config) as store:
            blob = store.create()
            data = bytes(range(256)) * 32
            store.append(blob, data)
            assert store.read(blob) == data
            started = [t for t in threading.enumerate() if t.ident not in before]
            assert started == []
            assert not hasattr(store.io_engine, "_loop")
            assert store.io_engine.stats.snapshot()["threads_started"] == 0
        assert clock.now > 0  # the provider latency was waited out virtually

    def test_importing_the_package_does_not_import_asyncio(self):
        probe = (
            "import sys, repro, repro.blob, repro.bsfs, repro.mapreduce, repro.gateway\n"
            "from repro.blob import LocalBlobStore, StoreConfig\n"
            "with LocalBlobStore(config=StoreConfig(io_workers=2, overlap_publish=True)) as s:\n"
            "    b = s.create()\n"
            "    s.append(b, bytes(1 << 16))\n"
            "    assert s.read(b) == bytes(1 << 16)\n"
            "print('asyncio' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestStoreIntegration:
    @pytest.mark.parametrize("max_in_flight", [1, 64, 4096])
    @pytest.mark.parametrize("providers", [2, 4, 8, 16])
    def test_store_gather_is_one_request_per_provider(self, clock, providers, max_in_flight):
        # A many-block read on the engine: one request per provider
        # vector (not per block), their latencies waited out together
        # within the window, and never a thread.  One metadata bucket
        # keeps the descent off the engine, so every request counted is
        # a gather vector.
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
            clock.sleeps.clear()
            assert store.read(blob, 0, len(data), version=version) == data
            snap = store.io_engine.stats.snapshot()
            # Round-robin placement of 64 blocks touches every provider.
            assert snap["tasks_started"] == len(vectors) == providers
            assert snap["threads_started"] == 0
            assert snap["in_flight_hwm"] == min(max_in_flight, providers)
            assert snap["in_flight"] == 0
            waves = -(-providers // max_in_flight)
            assert clock.sleeps == [pytest.approx(0.001)] * waves

    def test_store_write_failure_rolls_back(self, clock):
        config = StoreConfig(data_providers=4, block_size=1024, replication=2, io_workers=2)
        with LocalBlobStore(config=config) as store:
            blob = store.create(block_size=1024)
            store.append(blob, b"a" * 4096)
            baseline = store.provider_block_counts()
            store.providers["provider-001"].fail()
            with pytest.raises(ProviderUnavailable):
                store.append(blob, b"b" * 4096)
            store.providers["provider-001"].recover()
            assert store.provider_block_counts() == baseline


#: Per request: delay (ms), chunks, whether its last chunk fails, destination.
REQUESTS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(1, 3), st.booleans(), st.integers(0, 2)),
    min_size=1,
    max_size=12,
)


class TestAnyRound:
    """Whatever the delays, chunks, failures, window and per-destination
    cap: every request settles, the window and the per-destination
    caps hold at every instant, and the window is whole afterwards."""

    @given(
        specs=REQUESTS,
        window=st.integers(1, 8),
        per_dest=st.integers(0, 3),
        mode=st.sampled_from(["map", "map_settle", "submit_each"]),
    )
    def test_every_request_settles_within_the_window(self, specs, window, per_dest, mode):
        virtual = VirtualClock()
        live, peak, done = {}, {"all": 0}, {}

        def request(index):
            delay, count, fails, dest = specs[index]
            for k in range(count):
                live[dest] = live.get(dest, 0) + 1
                peak["all"] = max(peak["all"], sum(live.values()))
                peak[dest] = max(peak.get(dest, 0), live[dest])
                try:
                    yield delay / 1000
                finally:
                    live[dest] -= 1
                if fails and k == count - 1:
                    raise ValueError(index)
            done[index] = virtual.now
            return index

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(async_engine, "_monotonic", virtual.monotonic)
            patch.setattr(async_engine, "_sleep", virtual.sleep)
            with AsyncIOEngine(max_in_flight=window, per_dest=per_dest) as eng:
                items, dest = range(len(specs)), lambda index: specs[index][3]
                if mode == "map":
                    try:
                        out = eng.map(request, items, dest=dest)
                    except ValueError as exc:
                        assert specs[exc.args[0]][2]  # a request that fails
                    else:
                        assert out == list(items)
                else:
                    if mode == "map_settle":
                        pairs = eng.map_settle(request, items, dest=dest)
                    else:
                        pairs = []
                        for handle in eng.submit_each(request, items, dest=dest):
                            try:
                                pairs.append((handle.result(), None))
                            except (ValueError, CancelledError) as exc:
                                pairs.append((None, exc))
                    for index, (value, error) in enumerate(pairs):
                        if index in done:
                            assert value == index and error is None
                        else:
                            assert error is not None
                    if mode == "map_settle":  # nothing is cancelled
                        assert set(done) == {i for i, spec in enumerate(specs) if not spec[2]}
                snap = eng.stats.snapshot()
                assert window_is_free(eng) and eng._own.rounds == []
                assert snap["tasks_started"] == snap["tasks_finished"]
                assert snap["in_flight"] == 0
        assert not any(live.values())  # every issued request completed or was closed
        assert peak["all"] <= window
        if per_dest:
            assert all(peak.get(dest, 0) <= per_dest for dest in range(3))


class TestThreadStress:
    """Rounds of many threads share one window and the buckets' check-
    and-put; with a tiny switch interval a lost update shows up as a
    slot never returned, a cap exceeded, or a key stored twice."""

    def test_threads_share_the_window_without_losing_a_slot(self):
        live, peak, lock = {}, {"all": 0}, threading.Lock()

        def request(item):
            thread, k = item
            dest = k % 3
            with lock:
                live[dest] = live.get(dest, 0) + 1
                peak["all"] = max(peak["all"], sum(live.values()))
                peak[dest] = max(peak.get(dest, 0), live[dest])
            try:
                yield 0
            finally:
                with lock:
                    live[dest] -= 1
            return item

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with AsyncIOEngine(max_in_flight=4, per_dest=2) as eng:
                results, errors = {}, []

                def client(thread):
                    try:
                        for round_ in range(20):
                            items = [(thread, k) for k in range(round_ % 7 + 1)]
                            if round_ % 2:
                                got = eng.map(request, items, dest=lambda item: item[1] % 3)
                            else:
                                handles = eng.submit_each(
                                    request, items, dest=lambda item: item[1] % 3
                                )
                                got = [handle.result() for handle in handles]
                            assert got == items
                            results[thread] = results.get(thread, 0) + 1
                    except BaseException as exc:  # reported below
                        errors.append(exc)

                threads = [threading.Thread(target=client, args=(t,)) for t in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                assert results == {t: 20 for t in range(6)}
                assert window_is_free(eng)
                snap = eng.stats.snapshot()
                assert snap["tasks_started"] == snap["tasks_finished"]
                assert snap["in_flight"] == 0
        finally:
            sys.setswitchinterval(interval)
        assert peak["all"] <= 4
        assert all(peak.get(dest, 0) <= 2 for dest in range(3))

    def test_racing_conditional_puts_store_one_value_per_key(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with AsyncIOEngine(max_in_flight=8, per_dest=4) as eng:
                dht = DhtStore(["b0", "b1", "b2", "b3"], replication=2, engine=eng)
                keys = [f"k{i}" for i in range(30)]
                conflicts, errors = {}, []

                def writer(tag):
                    try:
                        result = dht.multi_put([(k, tag) for k in keys], conditional=True)
                        conflicts[tag] = result.conflicts
                    except BaseException as exc:  # reported below
                        errors.append(exc)

                threads = [threading.Thread(target=writer, args=(t,)) for t in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30)
                assert not any(thread.is_alive() for thread in threads) and errors == []
                replicas = dht.multi_replica_values(keys)
        finally:
            sys.setswitchinterval(interval)
        for key in keys:
            # The replicas agree: a writer that met a conflict withdrew
            # what it stored, so what is left is the one conflict-free
            # writer's value, or nothing if every writer met one.
            (held,) = set(replicas[key].values())
            clean = [t for t in range(6) if key not in conflicts[t]]
            assert clean == ([] if held is MISSING else [held])


def chaos_store(overlap, **kwargs):
    """Four providers of unequal latency (1, 2, 3, 4 ms), on the engine."""
    config = StoreConfig(
        data_providers=4,
        metadata_providers=2,
        block_size=16,
        io_workers=2,
        overlap_publish=overlap,
        **kwargs,
    )
    store = LocalBlobStore(config=config)
    for k, provider in enumerate(store.providers.values()):
        provider.latency = 0.001 * (k + 1)
    return store


class TestDeathBetweenIssueAndDeadline:
    """A destination that passes its request's issue and dies before the
    deadline fails at completion, as one dying during ``asyncio.sleep``
    used to."""

    @pytest.mark.parametrize("overlap", [False, True], ids=["map", "overlapped"])
    def test_the_scatter_rolls_back_exactly_what_landed(self, clock, overlap):
        store = chaos_store(overlap)
        blob = store.create()
        store.append(blob, bytes(16 * 4))
        baseline = store.provider_block_counts()
        names = list(store.providers)
        landed = []
        for name in names:
            provider = store.providers[name]

            def put_vector(items, into, _real=provider._put_vector, _name=name):
                _real(items, into)
                landed.append(_name)

            provider._put_vector = put_vector
        # provider-001 (2 ms) dies at 1.5 ms, after provider-000 landed.
        clock.at(clock.now + 0.0015, lambda: setattr(store.providers[names[1]], "online", False))
        with pytest.raises(ProviderUnavailable):
            store.append(blob, bytes(range(16 * 4)))
        # The map scatter never completes the vectors behind the
        # failure; the overlapped one drains the issued ones.  Either
        # way the rollback deletes exactly what landed.
        expected = [names[0]] if not overlap else [names[0], names[2], names[3]]
        assert landed == expected
        store.providers[names[1]].online = True
        assert store.provider_block_counts() == baseline
        assert store.provider_manager.block_counts() == store.provider_block_counts()
        assert store.read(blob, version=1) == bytes(16 * 4)
        store.close()

    def test_the_gather_fails_over_to_the_next_replica(self, clock):
        store = chaos_store(False, replication=2)
        blob = store.create()
        data = bytes(range(64))
        store.append(blob, data)
        first = store.block_locations(blob, 0, 16)[0].providers[0]
        failed = []
        victim = store.providers[first]
        real = victim._get_vector

        def get_vector(block_ids):
            try:
                return real(block_ids)
            except ProviderUnavailable:
                failed.append(first)
                raise

        victim._get_vector = get_vector
        clock.at(clock.now + 0.0005, lambda: setattr(victim, "online", False))
        assert store.read(blob) == data
        assert failed == [first]  # it passed the issue and died by the deadline
        store.close()

    def test_a_dying_bucket_fails_its_keys_over(self, clock):
        with AsyncIOEngine(max_in_flight=64, per_dest=8) as eng:
            dht = DhtStore(["b0", "b1", "b2", "b3"], replication=2, latency=0.001, engine=eng)
            keys = [f"k{i}" for i in range(40)]
            assert not dht.multi_put([(k, k.upper()) for k in keys]).unstored
            victim = dht.owners(keys[0])[0]
            clock.at(clock.now + 0.0005, lambda: dht.fail_bucket(victim))
            dht.stats.reset()
            assert dht.multi_get(keys) == {k: k.upper() for k in keys}
            assert dht.stats.snapshot()["round_trips"] == 2  # one failover round

    def test_a_conditional_put_withdraws_what_it_stored(self, clock):
        with AsyncIOEngine(max_in_flight=64, per_dest=8) as eng:
            dht = DhtStore(["b0", "b1", "b2", "b3"], replication=3, latency=0.001, engine=eng)
            key = "node"
            first, second, third = dht.owners(key)
            dht.fail_bucket(second)
            dht.fail_bucket(third)
            dht.multi_put([(key, "old")], conditional=True)  # only `first` holds it
            dht.recover_bucket(second)
            dht.recover_bucket(third)
            # `third` passes the issue and dies before its deadline;
            # `second` newly stores the rejected value and must give it back.
            clock.at(clock.now + 0.0005, lambda: dht.fail_bucket(third))
            result = dht.multi_put([(key, "new")], conditional=True)
            assert result.conflicts == {key: "old"}
            assert not result.unstored
            dht.recover_bucket(third)
            assert dht.multi_replica_values([key])[key] == {
                first: "old",
                second: MISSING,
                third: MISSING,
            }
