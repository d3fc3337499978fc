"""Unit tests for Resource / Store synchronization primitives."""

import pytest

from repro.errors import SimulationError
from repro.simulation import Engine
from repro.simulation.resources import Resource, Store


@pytest.fixture
def engine():
    return Engine()


class TestResource:
    def test_capacity_validation(self, engine):
        with pytest.raises(ValueError):
            Resource(engine, capacity=0)

    def test_immediate_grant_within_capacity(self, engine):
        res = Resource(engine, capacity=2)

        def proc():
            r1 = yield from res.acquire()
            r2 = yield from res.acquire()
            assert engine.now == 0.0
            # Both slots are held: a third request waits.
            assert not res.request().triggered
            res.release(r1)
            res.release(r2)
            return engine.now

        assert engine.run(engine.process(proc())) == 0.0

    def test_fifo_queueing_serializes(self, engine):
        res = Resource(engine, capacity=1)
        log = []

        def worker(i):
            req = yield from res.acquire()
            log.append(("got", i, engine.now))
            yield engine.timeout(2)
            res.release(req)

        for i in range(3):
            engine.process(worker(i))
        engine.run()
        assert log == [("got", 0, 0.0), ("got", 1, 2.0), ("got", 2, 4.0)]

    def test_capacity_two_parallelism(self, engine):
        res = Resource(engine, capacity=2)
        finish_times = []

        def worker():
            req = yield from res.acquire()
            yield engine.timeout(3)
            res.release(req)
            finish_times.append(engine.now)

        for _ in range(4):
            engine.process(worker())
        engine.run()
        assert finish_times == [3.0, 3.0, 6.0, 6.0]

    def test_release_pending_request_cancels(self, engine):
        res = Resource(engine, capacity=1)

        def holder():
            req = yield from res.acquire()
            yield engine.timeout(10)
            res.release(req)

        engine.process(holder())

        def impatient():
            yield engine.timeout(1)
            req = res.request()  # queued behind holder
            assert not req.triggered
            res.release(req)  # give up before grant

        def latecomer():
            yield engine.timeout(2)
            yield res.request()
            return engine.now

        engine.process(impatient())
        # The holder's slot passes to the latecomer, not the cancelled request.
        assert engine.run(engine.process(latecomer())) == 10.0

    def test_release_foreign_request_rejected(self, engine):
        res1, res2 = Resource(engine), Resource(engine)
        req = res1.request()
        with pytest.raises(SimulationError):
            res2.release(req)


class TestStore:
    def test_put_then_get(self, engine):
        store = Store(engine)

        def proc():
            yield store.put("a")
            yield store.put("b")
            first = yield store.get()
            second = yield store.get()
            return (first, second)

        assert engine.run(engine.process(proc())) == ("a", "b")

    def test_get_blocks_until_put(self, engine):
        store = Store(engine)

        def consumer():
            item = yield store.get()
            return (item, engine.now)

        p = engine.process(consumer())

        def producer():
            yield engine.timeout(4)
            yield store.put("late")

        engine.process(producer())
        assert engine.run(p) == ("late", 4.0)

    def test_bounded_put_blocks(self, engine):
        store = Store(engine, capacity=1)
        log = []

        def producer():
            yield store.put(1)
            log.append(("put1", engine.now))
            yield store.put(2)
            log.append(("put2", engine.now))

        def consumer():
            yield engine.timeout(5)
            item = yield store.get()
            log.append(("got", item, engine.now))

        engine.process(producer())
        engine.process(consumer())
        engine.run()
        assert ("put1", 0.0) in log
        assert ("put2", 5.0) in log  # unblocked by the get

    def test_capacity_validation(self, engine):
        with pytest.raises(ValueError):
            Store(engine, capacity=0)

    def test_len(self, engine):
        store = Store(engine)

        def proc():
            yield store.put("x")
            assert len(store) == 1
            yield store.get()
            assert len(store) == 0

        engine.run(engine.process(proc()))

