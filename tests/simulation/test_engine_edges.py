"""Edge-case tests for engine/resource interactions."""

import pytest

from repro.errors import Interrupt
from repro.simulation import Engine
from repro.simulation.resources import Resource, Store


@pytest.fixture
def engine():
    return Engine()


class TestInterruptInteractions:
    def test_interrupt_while_queued_on_resource(self, engine):
        """A process interrupted while waiting for a resource cancels
        its request and never holds a slot."""
        res = Resource(engine, capacity=1)

        def holder():
            req = yield from res.acquire()
            yield engine.timeout(10)
            res.release(req)

        engine.process(holder())

        def waiter():
            req = res.request()
            try:
                yield req
            except Interrupt:
                res.release(req)  # cancel the pending request
                return "gave up"

        p = engine.process(waiter())

        def interrupter():
            yield engine.timeout(1)
            p.interrupt()

        engine.process(interrupter())
        assert engine.run(p) == "gave up"
        engine.run()

        def latecomer():
            yield res.request()
            return engine.now

        # The holder's release at t=10 freed the only slot: the
        # cancelled request never took it.
        assert engine.run(engine.process(latecomer())) == 10.0

    def test_interrupt_while_waiting_on_store(self, engine):
        store = Store(engine)

        def consumer():
            try:
                yield store.get()
            except Interrupt:
                return "interrupted"

        p = engine.process(consumer())

        def interrupter():
            yield engine.timeout(2)
            p.interrupt()

        engine.process(interrupter())
        assert engine.run(p) == "interrupted"

    def test_back_to_back_interrupts_coalesce(self, engine):
        """A second interrupt before the first is delivered coalesces:
        the generator sees exactly one Interrupt."""
        hits = []

        def sleeper():
            try:
                yield engine.timeout(100)
            except Interrupt as intr:
                hits.append(intr.cause)
            yield engine.timeout(5)  # interruptible again afterwards
            return (hits, engine.now)

        p = engine.process(sleeper())

        def interrupter():
            yield engine.timeout(1)
            p.interrupt("first")
            p.interrupt("second")  # coalesced away

        engine.process(interrupter())
        assert engine.run(p) == (["first"], 6.0)

    def test_reinterrupt_after_delivery_works(self, engine):
        hits = []

        def sleeper():
            for _ in range(2):
                try:
                    yield engine.timeout(100)
                except Interrupt as intr:
                    hits.append(intr.cause)
            return hits

        p = engine.process(sleeper())

        def interrupter():
            yield engine.timeout(1)
            p.interrupt("first")
            yield engine.timeout(1)  # first has been delivered by now
            p.interrupt("second")

        engine.process(interrupter())
        assert engine.run(p) == ["first", "second"]


class TestResourceCancel:
    def test_releasing_a_queued_request_cancels_it(self, engine):
        """A request released before it was granted leaves the queue
        and never holds a slot."""
        res = Resource(engine, capacity=1)

        def holder():
            req = yield from res.acquire()
            yield engine.timeout(10)
            res.release(req)

        def canceller():
            queued = res.request()  # the holder has the only slot
            yield engine.timeout(1)
            assert not queued.triggered
            res.release(queued)

        engine.process(holder())
        engine.process(canceller())
        engine.run()

        def latecomer():
            yield res.request()
            return engine.now

        # The holder's release at t=10 freed the only slot: the
        # cancelled request never took it.
        assert engine.run(engine.process(latecomer())) == 10.0


class TestZeroDelays:
    def test_zero_timeout_fires_same_time(self, engine):
        def proc():
            yield engine.timeout(0)
            return engine.now

        assert engine.run(engine.process(proc())) == 0.0

    def test_chained_zero_timeouts_preserve_order(self, engine):
        log = []

        def worker(tag):
            yield engine.timeout(0)
            log.append(tag)
            yield engine.timeout(0)
            log.append(tag)

        engine.process(worker("a"))
        engine.process(worker("b"))
        engine.run()
        assert log == ["a", "b", "a", "b"]


class TestRunSemantics:
    def test_run_until_event_returns_value_exactly_once(self, engine):
        ev = engine.timeout(3, value="payload")
        assert engine.run(ev) == "payload"
        # Running again with the processed event returns immediately.
        assert engine.run(ev) == "payload"
        assert engine.now == 3.0

    def test_run_until_failed_event_raises(self, engine):
        ev = engine.event()

        def failer():
            yield engine.timeout(1)
            ev.fail(RuntimeError("bad"))

        engine.process(failer())
        with pytest.raises(RuntimeError, match="bad"):
            engine.run(ev)

    def test_all_of_mixed_processed_and_pending(self, engine):
        early = engine.timeout(1)
        engine.run(until=2)
        late = engine.timeout(5)

        def proc():
            yield engine.all_of([early, late])
            return engine.now

        assert engine.run(engine.process(proc())) == 7.0
