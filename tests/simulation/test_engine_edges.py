"""Edge-case tests for engine/resource interactions."""

import pytest

from repro.errors import SimulationError
from repro.simulation import Engine
from repro.simulation.resources import Resource


@pytest.fixture
def engine():
    return Engine()


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


def _unheard_event(engine):
    """A plain event failed at t=1 with nobody listening."""
    engine.event().fail(RuntimeError("unheard"), delay=1)


def _unheard_process(engine):
    """A process that fails at t=1 with nobody waiting on it."""

    def bad():
        yield engine.timeout(1)
        raise RuntimeError("unheard")

    engine.process(bad())


RUN_MODES = {
    "to_empty": lambda engine: engine.run(),
    "until_time": lambda engine: engine.run(until=5),
    "until_event": lambda engine: engine.run(engine.timeout(10)),
}


class TestUnheardFailures:
    """Errors never pass silently, whichever way ``run`` is bounded."""

    @pytest.mark.parametrize("source", [_unheard_event, _unheard_process])
    @pytest.mark.parametrize("mode", sorted(RUN_MODES))
    def test_an_unheard_failure_raises_from_run(self, engine, source, mode):
        source(engine)
        with pytest.raises(RuntimeError, match="unheard"):
            RUN_MODES[mode](engine)
        assert engine.now == 1.0

    @pytest.mark.parametrize("mode", sorted(RUN_MODES))
    def test_a_heard_failure_does_not(self, engine, mode):
        failed = engine.event()
        failed.fail(RuntimeError("heard"), delay=1)
        seen = []
        failed.add_callback(lambda ev: seen.append(ev.value))
        RUN_MODES[mode](engine)
        assert [str(exc) for exc in seen] == ["heard"]


class TestIllegalYields:
    def test_yielding_an_event_of_another_engine_fails_the_process(self, engine):
        other = Engine()

        def bad():
            yield other.timeout(1)

        with pytest.raises(SimulationError, match="different engine"):
            engine.run(engine.process(bad()))
        assert other.peek() == 1.0  # the foreign event stays on its own calendar

    def test_a_negative_delay_is_rejected_before_the_event_triggers(self, engine):
        ev = engine.event()
        with pytest.raises(ValueError, match="past"):
            ev.succeed(delay=-1)
        with pytest.raises(ValueError, match="past"):
            ev.fail(RuntimeError("x"), delay=-1)
        assert not ev.triggered and engine.peek() == float("inf")
