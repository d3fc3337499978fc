"""Unit tests for the discrete-event engine kernel."""

import pytest

from repro.errors import SimulationError
from repro.simulation import Engine


@pytest.fixture
def engine():
    return Engine()


class TestTimeAdvance:
    def test_starts_at_zero(self, engine):
        assert engine.now == 0.0

    def test_timeout_advances_clock(self, engine):
        done = engine.timeout(5.0, value="x")
        assert engine.run(done) == "x"
        assert engine.now == 5.0

    def test_run_until_time(self, engine):
        hits = []
        for t in (1.0, 2.0, 3.0):
            engine.timeout(t).add_callback(lambda ev, t=t: hits.append(t))
        engine.run(until=2.5)
        assert hits == [1.0, 2.0]
        assert engine.now == 2.5
        engine.run()
        assert hits == [1.0, 2.0, 3.0]

    def test_same_time_fifo_order(self, engine):
        order = []
        for i in range(5):
            engine.timeout(1.0).add_callback(lambda ev, i=i: order.append(i))
        engine.run()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_timeout_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.timeout(-1)

    def test_run_to_past_rejected(self, engine):
        engine.run(engine.timeout(10))
        with pytest.raises(ValueError):
            engine.run(until=5)

    def test_peek(self, engine):
        assert engine.peek() == float("inf")
        engine.timeout(3.0)
        assert engine.peek() == 3.0


class TestProcesses:
    def test_process_sequence(self, engine):
        log = []

        def proc():
            log.append(("start", engine.now))
            yield engine.timeout(2)
            log.append(("mid", engine.now))
            yield engine.timeout(3)
            log.append(("end", engine.now))
            return "finished"

        p = engine.process(proc())
        assert engine.run(p) == "finished"
        assert log == [("start", 0.0), ("mid", 2.0), ("end", 5.0)]

    def test_yield_value_passthrough(self, engine):
        def proc():
            got = yield engine.timeout(1, value=99)
            return got

        assert engine.run(engine.process(proc())) == 99

    def test_wait_on_process(self, engine):
        def child():
            yield engine.timeout(4)
            return "child-result"

        def parent():
            result = yield engine.process(child())
            return ("parent", result, engine.now)

        assert engine.run(engine.process(parent())) == ("parent", "child-result", 4.0)

    def test_process_failure_propagates_to_waiter(self, engine):
        def bad():
            yield engine.timeout(1)
            raise RuntimeError("boom")

        def parent():
            try:
                yield engine.process(bad())
            except RuntimeError as exc:
                return f"caught {exc}"

        assert engine.run(engine.process(parent())) == "caught boom"

    def test_unhandled_process_failure_raises_from_run(self, engine):
        def bad():
            yield engine.timeout(1)
            raise RuntimeError("unheard")

        engine.process(bad())
        with pytest.raises(RuntimeError, match="unheard"):
            engine.run()

    def test_yielding_non_event_fails_process(self, engine):
        def bad():
            yield 42

        p = engine.process(bad())
        with pytest.raises(SimulationError, match="must yield Event"):
            engine.run(p)

    def test_process_requires_generator(self, engine):
        with pytest.raises(TypeError, match="generator"):
            engine.process(lambda: None)

    def test_failed_event_is_raised_in_its_waiter_at_fail_time(self, engine):
        ev = engine.event()

        def waiter():
            try:
                yield ev
            except RuntimeError as exc:
                return ("failed", str(exc), engine.now)

        p = engine.process(waiter())

        def failer():
            yield engine.timeout(3)
            ev.fail(RuntimeError("wake-up"))

        engine.process(failer())
        assert engine.run(p) == ("failed", "wake-up", 3.0)

    def test_process_that_caught_a_failure_can_wait_again(self, engine):
        ev = engine.event()

        def waiter():
            try:
                yield ev
            except RuntimeError:
                yield engine.timeout(5)
            return engine.now

        p = engine.process(waiter())
        ev.fail(RuntimeError("gone"), delay=2)
        assert engine.run(p) == 7.0


class TestEvents:
    def test_manual_event(self, engine):
        ev = engine.event()

        def proc():
            value = yield ev
            return value

        p = engine.process(proc())

        def triggerer():
            yield engine.timeout(2)
            ev.succeed("manual")

        engine.process(triggerer())
        assert engine.run(p) == "manual"

    def test_double_trigger_rejected(self, engine):
        ev = engine.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_requires_exception(self, engine):
        with pytest.raises(TypeError):
            engine.event().fail("not an exception")

    def test_value_before_trigger_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.event().value

    def test_late_callback_runs_immediately(self, engine):
        ev = engine.timeout(1)
        engine.run()
        hits = []
        ev.add_callback(lambda e: hits.append(e.value))
        assert hits == [None]

    def test_all_of_waits_for_all(self, engine):
        def proc():
            t1, t2 = engine.timeout(1, "a"), engine.timeout(5, "b")
            results = yield engine.all_of([t1, t2])
            return (engine.now, sorted(results.values(), key=str))

        assert engine.run(engine.process(proc())) == (5.0, ["a", "b"])

    def test_all_of_empty_fires_immediately(self, engine):
        def proc():
            yield engine.all_of([])
            return engine.now

        assert engine.run(engine.process(proc())) == 0.0

    def test_all_of_failure_propagates(self, engine):
        def bad():
            yield engine.timeout(1)
            raise ValueError("child died")

        def proc():
            with pytest.raises(ValueError, match="child died"):
                yield engine.all_of([engine.process(bad()), engine.timeout(10)])
            return engine.now

        # Fails fast at t=1, well before the 10s timeout.
        assert engine.run(engine.process(proc())) == 1.0

    def test_all_of_maps_each_child_to_its_value(self, engine):
        def proc():
            t1, t2 = engine.timeout(2, "late"), engine.timeout(1, "early")
            results = yield engine.all_of([t1, t2])
            return results == {t1: "late", t2: "early"}

        assert engine.run(engine.process(proc())) is True

    def test_all_of_over_already_processed_events(self, engine):
        done = [engine.timeout(1, "a"), engine.timeout(2, "b")]
        engine.run()

        def proc():
            results = yield engine.all_of(done)
            return (engine.now, [results[ev] for ev in done])

        assert engine.run(engine.process(proc())) == (2.0, ["a", "b"])

    def test_all_of_ignores_failures_after_the_first(self, engine):
        def bad(delay, message):
            yield engine.timeout(delay)
            raise ValueError(message)

        def proc():
            with pytest.raises(ValueError, match="first"):
                yield engine.all_of(
                    [engine.process(bad(1, "first")), engine.process(bad(2, "second"))]
                )
            yield engine.timeout(5)
            return engine.now

        # The second child's failure neither re-triggers the composite
        # nor escapes the run: the composite already failed.
        assert engine.run(engine.process(proc())) == 6.0

    def test_all_of_rejects_events_of_another_engine(self, engine):
        with pytest.raises(SimulationError):
            engine.all_of([engine.timeout(1), Engine().timeout(1)])

    def test_deadlock_detection(self, engine):
        ev = engine.event()

        def stuck():
            yield ev

        p = engine.process(stuck())
        with pytest.raises(SimulationError, match="deadlock"):
            engine.run(p)

    def test_run_not_reentrant(self, engine):
        def proc():
            engine.run()
            yield engine.timeout(1)

        p = engine.process(proc())
        with pytest.raises(SimulationError, match="reentrant"):
            engine.run(p)


class TestDeterminism:
    def test_two_identical_runs_agree(self):
        def run_once():
            engine = Engine()
            log = []

            def worker(i):
                yield engine.timeout(i * 0.5)
                log.append((engine.now, i))
                yield engine.timeout(1.0)
                log.append((engine.now, i))

            for i in range(10):
                engine.process(worker(i))
            engine.run()
            return log

        assert run_once() == run_once()
