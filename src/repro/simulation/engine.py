"""Deterministic discrete-event simulation engine.

A self-contained, SimPy-flavoured kernel: simulated *processes* are
Python generators that ``yield`` :class:`Event` objects and are resumed
when those events fire.  Time advances only through the event calendar,
so a run is bit-for-bit reproducible — which the experiment harness
relies on for regression-testing simulated results.

Design notes
------------
* Events at the same timestamp fire in schedule order (a monotonically
  increasing sequence number breaks ties), so there is no hidden
  nondeterminism.
* A :class:`Process` is itself an :class:`Event` that fires when the
  generator returns — ``yield some_process`` waits for completion and
  receives its return value.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError

__all__ = ["Engine", "Event", "Timeout", "Process", "AllOf"]

#: Sentinel distinguishing "not yet triggered" from a ``None`` value.
_PENDING = object()


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; exactly once it is *triggered* — either
    :meth:`succeed`-ed with a value or :meth:`fail`-ed with an exception —
    which schedules it on the calendar; when the engine reaches it, its
    callbacks run and waiting processes resume.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok")

    def __init__(self, engine: "Engine"):
        #: The engine this event belongs to.
        self.engine = engine
        #: Callables invoked with the event when it is processed, or
        #: ``None`` once processed (late callbacks run immediately).
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value/exception (scheduled or done)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception carried by the event."""
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger successfully with *value* after *delay* sim-seconds."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.engine._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger as failed: *exception* is re-raised in waiting processes."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.engine._schedule(self, 0.0 if delay is None else delay)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run *fn(event)* when the event is processed (immediately if past)."""
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay.  Created via ``engine.timeout``."""

    __slots__ = ()

    def __init__(self, engine: "Engine", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        super().__init__(engine)
        self._ok = True
        self._value = value
        engine._schedule(self, delay)


class Process(Event):
    """A running simulated activity wrapping a generator.

    The process-as-event fires when the generator returns; its value is
    the generator's return value.  If the generator raises, the process
    fails with that exception (propagated to any waiter, or re-raised by
    :meth:`Engine.run` if nobody waits — errors never pass silently).
    """

    __slots__ = ("generator", "_target", "name")

    def __init__(self, engine: "Engine", generator: Generator, name: str = ""):
        super().__init__(engine)
        self.generator = generator
        #: The event this process is currently waiting on (None if ready).
        self._target: Optional[Event] = None
        #: Optional label for tracing/debugging.
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume once at the current time.
        bootstrap = Event(engine)
        bootstrap._ok = True
        bootstrap._value = None
        engine._schedule(bootstrap, 0.0)
        bootstrap.add_callback(self._resume)
        self._target = bootstrap

    @property
    def alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    # -- internal ---------------------------------------------------------

    def _resume(self, event: Event) -> None:
        if not self.alive:  # pragma: no cover - stale wake-up guard
            return
        self._target = None
        try:
            if event._ok:
                next_target = self.generator.send(event._value)
            else:
                next_target = self.generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(next_target, Event):
            exc = SimulationError(
                f"process {self.name!r} yielded {next_target!r}; processes must yield Event"
            )
            self.generator.close()
            self.fail(exc)
            return
        if next_target.engine is not self.engine:
            self.generator.close()
            self.fail(SimulationError("yielded event belongs to a different engine"))
            return
        self._target = next_target
        next_target.add_callback(self._resume)


class AllOf(Event):
    """Fires when every child event has fired; fails fast on first failure."""

    __slots__ = ("events", "_remaining")

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine)
        self.events: tuple[Event, ...] = tuple(events)
        for ev in self.events:
            if ev.engine is not engine:
                raise SimulationError("condition mixes events from different engines")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed(self._collect())
        else:
            for ev in self.events:
                ev.add_callback(self._on_child)

    def _collect(self) -> dict[Event, Any]:
        # Only *processed* children count: a Timeout is "triggered" from
        # creation (its value is predetermined), but it has not happened
        # yet until the engine reaches it on the calendar.
        return {ev: ev._value for ev in self.events if ev.processed and ev._ok}

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class Engine:
    """Event calendar plus factory methods for events and processes."""

    def __init__(self):
        self._now: float = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- factories ----------------------------------------------------------

    def event(self) -> Event:
        """A fresh pending event (trigger it manually)."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Event firing *delay* sim-seconds from now carrying *value*."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start running *generator* as a simulated process."""
        if not isinstance(generator, Generator):
            raise TypeError(
                f"process() needs a generator (did you forget to call the "
                f"function?), got {type(generator)!r}"
            )
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event: every child fired."""
        return AllOf(self, events)

    # -- scheduling -----------------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._sequence += 1
        heapq.heappush(self._queue, (self._now + delay, self._sequence, event))

    # -- execution --------------------------------------------------------------

    def step(self) -> None:
        """Process the single next event on the calendar."""
        when, _, event = heapq.heappop(self._queue)
        if when < self._now:  # pragma: no cover - defensive
            raise SimulationError("calendar went backwards")
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks or ():
            callback(event)
        if not event._ok and not callbacks and not isinstance(event, Process):
            # A failed event nobody listened to: surface it loudly.
            raise event._value
        if isinstance(event, Process) and not event._ok and not callbacks:
            raise event._value

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        * ``until=None`` — run until the calendar is empty.
        * ``until=<number>`` — run until simulated time reaches it.
        * ``until=<Event>`` — run until that event has been processed and
          return its value (re-raising its exception if it failed).
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        try:
            if isinstance(until, Event):
                target = until
                while not target.processed:
                    if not self._queue:
                        raise SimulationError(
                            "deadlock: event calendar exhausted before target fired"
                        )
                    self.step()
                if target._ok:
                    return target._value
                raise target._value
            horizon = float("inf") if until is None else float(until)
            if horizon < self._now:
                raise ValueError(f"cannot run to the past ({horizon} < {self._now})")
            while self._queue and self._queue[0][0] <= horizon:
                self.step()
            if until is not None:
                self._now = horizon
            return None
        finally:
            self._running = False

    def peek(self) -> float:
        """Timestamp of the next scheduled event (``inf`` if none)."""
        return self._queue[0][0] if self._queue else float("inf")
