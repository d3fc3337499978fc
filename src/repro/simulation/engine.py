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
  nondeterminism.  Triggering an event pushes its ``(time, sequence)``
  entry straight onto the calendar heap; :meth:`Engine.run` pops and
  dispatches inline (DESIGN.md §15).
* A :class:`Process` is itself an :class:`Event` that fires when the
  generator returns — ``yield some_process`` waits for completion and
  receives its return value.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Generator, Iterable
from heapq import heappop, heappush
from typing import Any, Optional

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
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._ok = True
        self._value = value
        engine = self.engine
        heappush(engine._queue, (engine.now + delay, next(engine._sequence), self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger as failed: *exception* is re-raised in waiting processes."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if delay is None:
            delay = 0.0
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._ok = False
        self._value = exception
        engine = self.engine
        heappush(engine._queue, (engine.now + delay, next(engine._sequence), self))
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
        self.engine = engine
        self.callbacks = []
        self._ok = True
        self._value = value
        heappush(engine._queue, (engine.now + delay, next(engine._sequence), self))


class Process(Event):
    """A running simulated activity wrapping a generator.

    The process-as-event fires when the generator returns; its value is
    the generator's return value.  If the generator raises, the process
    fails with that exception (propagated to any waiter, or re-raised by
    :meth:`Engine.run` if nobody waits — errors never pass silently).
    """

    __slots__ = ("generator", "name", "_resume_cb")

    def __init__(self, engine: "Engine", generator: Generator, name: str = ""):
        super().__init__(engine)
        self.generator = generator
        #: Optional label for tracing/debugging.
        self.name = name or getattr(generator, "__name__", "process")
        #: The bound :meth:`_resume`, made once: every wait appends this
        #: same object.  Dropped when the generator finishes, which
        #: breaks the process -> method -> process cycle.
        self._resume_cb: Optional[Callable[[Event], None]] = self._resume
        # Bootstrap: resume once at the current time.
        Timeout(engine, 0.0).callbacks.append(self._resume_cb)

    # -- internal ---------------------------------------------------------

    def _resume(self, event: Event) -> None:
        try:
            if event._ok:
                target = self.generator.send(event._value)
            else:
                target = self.generator.throw(event._value)
        except StopIteration as stop:
            self._resume_cb = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._resume_cb = None
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self._abort(
                f"process {self.name!r} yielded {target!r}; processes must yield Event"
            )
            return
        if target.engine is not self.engine:
            self._abort("yielded event belongs to a different engine")
            return
        callbacks = target.callbacks
        if callbacks is None:  # already processed: resume at once
            self._resume(target)
        else:
            callbacks.append(self._resume_cb)

    def _abort(self, message: str) -> None:
        """Fail the process for an illegal yield, closing its generator."""
        self._resume_cb = None
        self.generator.close()
        self.fail(SimulationError(message))


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
        #: Current simulated time in seconds (read-only for callers).
        self.now: float = 0.0
        #: The calendar: a heap of ``(time, sequence, event)`` entries.
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = itertools.count(1)
        self._running = False

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

    # -- execution --------------------------------------------------------------

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        * ``until=None`` — run until the calendar is empty.
        * ``until=<number>`` — run until simulated time reaches it.
        * ``until=<Event>`` — run until that event has been processed and
          return its value (re-raising its exception if it failed).

        Each calendar entry is popped and dispatched here: its callbacks
        run in the order they were added, and a failed event with no
        callback at all is raised from ``run`` (errors never pass
        silently).
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if isinstance(until, Event):
            target, horizon = until, math.inf
        else:
            target = None
            horizon = math.inf if until is None else float(until)
            if horizon < self.now:
                raise ValueError(f"cannot run to the past ({horizon} < {self.now})")
        self._running = True
        try:
            queue = self._queue
            # An event is processed only when it is dispatched, so a
            # target still holding its callbacks has not fired yet.
            if target is None or target.callbacks is not None:
                while queue and queue[0][0] <= horizon:
                    self.now, _, event = heappop(queue)
                    callbacks, event.callbacks = event.callbacks, None
                    if callbacks:
                        for callback in callbacks:
                            callback(event)
                    elif not event._ok:
                        raise event._value
                    if event is target:
                        break
                else:
                    if target is not None:
                        raise SimulationError(
                            "deadlock: event calendar exhausted before target fired"
                        )
        finally:
            self._running = False
        if target is not None:
            if target._ok:
                return target._value
            raise target._value
        if until is not None:
            self.now = horizon
        return None

    def peek(self) -> float:
        """Timestamp of the next scheduled event (``inf`` if none)."""
        return self._queue[0][0] if self._queue else math.inf
