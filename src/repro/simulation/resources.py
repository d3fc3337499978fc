"""Synchronization primitives for simulated processes.

* :class:`Resource` — counted resource with FIFO queueing (disk arms,
  server worker threads, task slots).
* :class:`Store` — unbounded-or-bounded FIFO of items (message queues).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.errors import SimulationError
from repro.simulation.engine import Engine, Event

__all__ = ["Resource", "Request", "Store"]


class Request(Event):
    """Pending acquisition of a :class:`Resource` slot.

    Yield it to wait for the grant; pass it back to
    :meth:`Resource.release` when done.  Supports use as a context
    manager *inside* process generators::

        req = resource.request()
        yield req
        try:
            ...
        finally:
            resource.release(req)
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.engine)
        self.resource = resource


class Resource:
    """A counted resource with FIFO granting.

    ``capacity`` slots; :meth:`request` returns an event granted when a
    slot frees up.  Deterministic FIFO order keeps simulations
    reproducible.
    """

    def __init__(self, engine: Engine, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self._in_use = 0
        self._waiting: Deque[Request] = deque()

    def request(self) -> Request:
        """Ask for a slot; the returned event fires when granted."""
        req = Request(self)
        if self._in_use < self.capacity:
            self._in_use += 1
            req.succeed(req)
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a granted slot; wakes the oldest waiter, if any."""
        if request.resource is not self:
            raise SimulationError("release() of a request from another resource")
        if not request.triggered:
            # The request never got a slot: cancel it instead.
            try:
                self._waiting.remove(request)
            except ValueError:
                raise SimulationError("release() of unknown pending request") from None
            return
        if self._in_use <= 0:  # pragma: no cover - defensive
            raise SimulationError("release() with no slot in use")
        if self._waiting:
            nxt = self._waiting.popleft()
            nxt.succeed(nxt)
        else:
            self._in_use -= 1

    def acquire(self):
        """Generator helper: ``req = yield from res.acquire()``."""
        req = self.request()
        yield req
        return req


class Store:
    """FIFO item store: producers :meth:`put`, consumers :meth:`get`.

    With the default infinite capacity, ``put`` never blocks; bounded
    stores make ``put`` wait until a consumer makes room (useful to model
    bounded server queues / backpressure).
    """

    def __init__(self, engine: Engine, capacity: float = float("inf")):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        #: Consumers blocked in :meth:`get`, oldest first; :meth:`put`
        #: hands its item to the oldest.
        self.getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Deposit *item*; returned event fires when the item is accepted."""
        done = Event(self.engine)
        if self.getters:
            getter = self.getters.popleft()
            getter.succeed(item)
            done.succeed()
        elif len(self._items) < self.capacity:
            self._items.append(item)
            done.succeed()
        else:
            self._putters.append((done, item))
        return done

    def get(self) -> Event:
        """Take the oldest item; returned event fires with the item."""
        got = Event(self.engine)
        if self._items:
            got.succeed(self._items.popleft())
            if self._putters:
                done, item = self._putters.popleft()
                self._items.append(item)
                done.succeed()
        else:
            self.getters.append(got)
        return got
