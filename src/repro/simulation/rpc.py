"""Request/response messaging between simulated services.

A :class:`RpcServer` lives on a :class:`~repro.simulation.cluster.SimNode`
and serves requests from a FIFO inbox with up to ``concurrency`` worker
processes.  Workers start on demand: a request that finds no idle worker
starts one while fewer than ``concurrency`` exist, so an idle server
costs the engine no events.  ``concurrency=1`` turns a server into a
serialization point — exactly how the paper's *version manager* is
modelled, since version-number assignment is "the only step in the
writing process where concurrent requests are serialized" (§III-A.4).

Handlers are plain functions or generator functions; generator handlers
may yield further simulation events (disk I/O, nested RPCs), composing
naturally with the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import GeneratorType
from typing import Any, Callable, Generator, Optional

from repro.errors import ProviderUnavailable, SimulationError
from repro.simulation.cluster import SimNode
from repro.simulation.engine import Event, Timeout
from repro.simulation.resources import Store

__all__ = ["RpcServer", "Reply", "call", "DEFAULT_RPC_BYTES"]

#: Default on-wire size of a control message (request or response
#: headers, ids, offsets...).  Small, so control traffic is latency-bound.
DEFAULT_RPC_BYTES = 512.0


@dataclass
class Reply:
    """Handler return value carrying an explicit on-wire response size."""

    value: Any
    size: float = DEFAULT_RPC_BYTES


class RpcServer:
    """A named service with FIFO inbox and ``concurrency`` workers.

    Args:
        node: hosting machine (requests travel over its NIC).
        name: service name for diagnostics.
        handler: ``fn(payload)`` returning a value, a :class:`Reply`, or
            a generator yielding simulation events before returning one.
        service_time: fixed CPU cost charged per request before the
            handler runs (models request parsing/bookkeeping).
        concurrency: upper bound on the worker processes draining the
            inbox.  Workers start on demand, one per request that finds
            none idle, so an idle server schedules no events.
    """

    def __init__(
        self,
        node: SimNode,
        name: str,
        handler: Callable[[Any], Any],
        service_time: float = 2e-5,
        concurrency: int = 1,
    ):
        if service_time < 0:
            raise ValueError("service_time must be >= 0")
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.node = node
        #: Engine of the hosting node.
        self.engine = node.engine
        self.name = name
        self.handler = handler
        self.service_time = service_time
        self.concurrency = concurrency
        self.inbox = Store(node.engine)
        self.requests_served = 0
        self.busy_time = 0.0
        self._started = 0

    def _submit(self, request: tuple[Any, Event]) -> Event:
        """Queue *request*, first starting a worker if none waits for it.

        Counting started workers, never idle ones, keeps two requests of
        one instant from sharing a worker that has not yet reached
        :meth:`Store.get`.
        """
        if not self.inbox.getters and self._started < self.concurrency:
            self.engine.process(self._worker(), name=f"{self.name}-worker-{self._started}")
            self._started += 1
        return self.inbox.put(request)

    def _worker(self) -> Generator:
        engine, node, inbox = self.engine, self.node, self.inbox
        while True:
            payload, reply_event = yield inbox.get()
            started = engine.now
            if not node.online:
                if not reply_event.triggered:
                    reply_event.fail(
                        ProviderUnavailable(f"{self.name} on {node.name} is down")
                    )
                continue
            try:
                if self.service_time:
                    yield Timeout(engine, self.service_time)
                result = self.handler(payload)
                if type(result) is GeneratorType:
                    result = yield from result
            except BaseException as exc:  # noqa: BLE001 - forwarded to caller
                if not reply_event.triggered:
                    reply_event.fail(exc)
                continue
            finally:
                self.busy_time += engine.now - started
            self.requests_served += 1
            if not reply_event.triggered:
                reply_event.succeed(result)


def call(
    client: SimNode,
    server: RpcServer,
    payload: Any,
    request_size: float = DEFAULT_RPC_BYTES,
    response_size: Optional[float] = None,
    rate_cap: Optional[float] = None,
) -> Generator:
    """Generator helper performing one RPC; ``yield from`` it.

    Sequence: request bytes travel client→server, the request queues at
    the server, a worker runs the handler, response bytes travel back.
    Returns the handler's value; re-raises handler exceptions at the
    call site.  If the handler returned a :class:`Reply`, its ``size``
    overrides *response_size*.  ``rate_cap`` bounds the bulk transfer
    rate in both directions (single-stream client ceiling).
    """
    engine = client.engine
    if engine is not server.engine:
        raise SimulationError("client and server belong to different engines")
    network = client.network
    host = server.node
    if not host.online:
        # The caller still pays a latency to discover the silence.
        yield Timeout(engine, network.latency)
        raise ProviderUnavailable(f"{server.name} on {host.name} is down")
    yield network.transfer(client.name, host.name, request_size, rate_cap=rate_cap)
    reply_event = Event(engine)
    yield server._submit((payload, reply_event))
    result = yield reply_event
    if isinstance(result, Reply):
        size = result.size
        value = result.value
    else:
        size = DEFAULT_RPC_BYTES if response_size is None else response_size
        value = result
    yield network.transfer(host.name, client.name, size, rate_cap=rate_cap)
    return value
