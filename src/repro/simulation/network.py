"""Fluid flow network with max-min fair bandwidth sharing.

This is the performance core of the Grid'5000 substitute.  Instead of
simulating packets, each in-flight transfer is a *flow* draining its
byte count at a rate set by **max-min fair sharing** (progressive
filling) across the capacities it traverses: the sender's egress NIC and
the receiver's ingress NIC (the paper's clusters sit behind a
non-blocking gigabit switch, so no core bottleneck is modelled, though
one can be configured).

The important emergent behaviours — a datanode serving four concurrent
readers gives each ~29 MB/s while a balanced layout gives every reader
the full 117.5 MB/s; two pipelined writes that collide on one provider
halve each other — fall out of this model without scenario-specific
code, which is exactly what the reproduction needs (see DESIGN.md §15).

Rates are recomputed lazily, only when the flow population changes; in
between, completion times are exact because rates are constant.  The
network keeps each link's flows as flows start and leave, and the
solver fills from a kept ranking of link shares in pure Python.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Optional

from repro.errors import SimulationError
from repro.simulation.engine import Engine, Event, Timeout

__all__ = ["FlowNetwork", "Flow", "NodePort", "TransferStats"]

#: Residual bytes below which a flow counts as drained.  Settling
#: accumulates float error of order ``rate * eps(now)`` (~1e-6 bytes for
#: 64 MB/s flows at t~100s), so the threshold sits far above that while
#: staying a millionth of any real block.
_EPSILON_BYTES = 1e-3
#: Relative slack when scheduling the next completion wake-up.
_TIME_SLACK = 1e-12
#: Horizons below this are not representable in simulated time (adding
#: them to ``now`` may not change it); flows that close are done.
_MIN_HORIZON = 1e-9


@dataclass
class NodePort:
    """Capacity bookkeeping for one node's NIC.

    Full-duplex: *egress* and *ingress* are independent capacities in
    bytes/second (117.5 MB/s each for the paper's measured TCP rate).
    """

    name: str
    egress: float
    ingress: float

    def __post_init__(self) -> None:
        if self.egress <= 0 or self.ingress <= 0:
            raise ValueError(
                f"node {self.name!r} needs positive capacities, got "
                f"egress={self.egress} ingress={self.ingress}"
            )


@dataclass
class TransferStats:
    """Aggregate accounting kept by the network (for throughput reports)."""

    transfers_started: int = 0
    transfers_completed: int = 0
    bytes_completed: float = 0.0
    bytes_by_source: dict[str, float] = field(default_factory=dict)
    bytes_by_dest: dict[str, float] = field(default_factory=dict)


class Flow:
    """One in-flight transfer.

    Public attributes are read-only for callers; use
    :meth:`FlowNetwork.transfer` to create flows and
    :meth:`FlowNetwork.cancel_node_flows` to abort them (failure
    injection).
    """

    __slots__ = (
        "src", "dst", "size", "remaining", "event", "rate",
        "started_at", "cap", "links", "seq", "_frozen",
    )

    def __init__(
        self, src: str, dst: str, size: float, event: Event, cap: Optional[float] = None
    ):
        self.src = src
        self.dst = dst
        self.size = float(size)
        self.remaining = float(size)
        self.event = event
        self.rate = 0.0
        self.started_at: Optional[float] = None
        #: Optional per-flow rate ceiling (models a single-stream client
        #: processing limit independent of NIC capacity).
        self.cap = cap
        #: The links the flow traverses, in order: out, in, core, cap.
        self.links: tuple[_Link, ...] = ()
        #: Start order among the network's flows (set when draining starts).
        self.seq = 0
        #: The solve that froze this flow's rate (progressive filling).
        self._frozen = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Flow {self.src}->{self.dst} {self.remaining:.0f}/{self.size:.0f}B "
            f"@{self.rate:.0f}B/s>"
        )


class _Link:
    """A capacity the solver shares: a NIC direction, the core switch,
    or one flow's private cap.

    ``flows`` is kept up to date as flows start and leave, in start
    order.  ``pos`` is the link's place in a flow's ``links`` (out 0,
    in 1, core 2, cap last).  ``entry`` is the link's place in the
    network's ranking while it carries flows: ``(capacity / flows,
    order, link)``, where ``order = first_flow.seq * 4 + pos`` is the
    link's first occurrence among the flows in start order.
    ``solve``, ``residual``, ``unfrozen`` and ``key`` are the solver's
    scratch state, valid while ``solve`` is the current solve.
    """

    __slots__ = ("capacity", "pos", "flows", "entry", "solve", "residual", "unfrozen", "key")

    def __init__(self, capacity: float, pos: int):
        self.capacity = capacity
        self.pos = pos
        self.flows: dict[Flow, None] = {}
        self.entry: Optional[tuple[float, int, _Link]] = None
        self.solve = 0
        self.residual = 0.0
        self.unfrozen = 0
        self.key = 0.0


class FlowNetwork:
    """Max-min fair fluid network over named nodes.

    Args:
        engine: the simulation engine driving time.
        latency: one-way message latency in seconds applied before a
            flow starts draining (0.1 ms on Grid'5000).
        core_capacity: optional aggregate switch capacity shared by all
            flows; ``None`` models a non-blocking switch.
        loopback_rate: rate for src==dst transfers (local copies bypass
            the NIC; default models a fast memory-speed path).
    """

    def __init__(
        self,
        engine: Engine,
        latency: float = 1e-4,
        core_capacity: Optional[float] = None,
        loopback_rate: float = 4.0 * (1 << 30),
        small_flow_cutoff: float = 0.0,
    ):
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        if core_capacity is not None and core_capacity <= 0:
            raise ValueError("core_capacity must be positive or None")
        if loopback_rate <= 0:
            raise ValueError("loopback_rate must be positive")
        if small_flow_cutoff < 0:
            raise ValueError("small_flow_cutoff must be >= 0")
        self.engine = engine
        self.latency = latency
        self.core_capacity = core_capacity
        self.loopback_rate = loopback_rate
        #: Transfers at or below this size skip max-min sharing and cost
        #: ``latency + size/uncontended-rate``.  Control messages are
        #: latency-bound, so exempting them from the fluid model is an
        #: excellent approximation that makes large deployments (250
        #: concurrent clients x dozens of RPCs) tractable.  0 disables.
        self.small_flow_cutoff = small_flow_cutoff
        self._nodes: dict[str, NodePort] = {}
        self._out: dict[str, _Link] = {}
        self._in: dict[str, _Link] = {}
        self._core = None if core_capacity is None else _Link(float(core_capacity), 2)
        #: Draining flows in start order (completions follow it).
        self._flows: dict[Flow, None] = {}
        #: The ``entry`` of every link carrying flows, sorted: the
        #: order progressive filling would take them in if no flow
        #: were frozen yet.
        self._ranked: list[tuple[float, int, _Link]] = []
        self._flow_seq = itertools.count(1)
        self._solves = 0
        self._last_settled = engine.now
        self._wake_generation = 0
        self.stats = TransferStats()

    # -- topology ---------------------------------------------------------

    def add_node(
        self, name: str, egress: float, ingress: Optional[float] = None
    ) -> NodePort:
        """Register a node with its NIC capacities (bytes/second)."""
        if name in self._nodes:
            raise SimulationError(f"node {name!r} already registered")
        port = NodePort(name=name, egress=float(egress),
                        ingress=float(egress if ingress is None else ingress))
        self._nodes[name] = port
        self._out[name] = _Link(port.egress, 0)
        self._in[name] = _Link(port.ingress, 1)
        return port

    def set_node_rates(
        self,
        name: str,
        egress: Optional[float] = None,
        ingress: Optional[float] = None,
    ) -> None:
        """Re-rate a node's NIC (heterogeneous-cluster experiments).

        Active flows immediately re-share under the new capacities.
        """
        port = self._nodes.get(name)
        if port is None:
            raise SimulationError(f"unknown node {name!r}")
        if egress is not None:
            if egress <= 0:
                raise ValueError("egress must be positive")
            port.egress = self._out[name].capacity = float(egress)
        if ingress is not None:
            if ingress <= 0:
                raise ValueError("ingress must be positive")
            port.ingress = self._in[name].capacity = float(ingress)
        self._settle()
        self._rerank(self._out[name])
        self._rerank(self._in[name])
        self._recompute()

    # -- transfers ----------------------------------------------------------

    def transfer(
        self,
        src: str,
        dst: str,
        nbytes: float,
        latency: Optional[float] = None,
        rate_cap: Optional[float] = None,
    ) -> Event:
        """Move *nbytes* from *src* to *dst*; event fires on the last byte.

        The one-way *latency* (default: network default) elapses before
        bytes start flowing, so tiny RPC messages cost ~latency and bulk
        transfers cost latency + bytes/fair-rate.  ``rate_cap`` bounds
        this flow's rate below its fair share (single-stream ceiling).
        """
        nodes = self._nodes
        if src not in nodes:
            raise SimulationError(f"unknown source node {src!r}")
        if dst not in nodes:
            raise SimulationError(f"unknown destination node {dst!r}")
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if rate_cap is not None and rate_cap <= 0:
            raise ValueError(f"rate_cap must be positive, got {rate_cap}")
        lat = self.latency if latency is None else latency
        engine = self.engine
        done = Event(engine)
        flow = Flow(src, dst, nbytes, done, cap=rate_cap)
        self.stats.transfers_started += 1
        if src == dst:
            # Local copy: loopback bypasses the NIC but still honours a
            # per-stream ceiling (the producer/consumer is no faster
            # just because the bytes stay on the machine).
            rate = self.loopback_rate
        elif nbytes > self.small_flow_cutoff:
            Timeout(engine, lat, flow).callbacks.append(self._start_flow)
            return done
        else:
            # Empty or latency-bound control message: bypass the fluid model.
            rate = min(nodes[src].egress, nodes[dst].ingress)
        if rate_cap is not None:
            rate = min(rate, rate_cap)
        Timeout(engine, lat + nbytes / rate, flow).callbacks.append(self._finish_local)
        return done

    def cancel_node_flows(self, node: str, exception: BaseException) -> int:
        """Fail every active flow touching *node* (failure injection).

        Returns the number of flows cancelled.  Bandwidth is immediately
        redistributed among survivors.
        """
        victims = [f for f in self._flows if f.src == node or f.dst == node]
        if not victims:
            return 0
        self._settle()
        for flow in victims:
            self._detach(flow)
            if not flow.event.triggered:
                flow.event.fail(exception)
        self._recompute()
        return len(victims)

    # -- internals ------------------------------------------------------------

    def _record(self, flow: Flow) -> None:
        stats = self.stats
        stats.transfers_completed += 1
        stats.bytes_completed += flow.size
        stats.bytes_by_source[flow.src] = stats.bytes_by_source.get(flow.src, 0.0) + flow.size
        stats.bytes_by_dest[flow.dst] = stats.bytes_by_dest.get(flow.dst, 0.0) + flow.size

    def _finish_local(self, timer: Event) -> None:
        flow = timer._value
        if flow.event.triggered:
            return
        flow.started_at = self.engine.now
        self._record(flow)
        flow.event.succeed(flow)

    def _start_flow(self, timer: Event) -> None:
        flow = timer._value
        if flow.event.triggered:  # failed by its holder before it started
            return
        self._settle()
        flow.started_at = self.engine.now
        flow.seq = next(self._flow_seq)
        links = [self._out[flow.src], self._in[flow.dst]]
        if self._core is not None:
            links.append(self._core)
        if flow.cap is not None:
            # A private link only this flow traverses: its fair share on
            # it is the whole cap, bounding the flow's rate.
            links.append(_Link(float(flow.cap), len(links)))
        flow.links = tuple(links)
        for link in links:
            link.flows[flow] = None
            self._rerank(link)
        self._flows[flow] = None
        self._recompute()

    def _detach(self, flow: Flow) -> None:
        """Drop a finished or cancelled flow from the incidence."""
        del self._flows[flow]
        for link in flow.links:
            del link.flows[flow]
            self._rerank(link)

    def _rerank(self, link: _Link) -> None:
        """Move *link*'s entry after its flows or capacity changed."""
        ranked = self._ranked
        if link.entry is not None:
            # Entries differ in (share, order), so bisect never compares links.
            del ranked[bisect_left(ranked, link.entry)]
            link.entry = None
        flows = link.flows
        if flows:
            link.entry = entry = (
                link.capacity / len(flows), next(iter(flows)).seq * 4 + link.pos, link
            )
            insort(ranked, entry)

    def _settle(self) -> None:
        """Drain every active flow at its current rate up to ``now``."""
        now = self.engine.now
        dt = now - self._last_settled
        if dt > 0:
            for flow in self._flows:
                flow.remaining -= flow.rate * dt
                if flow.remaining < 0:
                    flow.remaining = 0.0
        self._last_settled = now

    def _recompute(self) -> None:
        """Assign max-min fair rates and schedule the next completion."""
        flows = self._flows
        if flows:
            self._assign_maxmin_rates()

        # Schedule a wake-up at the earliest projected completion.
        self._wake_generation += 1
        horizon = math.inf
        for f in flows:
            rate = f.rate
            if rate > 0:
                left = f.remaining / rate
                if left < horizon:
                    horizon = left
        if horizon < math.inf:
            wake = Timeout(
                self.engine, max(horizon, 0.0) * (1.0 + _TIME_SLACK), self._wake_generation
            )
            wake.callbacks.append(self._on_wake)

    def _assign_maxmin_rates(self) -> None:
        """Exact progressive filling over the kept incidence.

        Each round takes the tightest link (ties to the lower ``order``),
        freezes its unfrozen flows in start order at that share, and
        subtracts the share from every link of theirs, clamping at 0
        once the round is done.

        Every link with unfrozen flows has one live ``(key, order)``
        entry with ``key <= share``: its ranked entry, or a requeued one
        on a heap.  A share that falls is requeued at once, one that
        grows (the usual case) only when its old entry comes up.  So
        the least entry whose key is still the share is the tightest
        link.  The ranked entries are walked in order with the heap
        merged in, a link's scratch state is set when a round first
        reaches it, and the walk stops once every flow is frozen: no
        per-solve index, sort or pass over idle links (DESIGN.md §15).
        """
        self._solves += 1
        solve = self._solves
        unfrozen = len(self._flows)
        ranked = self._ranked
        requeued: list = []
        walked, total = 0, len(ranked)
        while unfrozen:
            if requeued and (walked == total or requeued[0] < ranked[walked]):
                key, order, bottleneck = heappop(requeued)
            else:
                key, order, bottleneck = ranked[walked]
                walked += 1
            if bottleneck.solve == solve:
                count = bottleneck.unfrozen
                if not count or key != bottleneck.key:
                    continue  # frozen, or superseded by a lower key
                share = bottleneck.residual / count
                if share != key:  # the share grew since the entry was queued
                    bottleneck.key = share
                    heappush(requeued, (share, order, bottleneck))
                    continue
            else:
                share = key  # untouched: the ranked share still holds
            if share == math.inf:
                raise SimulationError("progressive filling found no bottleneck")
            touched = []
            for flow in bottleneck.flows:
                if flow._frozen == solve:
                    continue
                flow._frozen = solve
                flow.rate = share
                unfrozen -= 1
                links = flow.links
                for link in links:
                    if link.solve != solve:
                        link.solve = solve
                        link.residual = link.capacity
                        link.unfrozen = len(link.flows)
                        link.key = link.entry[0]
                    link.residual -= share
                    link.unfrozen -= 1
                touched += links
            # A link listed twice is checked twice; the second finds its
            # key already lowered.
            for link in touched:
                if link.residual < 0.0:
                    link.residual = 0.0
                if link.unfrozen:
                    fallen = link.residual / link.unfrozen
                    if fallen < link.key:
                        link.key = fallen
                        heappush(requeued, (fallen, link.entry[1], link))

    def _on_wake(self, timer: Event) -> None:
        if timer._value != self._wake_generation:
            return  # superseded by a newer recompute
        self._settle()
        completed = [f for f in self._flows if f.remaining <= _EPSILON_BYTES]
        if not completed:
            # Guard against a float livelock: a flow whose projected
            # completion is below the representable time step can never
            # drain through settling — count it as done now.
            completed = [
                f
                for f in self._flows
                if f.rate > 0 and f.remaining / f.rate < _MIN_HORIZON
            ]
        for flow in completed:
            self._detach(flow)
            if flow.event.triggered:
                continue  # failed by its holder while draining
            self._record(flow)
            flow.event.succeed(flow)
        self._recompute()
