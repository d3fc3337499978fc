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
code, which is exactly what the reproduction needs (see DESIGN.md §2).

Rates are recomputed lazily, only when the flow population changes; in
between, completion times are exact because rates are constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.simulation.engine import Engine, Event

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
    :meth:`FlowNetwork.transfer` to create flows and :meth:`cancel` to
    abort one (failure injection).
    """

    __slots__ = (
        "src", "dst", "size", "remaining", "event", "rate",
        "started_at", "active", "_links", "cap",
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
        self.active = False
        self._links: tuple[object, ...] = ()
        #: Optional per-flow rate ceiling (models a single-stream client
        #: processing limit independent of NIC capacity).
        self.cap = cap

    def cancel(self, exception: BaseException) -> None:
        """Abort the transfer; the transfer event fails with *exception*."""
        if self.event.triggered:
            return
        self.active = False
        self.event.fail(exception)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Flow {self.src}->{self.dst} {self.remaining:.0f}/{self.size:.0f}B "
            f"@{self.rate:.0f}B/s>"
        )


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
        self._flows: set[Flow] = set()
        self._last_settled = engine.now
        self._wake_generation = 0
        self.stats = TransferStats()
        #: Optional observer invoked as ``fn(flow)`` on each completion.
        self.on_complete: Optional[Callable[[Flow], None]] = None

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
            port.egress = float(egress)
        if ingress is not None:
            if ingress <= 0:
                raise ValueError("ingress must be positive")
            port.ingress = float(ingress)
        self._settle()
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
        if src not in self._nodes:
            raise SimulationError(f"unknown source node {src!r}")
        if dst not in self._nodes:
            raise SimulationError(f"unknown destination node {dst!r}")
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if rate_cap is not None and rate_cap <= 0:
            raise ValueError(f"rate_cap must be positive, got {rate_cap}")
        lat = self.latency if latency is None else latency
        done = Event(self.engine)
        flow = Flow(src, dst, nbytes, done, cap=rate_cap)
        self.stats.transfers_started += 1
        if src == dst:
            # Local copy: loopback bypasses the NIC but still honours a
            # per-stream ceiling (the producer/consumer is no faster
            # just because the bytes stay on the machine).
            rate = self.loopback_rate if rate_cap is None else min(
                self.loopback_rate, rate_cap
            )
            duration = lat + nbytes / rate
            local_done = self.engine.timeout(duration)
            local_done.add_callback(lambda _ev: self._finish_local(flow))
            return done
        if nbytes == 0:
            zero = self.engine.timeout(lat)
            zero.add_callback(lambda _ev: self._finish_local(flow))
            return done
        if nbytes <= self.small_flow_cutoff:
            # Latency-bound control message: bypass the fluid model.
            rate = min(self._nodes[src].egress, self._nodes[dst].ingress)
            if rate_cap is not None:
                rate = min(rate, rate_cap)
            small_done = self.engine.timeout(lat + nbytes / rate)
            small_done.add_callback(lambda _ev: self._finish_local(flow))
            return done
        start = self.engine.timeout(lat)
        start.add_callback(lambda _ev: self._start_flow(flow))
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
            self._flows.discard(flow)
            flow.cancel(exception)
        self._recompute()
        return len(victims)

    # -- internals ------------------------------------------------------------

    def _finish_local(self, flow: Flow) -> None:
        if flow.event.triggered:
            return
        flow.started_at = self.engine.now
        self.stats.transfers_completed += 1
        self.stats.bytes_completed += flow.size
        self.stats.bytes_by_source[flow.src] = (
            self.stats.bytes_by_source.get(flow.src, 0.0) + flow.size
        )
        self.stats.bytes_by_dest[flow.dst] = (
            self.stats.bytes_by_dest.get(flow.dst, 0.0) + flow.size
        )
        flow.event.succeed(flow)
        if self.on_complete is not None:
            self.on_complete(flow)

    def _start_flow(self, flow: Flow) -> None:
        if flow.event.triggered:  # cancelled before it started
            return
        self._settle()
        flow.active = True
        flow.started_at = self.engine.now
        links: list[object] = [("out", flow.src), ("in", flow.dst)]
        if self.core_capacity is not None:
            links.append(("core", None))
        if flow.cap is not None:
            # A private link only this flow traverses: its fair share on
            # it is the whole cap, bounding the flow's rate.
            links.append(("cap", id(flow), float(flow.cap)))
        flow._links = tuple(links)
        self._flows.add(flow)
        self._recompute()

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

    def _link_capacity(self, link: tuple) -> float:
        kind = link[0]
        if kind == "out":
            return self._nodes[link[1]].egress
        if kind == "in":
            return self._nodes[link[1]].ingress
        if kind == "cap":
            return float(link[2])
        return float(self.core_capacity)  # kind == "core"

    def _recompute(self) -> None:
        """Assign max-min fair rates and schedule the next completion."""
        # Drop cancelled flows.
        dead = [f for f in self._flows if f.event.triggered and not f.active]
        for f in dead:
            self._flows.discard(f)

        flows = list(self._flows)
        if flows:
            self._assign_maxmin_rates(flows)

        # Schedule a wake-up at the earliest projected completion.
        self._wake_generation += 1
        generation = self._wake_generation
        horizon = math.inf
        for f in flows:
            if f.rate > 0:
                horizon = min(horizon, f.remaining / f.rate)
        if horizon is not math.inf and flows:
            wake = self.engine.timeout(max(horizon, 0.0) * (1.0 + _TIME_SLACK))
            wake.add_callback(lambda _ev: self._on_wake(generation))

    def _assign_maxmin_rates(self, flows: list[Flow]) -> None:
        """Vectorized progressive filling.

        Each round saturates the tightest remaining link, freezing every
        unfrozen flow through it at the link's fair share.  Arrays keep
        per-link residual capacity and unfrozen membership counts, so a
        round is O(flows) numpy work and the loop runs at most once per
        link — fast enough for the 250-client experiments.
        """
        import numpy as np

        # Index the links each flow traverses (at most 3: out, in, cap).
        link_ids: dict[tuple, int] = {}
        max_links = 0
        for f in flows:
            max_links = max(max_links, len(f._links))
            for link in f._links:
                if link not in link_ids:
                    link_ids[link] = len(link_ids)
        n_links = len(link_ids)
        membership = np.full((len(flows), max_links), -1, dtype=np.int64)
        for i, f in enumerate(flows):
            for j, link in enumerate(f._links):
                membership[i, j] = link_ids[link]
        capacity = np.empty(n_links, dtype=np.float64)
        for link, idx in link_ids.items():
            capacity[idx] = self._link_capacity(link)
        count = np.zeros(n_links, dtype=np.float64)
        valid = membership >= 0
        np.add.at(count, membership[valid], 1.0)

        rates = np.zeros(len(flows), dtype=np.float64)
        frozen = np.zeros(len(flows), dtype=bool)
        remaining = capacity.copy()
        while not frozen.all():
            with np.errstate(divide="ignore", invalid="ignore"):
                shares = np.where(count > 0, remaining / count, math.inf)
            bottleneck = int(np.argmin(shares))
            share = shares[bottleneck]
            if not math.isfinite(share):  # pragma: no cover - defensive
                raise SimulationError("progressive filling found no bottleneck")
            hit = (~frozen) & (membership == bottleneck).any(axis=1)
            if not hit.any():  # pragma: no cover - defensive
                raise SimulationError("bottleneck link with no unfrozen flows")
            rates[hit] = share
            frozen |= hit
            used = membership[hit]
            used = used[used >= 0]
            np.subtract.at(remaining, used, share)
            np.subtract.at(count, used, 1.0)
            np.maximum(remaining, 0.0, out=remaining)
        for i, f in enumerate(flows):
            f.rate = float(rates[i])

    def _on_wake(self, generation: int) -> None:
        if generation != self._wake_generation:
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
        if not completed:
            self._recompute()
            return
        for flow in completed:
            self._flows.discard(flow)
            flow.active = False
            if flow.event.triggered:
                continue  # cancelled at the exact completion instant
            self.stats.transfers_completed += 1
            self.stats.bytes_completed += flow.size
            self.stats.bytes_by_source[flow.src] = (
                self.stats.bytes_by_source.get(flow.src, 0.0) + flow.size
            )
            self.stats.bytes_by_dest[flow.dst] = (
                self.stats.bytes_by_dest.get(flow.dst, 0.0) + flow.size
            )
            flow.event.succeed(flow)
            if self.on_complete is not None:
                self.on_complete(flow)
        self._recompute()
