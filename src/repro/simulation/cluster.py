"""Simulated cluster: nodes with NICs and disks on a shared network.

Mirrors one Grid'5000 cluster from the paper's §V-A: x86_64 boxes behind
a non-blocking gigabit switch, 117.5 MB/s measured TCP throughput,
0.1 ms intra-cluster latency.  :class:`SimCluster` is the container the
deployment layer (``repro.deploy``) populates with services.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.simulation.disk import Disk, DiskSpec
from repro.simulation.engine import Engine, Event
from repro.simulation.network import FlowNetwork

__all__ = ["NodeSpec", "SimNode", "SimCluster", "GRID5000_NIC_RATE", "GRID5000_LATENCY"]

#: Measured TCP throughput of the paper's 1 Gbit/s links (117.5 MB/s).
GRID5000_NIC_RATE = 117.5 * (1 << 20)
#: Intra-cluster one-way latency from the paper (0.1 ms).
GRID5000_LATENCY = 1e-4


@dataclass(frozen=True)
class NodeSpec:
    """Hardware profile of a simulated machine."""

    nic_rate: float = GRID5000_NIC_RATE
    disk: DiskSpec = field(default_factory=DiskSpec)

    def __post_init__(self) -> None:
        if self.nic_rate <= 0:
            raise ValueError("nic_rate must be positive")


class SimNode:
    """One machine: a name, a NIC port in the flow network and a disk."""

    def __init__(self, cluster: "SimCluster", name: str, spec: NodeSpec):
        self.cluster = cluster
        #: The engine driving this node's cluster.
        self.engine: Engine = cluster.engine
        #: The cluster's flow network (the node's NIC is a port on it).
        self.network: FlowNetwork = cluster.network
        self.name = name
        self.spec = spec
        self.disk = Disk(cluster.engine, spec.disk)
        #: Set False by failure injection; services check it.
        self.online = True
        self.network.add_node(name, egress=spec.nic_rate, ingress=spec.nic_rate)

    def send(self, dst: "SimNode | str", nbytes: float) -> Event:
        """Transfer *nbytes* from this node to *dst* over the network."""
        dst_name = dst if isinstance(dst, str) else dst.name
        return self.network.transfer(self.name, dst_name, nbytes)

    def fail(self) -> None:
        """Mark the node offline and kill its in-flight transfers."""
        from repro.errors import ProviderUnavailable

        self.online = False
        self.network.cancel_node_flows(
            self.name, ProviderUnavailable(f"node {self.name} failed")
        )

    def recover(self) -> None:
        """Bring the node back online (state loss is up to the service)."""
        self.online = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimNode {self.name} {'up' if self.online else 'DOWN'}>"


class SimCluster:
    """A set of :class:`SimNode` machines sharing one switch."""

    def __init__(
        self,
        engine: Engine | None = None,
        latency: float = GRID5000_LATENCY,
        core_capacity: float | None = None,
        small_flow_cutoff: float = 0.0,
    ):
        self.engine = engine if engine is not None else Engine()
        self.network = FlowNetwork(
            self.engine,
            latency=latency,
            core_capacity=core_capacity,
            small_flow_cutoff=small_flow_cutoff,
        )
        self.nodes: dict[str, SimNode] = {}

    def add_node(self, name: str, spec: NodeSpec | None = None) -> SimNode:
        """Create one node; names must be unique within the cluster."""
        if name in self.nodes:
            raise SimulationError(f"node {name!r} already exists")
        node = SimNode(self, name, spec or NodeSpec())
        self.nodes[name] = node
        return node

    def add_nodes(self, prefix: str, count: int, spec: NodeSpec | None = None) -> list[SimNode]:
        """Create ``count`` nodes named ``{prefix}-000`` .. ``{prefix}-NNN``."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        width = max(3, len(str(max(count - 1, 0))))
        return [
            self.add_node(f"{prefix}-{i:0{width}d}", spec) for i in range(count)
        ]

    def node(self, name: str) -> SimNode:
        """Look up a node by name."""
        try:
            return self.nodes[name]
        except KeyError:
            raise SimulationError(f"unknown node {name!r}") from None

    def __len__(self) -> int:
        return len(self.nodes)
