"""Discrete-event simulation substrate (the Grid'5000 stand-in).

Public surface:

* :class:`Engine`, :class:`Event`, :class:`Process` — the event kernel.
* :class:`Resource`, :class:`Store` — synchronization.
* :class:`FlowNetwork` — max-min fair fluid network.
* :class:`Disk` — FIFO storage device.
* :class:`SimCluster`, :class:`SimNode` — machines wired to a network.
* :class:`RpcServer`, :func:`call` — service messaging.
"""

from repro.simulation.cluster import (
    GRID5000_LATENCY,
    GRID5000_NIC_RATE,
    NodeSpec,
    SimCluster,
    SimNode,
)
from repro.simulation.disk import Disk, DiskSpec
from repro.simulation.engine import AllOf, Engine, Event, Process, Timeout
from repro.simulation.network import Flow, FlowNetwork, NodePort, TransferStats
from repro.simulation.resources import Request, Resource, Store
from repro.simulation.rpc import DEFAULT_RPC_BYTES, Reply, RpcServer, call

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "Resource",
    "Request",
    "Store",
    "FlowNetwork",
    "Flow",
    "NodePort",
    "TransferStats",
    "Disk",
    "DiskSpec",
    "SimCluster",
    "SimNode",
    "NodeSpec",
    "GRID5000_NIC_RATE",
    "GRID5000_LATENCY",
    "RpcServer",
    "Reply",
    "call",
    "DEFAULT_RPC_BYTES",
]
