"""Deployment recipes from the paper's evaluation (§V-C, §V-G).

Microbenchmarks (§V-C), on 270 machines of one Grid'5000 cluster:

* HDFS — one dedicated namenode, datanodes on the remaining nodes;
* BSFS — one version manager, one provider manager, one namespace
  manager and 20 metadata providers on dedicated machines; data
  providers on the remaining nodes.

Application runs (§V-G) co-deploy a tasktracker with a datanode/data
provider per machine (50 for RandomTextWriter with 10 metadata
providers, 150 for grep with 20), all managers on dedicated nodes.

Clients are placed per scenario: the single writer and the boot-up
writers run on a dedicated non-storage node (so HDFS cannot take its
local-write shortcut — the paper is explicit about this); concurrent
readers run *on* storage machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.deploy.blobseer import SimBlobSeer
from repro.deploy.hadoop import (
    BlobSeerAdapter,
    HdfsAdapter,
    JobProfile,
    SimHadoop,
    StorageAdapter,
)
from repro.deploy.hdfs import SimHDFS
from repro.deploy.platform import Calibration, DEFAULT_CALIBRATION
from repro.simulation.cluster import NodeSpec, SimCluster, SimNode

__all__ = [
    "MicrobenchDeployment",
    "MapReduceDeployment",
    "deploy_microbench",
    "deploy_mapreduce",
]


@dataclass
class MicrobenchDeployment:
    """A §V-C deployment of one backend plus client machines."""

    backend: str
    cluster: SimCluster
    storage: object  # SimBlobSeer | SimHDFS
    storage_nodes: list[SimNode]
    dedicated_client: SimNode
    calibration: Calibration = field(default_factory=Calibration)


def _node_spec(cal: Calibration) -> NodeSpec:
    return NodeSpec(nic_rate=cal.nic_rate, disk=cal.disk)


def deploy_microbench(
    backend: str,
    total_nodes: int = 270,
    metadata_providers: int = 20,
    calibration: Calibration = DEFAULT_CALIBRATION,
    placement: str = "round_robin",
    seed: int = 0,
) -> MicrobenchDeployment:
    """Build the §V-C deployment for ``backend`` ("bsfs" or "hdfs").

    One extra machine hosts the dedicated client used by the write
    scenarios (the paper always deploys clients on separate machines
    from the entity they exercise when fairness demands it).
    """
    if backend not in ("bsfs", "hdfs"):
        raise ValueError(f"backend must be 'bsfs' or 'hdfs', got {backend!r}")
    if total_nodes < 25:
        raise ValueError("deployment needs at least 25 nodes")
    cluster = SimCluster(
        latency=calibration.latency,
        small_flow_cutoff=calibration.small_flow_cutoff,
    )
    spec = _node_spec(calibration)
    client = cluster.add_node("client-writer", spec)

    if backend == "hdfs":
        namenode = cluster.add_node("namenode", spec)
        datanodes = cluster.add_nodes("datanode", total_nodes - 1, spec)
        storage = SimHDFS(
            cluster,
            datanode_nodes=datanodes,
            namenode_node=namenode,
            calibration=calibration,
            seed=seed,
        )
        return MicrobenchDeployment(
            backend=backend,
            cluster=cluster,
            storage=storage,
            storage_nodes=datanodes,
            dedicated_client=client,
            calibration=calibration,
        )

    vm_node = cluster.add_node("version-manager", spec)
    pm_node = cluster.add_node("provider-manager", spec)
    ns_node = cluster.add_node("namespace-manager", spec)
    mdp_nodes = cluster.add_nodes("mdp", metadata_providers, spec)
    n_providers = total_nodes - 3 - metadata_providers
    provider_nodes = cluster.add_nodes("provider", n_providers, spec)
    storage = SimBlobSeer(
        cluster,
        provider_nodes=provider_nodes,
        metadata_nodes=mdp_nodes,
        version_manager_node=vm_node,
        provider_manager_node=pm_node,
        namespace_node=ns_node,
        calibration=calibration,
        placement=placement,
        seed=seed,
    )
    return MicrobenchDeployment(
        backend=backend,
        cluster=cluster,
        storage=storage,
        storage_nodes=provider_nodes,
        dedicated_client=client,
        calibration=calibration,
    )


@dataclass
class MapReduceDeployment:
    """A §V-G co-deployment: tasktracker + storage daemon per machine."""

    backend: str
    cluster: SimCluster
    storage: object
    adapter: StorageAdapter
    hadoop: SimHadoop
    worker_nodes: list[SimNode]
    dedicated_client: SimNode
    calibration: Calibration = field(default_factory=Calibration)


def deploy_mapreduce(
    backend: str,
    workers: int = 50,
    metadata_providers: int = 10,
    calibration: Calibration = DEFAULT_CALIBRATION,
    profile: Optional[JobProfile] = None,
    placement: str = "round_robin",
    seed: int = 0,
    replication: int = 1,
) -> MapReduceDeployment:
    """Build a §V-G co-deployment for ``backend`` ("bsfs" or "hdfs").

    Each of the ``workers`` machines runs both a tasktracker and a
    datanode / data provider; managers (jobtracker, namenode or the
    BlobSeer managers, and the metadata providers) sit on dedicated
    machines, exactly as described for the application experiments.
    """
    if backend not in ("bsfs", "hdfs"):
        raise ValueError(f"backend must be 'bsfs' or 'hdfs', got {backend!r}")
    if workers < 1:
        raise ValueError("need at least one worker")
    cluster = SimCluster(
        latency=calibration.latency,
        small_flow_cutoff=calibration.small_flow_cutoff,
    )
    spec = _node_spec(calibration)
    client = cluster.add_node("job-client", spec)
    worker_nodes = cluster.add_nodes("worker", workers, spec)

    storage: object
    adapter: StorageAdapter
    if backend == "hdfs":
        namenode = cluster.add_node("namenode", spec)
        storage = SimHDFS(
            cluster,
            datanode_nodes=worker_nodes,
            namenode_node=namenode,
            calibration=calibration,
            seed=seed,
            replication=replication,
        )
        adapter = HdfsAdapter(storage)
    else:
        vm_node = cluster.add_node("version-manager", spec)
        pm_node = cluster.add_node("provider-manager", spec)
        ns_node = cluster.add_node("namespace-manager", spec)
        mdp_nodes = cluster.add_nodes("mdp", metadata_providers, spec)
        storage = SimBlobSeer(
            cluster,
            provider_nodes=worker_nodes,
            metadata_nodes=mdp_nodes,
            version_manager_node=vm_node,
            provider_manager_node=pm_node,
            namespace_node=ns_node,
            calibration=calibration,
            placement=placement,
            seed=seed,
        )
        adapter = BlobSeerAdapter(storage)

    hadoop = SimHadoop(
        cluster,
        adapter=adapter,
        tracker_nodes=worker_nodes,
        profile=profile if profile is not None else JobProfile(),
    )
    return MapReduceDeployment(
        backend=backend,
        cluster=cluster,
        storage=storage,
        adapter=adapter,
        hadoop=hadoop,
        worker_nodes=worker_nodes,
        dedicated_client=client,
        calibration=calibration,
    )
