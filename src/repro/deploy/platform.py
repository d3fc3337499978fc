"""Calibration of the simulated Grid'5000 platform (paper §V-A).

Two kinds of constants live here:

* **measured by the paper** — NIC throughput (117.5 MB/s for TCP over
  the 1 Gbit/s links) and intra-cluster latency (0.1 ms).  These are
  taken verbatim.
* **calibrated** — quantities the paper does not report but that its
  curves pin down.  Each is documented with the observation that fixes
  it; EXPERIMENTS.md discusses the residual gaps.

The important calibrated constants:

``client_stream_cap``
    A single client stream tops out near 70 MB/s even though the NIC
    does 117.5 — the paper's own single-client curves (Figures 3(a)
    and 4 at N=1 show ~60-70 MB/s) fix this.  It models per-stream
    client-side costs (serialization, copies, TCP windows in the 2009
    userland) and applies identically to BSFS and HDFS clients.

``datanode_disk`` / ``provider ack discipline``
    HDFS datanodes acknowledge a chunk only after it is durably
    written (write-through), so an HDFS chunk costs network *plus*
    disk in sequence; BlobSeer providers acknowledge on receive and
    flush asynchronously (the C++ prototype cached blocks in memory).
    With a 100 MB/s sequential disk this yields the paper's ~40-45
    vs ~65 MB/s single-writer split (Figure 3(a)).

``hdfs_target_reuse``
    The namenode's target choice for a remote client is random, but
    the paper's *measured* layout imbalance (Figure 3(b): distance
    ~430 at 246 chunks over ~267 datanodes) is ~2.3x worse than an
    independent-uniform choice would produce.  A target-reuse run of
    ~3 consecutive chunks reproduces their measured curve; the same
    single calibrated mechanism then drives the read-side hotspots of
    Figures 4 and 6(b).  Functional-layer HDFS keeps pure random.

Reads are served from the datanode/provider page cache (every
experiment reads data written moments earlier in its boot-up phase,
40-85 MB per node — comfortably cached on 2-4 GB machines), so the
read path charges network but not disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simulation.cluster import GRID5000_LATENCY, GRID5000_NIC_RATE
from repro.simulation.disk import DiskSpec
from repro.util.bytesize import MB

__all__ = ["Calibration", "DEFAULT_CALIBRATION"]


@dataclass(frozen=True)
class Calibration:
    """All tunable constants of the simulated platform in one place."""

    # --- measured by the paper (§V-A) ---
    nic_rate: float = GRID5000_NIC_RATE
    latency: float = GRID5000_LATENCY

    # --- storage hardware (calibrated, see module docstring) ---
    disk: DiskSpec = field(
        default_factory=lambda: DiskSpec(
            read_rate=100 * MB, write_rate=100 * MB, seek_time=0.002, channels=1
        )
    )

    # --- client-side ---
    client_stream_cap: float = 70 * MB
    block_size: int = 64 * MB
    #: Transfers at or below this size are latency-bound control traffic
    #: and skip the max-min fluid model (simulation tractability; the
    #: experiments' bulk 64 MB flows always contend properly).
    small_flow_cutoff: float = 256 * 1024.0
    #: Max in-flight block commits for the BSFS write-behind client
    #: (BlobSeer writes blocks "in parallel to the providers", §III-D).
    bsfs_write_window: int = 4

    # --- control-plane service times ---
    rpc_bytes: float = 512.0
    #: Version manager: the serialization point (one worker!).
    vm_service: float = 3e-4
    #: Provider manager per allocation request.
    pm_service: float = 1e-4
    #: One metadata provider serving a tree-node get/put.
    mdp_service: float = 1e-4
    #: BSFS namespace manager per request.
    ns_service: float = 1e-4
    #: HDFS namenode per request (centralized: all metadata ops).
    nn_service: float = 2e-4

    # --- HDFS write path ---
    #: Datanodes ack a chunk only once durably on disk (write-through).
    hdfs_write_through: bool = True
    #: Calibrated namenode target-reuse run (see module docstring).
    hdfs_target_reuse: int = 3

    def __post_init__(self) -> None:
        if self.client_stream_cap <= 0:
            raise ValueError("client_stream_cap must be positive")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.bsfs_write_window < 1:
            raise ValueError("bsfs_write_window must be >= 1")
        if self.hdfs_target_reuse < 1:
            raise ValueError("hdfs_target_reuse must be >= 1")


#: The calibration used by every figure unless an ablation overrides it.
DEFAULT_CALIBRATION = Calibration()
