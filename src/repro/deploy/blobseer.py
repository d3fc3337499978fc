"""BlobSeer deployed on the simulated cluster (paper Figure 2).

Every process of the paper's architecture becomes an RPC service on a
:class:`~repro.simulation.cluster.SimNode`:

* the **version manager** — one worker (``concurrency=1``): version
  assignment is the protocol's only serialization point (§III-A.4),
  and the simulation enforces that architecturally;
* the **provider manager** — placement requests;
* **metadata providers** — each holds its hash-ring share of segment
  tree nodes;
* **data providers** — store blocks, acknowledge on receive, flush to
  disk asynchronously (the prototype buffers blocks in memory);
* the **namespace manager** — file→BLOB bindings for the BSFS facade.

The *logic* inside each service is the very same core class the
functional layer uses (``VersionManagerCore`` etc.) — the deployment
only adds placement of that logic onto nodes, message costs, queueing
and failure surfaces.  Client operations are generator protocols that
run the paper's §III-C/§III-D sequences over real simulated RPCs and
bulk flows.
"""

from __future__ import annotations

import itertools
from typing import Generator, Optional, Union

from repro.blob.block import (
    AnyBlockDescriptor,
    BytesPayload,
    Payload,
    SyntheticPayload,
    concat,
    write_descriptors,
)
from repro.blob.config import StoreConfig
from repro.blob.data_provider import DataProviderCore
from repro.blob.provider_manager import ProviderManagerCore
from repro.blob.segment_tree import DescentPlan, NodeKey, TreeNode, build_patch
from repro.blob.version_manager import AssignRequest, VersionManagerCore, WriteTicket
from repro.bsfs.namespace import NamespaceManager
from repro.deploy.platform import Calibration, DEFAULT_CALIBRATION
from repro.dht.ring import HashRing
from repro.errors import BlobError, ProviderUnavailable
from repro.simulation.cluster import SimCluster, SimNode
from repro.simulation.engine import Engine
from repro.simulation.rpc import Reply, RpcServer, call
from repro.util.chunks import split_range

__all__ = ["SimBlobSeer"]

#: Approximate wire size of one serialized tree node / descriptor.
_NODE_BYTES = 160.0
#: Wire size of one history record inside a ticket.
_RECORD_BYTES = 24.0
#: The version-manager calls a simulated client sends.
_VM_CALLS = frozenset(
    {"create_blob", "assign_batch", "commit_batch", "latest", "snapshot_info"}
)


def _only(results: list):
    """The one member of a batch of one; its error is raised."""
    [result] = results
    if isinstance(result, BlobError):
        raise result
    return result


class SimBlobSeer:
    """A full BlobSeer deployment over a :class:`SimCluster`."""

    def __init__(
        self,
        cluster: SimCluster,
        provider_nodes: list[SimNode],
        metadata_nodes: list[SimNode],
        version_manager_node: SimNode,
        provider_manager_node: SimNode,
        namespace_node: SimNode,
        calibration: Calibration = DEFAULT_CALIBRATION,
        placement: str = "round_robin",
        seed: int = 0,
        metadata_replication: int = 1,
        config: Optional[StoreConfig] = None,
    ):
        if not provider_nodes:
            raise ValueError("need at least one data provider node")
        if not metadata_nodes:
            raise ValueError("need at least one metadata provider node")
        if config is not None:
            # One description of a store for both layers: the functional
            # LocalBlobStore and this simulated deployment share a
            # StoreConfig, which overrides the matching loose kwargs.
            # Topology fields (provider counts, block size) stay with the
            # explicit node lists — the cluster defines the topology here.
            config.validate()
            placement = config.placement
            seed = config.seed
            metadata_replication = config.metadata_replication
        self.cluster = cluster
        self.cal = calibration
        self.metadata_replication = metadata_replication

        # --- cores (the same classes the functional layer runs) ---
        self.vm_core = VersionManagerCore()
        self.pm_core = ProviderManagerCore(policy=placement, rng=seed)
        self.dp_cores: dict[str, DataProviderCore] = {}
        for node in provider_nodes:
            self.pm_core.register(node.name)
            self.dp_cores[node.name] = DataProviderCore(node.name)
        self.ring = HashRing([n.name for n in metadata_nodes])
        self.md_buckets: dict[str, dict[NodeKey, TreeNode]] = {
            n.name: {} for n in metadata_nodes
        }
        self.namespace = NamespaceManager()

        # --- services ---
        self.vm_server = RpcServer(
            version_manager_node,
            "version-manager",
            handler=self._vm_handler,
            service_time=calibration.vm_service,
            concurrency=1,  # THE serialization point
        )
        self.pm_server = RpcServer(
            provider_manager_node,
            "provider-manager",
            handler=self._pm_handler,
            service_time=calibration.pm_service,
            concurrency=1,
        )
        self.ns_server = RpcServer(
            namespace_node,
            "namespace-manager",
            handler=self._ns_handler,
            service_time=calibration.ns_service,
            concurrency=1,
        )
        self.mdp_servers: dict[str, RpcServer] = {
            node.name: RpcServer(
                node,
                f"mdp-{node.name}",
                handler=self._make_mdp_handler(node.name),
                service_time=calibration.mdp_service,
                concurrency=8,
            )
            for node in metadata_nodes
        }
        self.dp_servers: dict[str, RpcServer] = {
            node.name: RpcServer(
                node,
                f"dp-{node.name}",
                handler=self._make_dp_handler(node.name),
                service_time=1e-5,
                concurrency=32,  # provider throughput is NIC-bound
            )
            for node in provider_nodes
        }
        self._nonce = itertools.count(1)
        #: Batched metadata RPCs issued by client protocols (each one
        #: covers a whole per-provider key/node group — the round-trip
        #: count the batching refactor optimizes; diagnostics surface).
        self.meta_rpcs = 0
        #: Version-manager RPCs issued by client protocols — the
        #: write-path twin of ``meta_rpcs``: one per create, one assign
        #: and one commit per write, one info per read.
        self.vman_rpcs = 0

    @property
    def engine(self) -> Engine:
        """The driving engine."""
        return self.cluster.engine

    # ------------------------------------------------------------------
    # service handlers (run on the service's node)
    # ------------------------------------------------------------------

    def _vm_handler(self, message: tuple):
        """Serve one version-manager call, named by its core method: the
        store's vocabulary, sent here as batches of one (DESIGN.md §10)."""
        op, *args = message
        if op not in _VM_CALLS:
            raise ValueError(f"unknown version-manager op {op!r}")
        result = getattr(self.vm_core, op)(*args)
        if op == "assign_batch":
            # A ticket carries one history record per lower version.
            records = (len(getattr(ticket, "history", ())) for ticket in result)
            return Reply(result, size=sum(64.0 + _RECORD_BYTES * n for n in records))
        return result

    def _pm_handler(self, message: tuple):
        op, count, sizes, replication, client = message
        assert op == "allocate"
        placements = self.pm_core.allocate(
            count, sizes, replication=replication, client=client
        )
        return Reply(placements, size=32.0 * count * replication)

    def _ns_handler(self, message: tuple):
        op = message[0]
        if op == "register":
            _, path, blob_id = message
            self.namespace.register_file(path, blob_id)
            return Reply(None)
        raise ValueError(f"unknown namespace op {op!r}")

    def _make_mdp_handler(self, bucket_name: str):
        bucket = self.md_buckets[bucket_name]

        def handler(message: tuple):
            op = message[0]
            if op == "multi_put":
                # Batched publish: a writer's whole share of a patch
                # for this provider lands in one request (DESIGN.md §9).
                for node in message[1]:
                    bucket[node.key] = node
                return Reply(None)
            if op == "multi_get":
                # Batched descent: one request answers a whole frontier
                # level's worth of keys owned by this provider.
                keys = message[1]
                found = {key: bucket[key] for key in keys}
                return Reply(found, size=_NODE_BYTES * max(len(found), 1))
            raise ValueError(f"unknown metadata op {op!r}")

        return handler

    def _make_dp_handler(self, provider_name: str):
        core = self.dp_cores[provider_name]
        node = self.cluster.node(provider_name)

        def handler(message: tuple):
            op = message[0]
            if op == "put":
                _, block_id, payload = message
                core.put(block_id, payload)
                # Acknowledge on receive; the flush happens off the
                # critical path (the prototype buffers in memory).
                node.disk.write(payload.size)
                return Reply(None)
            if op == "get":
                _, block_id, start, length = message
                payload = core.get(block_id)
                part = payload.slice(start, length)
                # Page-cache read (data written moments ago): no disk.
                return Reply(part, size=float(part.size))
            raise ValueError(f"unknown data-provider op {op!r}")

        return handler

    # ------------------------------------------------------------------
    # client protocols (generators; run from any client node)
    # ------------------------------------------------------------------

    def create(
        self,
        client: SimNode,
        blob_id: str,
        block_size: Optional[int] = None,
        replication: int = 1,
    ) -> Generator:
        """Create an empty BLOB (one version-manager RPC)."""
        bs = block_size if block_size is not None else self.cal.block_size
        self.vman_rpcs += 1
        yield from call(client, self.vm_server, ("create_blob", blob_id, bs, replication))
        return blob_id

    def write(
        self,
        client: SimNode,
        blob_id: str,
        data: Union[int, Payload],
        offset: Optional[int] = None,
        produce_rate: Optional[float] = None,
        replication: int = 1,
    ) -> Generator:
        """The §III-D write/append protocol.  ``offset=None`` appends.

        *data* is a payload (real or synthetic) or a plain byte count.
        ``produce_rate`` models the client generating/serializing the
        data concurrently with its transfer (a writer cannot ship bytes
        faster than it produces them); ``None`` means instantaneous.
        Returns the new snapshot version.
        """
        # Frozen once, as the store's write does (DESIGN.md §11): the
        # providers store the pieces as given.
        payload: Payload = (
            SyntheticPayload(int(data), tag=blob_id) if isinstance(data, int) else data.freeze()
        )
        state = self.vm_core.blob(blob_id)
        block_size = state.block_size
        pieces = [
            payload.slice(s.offset, s.length)
            for s in split_range(0, payload.size, block_size)
        ]
        sizes = [p.size for p in pieces]

        # 1. placement (provider manager RPC).
        placements = yield from call(
            client,
            self.pm_server,
            ("allocate", len(pieces), sizes, replication, client.name),
        )

        # 2. first phase: publish data blocks — "as no synchronization
        # is necessary, this step can be performed in a fully parallel
        # fashion" (§III-A.4).  Production overlaps the transfers.
        nonce = next(self._nonce)
        puts = []
        for seq, (piece, replicas) in enumerate(zip(pieces, placements)):
            for provider in replicas:
                puts.append(
                    self.engine.process(
                        call(
                            client,
                            self.dp_servers[provider],
                            ("put", (blob_id, nonce, seq), piece),
                            request_size=float(piece.size),
                        ),
                        name=f"put-{blob_id}-{nonce}-{seq}",
                    )
                )
        if produce_rate is not None:
            yield self.engine.timeout(payload.size / produce_rate)
        yield self.engine.all_of(puts)

        # 3. version assignment — the only serialized step.
        self.vman_rpcs += 1
        request = AssignRequest(blob_id, payload.size, offset)
        tickets = yield from call(client, self.vm_server, ("assign_batch", [request]))
        ticket: WriteTicket = _only(tickets)

        # 4. weave metadata from the ticket's hints and publish the
        # patch to the DHT — fully parallel across nodes and writers.
        start = ticket.start_block
        descriptors = write_descriptors(
            blob_id, ticket.version, start, sizes, placements, nonce
        )
        patch = build_patch(
            blob_id=blob_id,
            version=ticket.version,
            write_start=ticket.start_block,
            write_end=ticket.end_block,
            size_after_blocks=ticket.size_after_blocks,
            history=ticket.history,
            leaf_descriptor=lambda index: descriptors[index - start],
        )
        by_owner: dict[str, list] = {}
        for node in patch:
            for owner in self.ring.replicas(node.key, self.metadata_replication):
                by_owner.setdefault(owner, []).append(node)
        meta_puts = []
        for owner, nodes in by_owner.items():
            # One batched RPC per metadata provider instead of one per
            # node per replica: the per-request overhead is paid once
            # per provider, the payload still travels in full.
            self.meta_rpcs += 1
            meta_puts.append(
                self.engine.process(
                    call(
                        client,
                        self.mdp_servers[owner],
                        ("multi_put", tuple(nodes)),
                        request_size=_NODE_BYTES * len(nodes),
                    ),
                    name=f"meta-put-{blob_id}-{ticket.version}",
                )
            )
        yield self.engine.all_of(meta_puts)

        # 5. report success; the watermark advances in version order.
        self.vman_rpcs += 1
        item = (blob_id, ticket.version)
        _only((yield from call(client, self.vm_server, ("commit_batch", [item]))))
        return ticket.version

    def append(self, client: SimNode, blob_id: str, data, **kwargs) -> Generator:
        """Append = write with the offset fixed by the version manager."""
        version = yield from self.write(client, blob_id, data, offset=None, **kwargs)
        return version

    def read(
        self,
        client: SimNode,
        blob_id: str,
        offset: int = 0,
        size: Optional[int] = None,
        version: Optional[int] = None,
        consume_rate: Optional[float] = None,
    ) -> Generator:
        """The §III-C read protocol; returns the assembled payload.

        ``consume_rate`` caps each block transfer (the reader processes
        data as it streams); ``None`` reads at wire speed.
        """
        self.vman_rpcs += 1
        query = ("latest", blob_id) if version is None else ("snapshot_info", blob_id, version)
        info = yield from call(client, self.vm_server, query)
        if size is None:
            size = info.size - offset
        if size == 0:
            return SyntheticPayload(0, tag=blob_id)
        if offset < 0 or offset + size > info.size:
            raise ValueError(
                f"read [{offset}, {offset + size}) outside snapshot of {info.size}B"
            )

        # Metadata descent: one parallel batched-RPC round per tree
        # level — frontier keys are grouped by owning provider and each
        # provider is asked once per level, so a read costs O(tree
        # depth) round trips instead of O(nodes visited) (DESIGN.md §9).
        lo = offset // info.block_size
        hi = -(-(offset + size) // info.block_size)
        root = NodeKey(blob_id, info.version, 0, info.root_span)
        plan = DescentPlan(root, lo, hi)
        while not plan.done:
            frontier = plan.take_frontier()
            by_server: dict[str, list[NodeKey]] = {}
            for key in frontier:
                by_server.setdefault(self.ring.lookup(key), []).append(key)
            fetches = {}
            for server_name, keys in by_server.items():
                self.meta_rpcs += 1
                fetches[server_name] = self.engine.process(
                    call(
                        client,
                        self.mdp_servers[server_name],
                        ("multi_get", tuple(keys)),
                        request_size=self.cal.rpc_bytes + 8.0 * len(keys),
                    ),
                    name="meta-get",
                )
            results = yield self.engine.all_of(list(fetches.values()))
            for server_name, keys in by_server.items():
                found = results[fetches[server_name]]
                for key in keys:
                    plan.feed(key, found[key])
        descriptors = plan.blocks()

        # Block fetches: "requests are sent asynchronously and processed
        # in parallel by the data providers"; only the required parts of
        # the extremal blocks travel (§III-C).
        fetches = []
        for piece, descriptor in zip(
            split_range(offset, size, info.block_size), descriptors
        ):
            fetches.append(
                self.engine.process(
                    self._fetch_block(
                        client, descriptor, piece.start, piece.length, consume_rate
                    ),
                    name=f"fetch-{descriptor.index}",
                )
            )
        results = yield self.engine.all_of(fetches)
        total = sum(results[p].size for p in fetches)
        # ``concat`` joins real parts into ONE immutable result (each
        # byte copied once, DESIGN.md §11); mixed/synthetic parts
        # degrade to a synthetic payload of the same size.
        return SyntheticPayload(total, tag=blob_id) if not all(
            results[p].is_real for p in fetches
        ) else concat([results[p] for p in fetches])

    def _fetch_block(
        self,
        client: SimNode,
        descriptor: AnyBlockDescriptor,
        start: int,
        length: int,
        consume_rate: Optional[float],
    ) -> Generator:
        if descriptor.is_zero:
            # Tombstone filler (DESIGN.md §7): synthesised by the
            # client, no provider RPC and no simulated transfer cost.
            return BytesPayload(bytes(length))
        last_error: Optional[Exception] = None
        for provider in descriptor.providers:
            server = self.dp_servers[provider]
            try:
                part = yield from call(
                    client,
                    server,
                    ("get", descriptor.block_id, start, length),
                    request_size=self.cal.rpc_bytes,
                    rate_cap=consume_rate,
                )
                return part
            except (ProviderUnavailable, KeyError) as exc:
                last_error = exc
        raise ProviderUnavailable(
            f"no live replica of block {descriptor.block_id}"
        ) from last_error

    # -- BSFS facade bits ------------------------------------------------------

    def register_file(self, client: SimNode, path: str, blob_id: str) -> Generator:
        """Bind a path to a BLOB at the namespace manager."""
        yield from call(client, self.ns_server, ("register", path, blob_id))

    # -- diagnostics -------------------------------------------------------------

    def provider_block_counts(self) -> dict[str, int]:
        """Actually-stored blocks per provider (Figure 3(b) vector)."""
        return {name: core.block_count for name, core in sorted(self.dp_cores.items())}

    def block_hosts(self, blob_id: str, version: Optional[int] = None) -> list[tuple[str, ...]]:
        """Provider tuple per block of a snapshot (affinity data)."""
        info = (
            self.vm_core.latest(blob_id)
            if version is None
            else self.vm_core.snapshot_info(blob_id, version)
        )
        if info.size == 0:
            return []
        root = NodeKey(blob_id, info.version, 0, info.root_span)
        plan = DescentPlan(root, 0, info.size_blocks)
        while not plan.done:
            for key in plan.take_frontier():
                plan.feed(key, self.md_buckets[self.ring.lookup(key)][key])
        return [d.providers for d in plan.blocks()]
