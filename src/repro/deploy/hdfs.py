"""HDFS deployed on the simulated cluster.

One namenode service (every metadata operation funnels through it) and
one datanode service per storage node.  The write path reproduces the
Hadoop-0.20 client behaviour the paper benchmarks against:

* chunks stream **sequentially**, one pipeline at a time, at the
  effective rate ``min(client stream, NIC fair share, datanode
  ingest)`` — the datanode receive path (checksum verification plus
  synchronous small writes) tops out well below wire speed
  (``Calibration`` docs);
* each chunk boundary stalls the writer for the pipeline close +
  ``addBlock`` + finalize sequence (namenode RPCs plus the buffered
  tail draining to disk) before the next pipeline opens;
* placement is local-first, else (calibrated) random — see
  :class:`~repro.hdfs.placement.HdfsPlacementPolicy`.

Reads stream chunks sequentially from datanodes (page-cache served).
"""

from __future__ import annotations

from typing import Generator, Optional, Union

from repro.blob.block import Payload, SyntheticPayload
from repro.deploy.platform import Calibration, DEFAULT_CALIBRATION
from repro.errors import ProviderUnavailable
from repro.hdfs.datanode import DatanodeCore
from repro.hdfs.namenode import ChunkInfo, NamenodeCore
from repro.hdfs.placement import HdfsPlacementPolicy
from repro.simulation.cluster import SimCluster, SimNode
from repro.simulation.engine import Engine
from repro.simulation.rpc import Reply, RpcServer, call
from repro.util.bytesize import MB
from repro.util.chunks import split_range
from repro.util.rng import SeededRng

__all__ = ["SimHDFS"]

#: Datanode ingest ceiling: CRC verification + synchronous 64 KB writes
#: in the 0.20 receive path (calibrated on Figure 3(a), see platform.py).
DATANODE_INGEST = 48 * MB
#: Writer stall at each chunk boundary: pipeline close, addBlock RPC,
#: block finalize, next pipeline setup (calibrated on Figure 3(a)).
CHUNK_STALL = 0.28


class SimHDFS:
    """A namenode + datanodes deployment over a :class:`SimCluster`."""

    def __init__(
        self,
        cluster: SimCluster,
        datanode_nodes: list[SimNode],
        namenode_node: SimNode,
        calibration: Calibration = DEFAULT_CALIBRATION,
        replication: int = 1,
        seed: int = 0,
        datanode_ingest: float = DATANODE_INGEST,
        chunk_stall: float = CHUNK_STALL,
    ):
        if not datanode_nodes:
            raise ValueError("need at least one datanode")
        self.cluster = cluster
        self.cal = calibration
        self.replication = replication
        self.datanode_ingest = datanode_ingest
        self.chunk_stall = chunk_stall
        self.nn_core = NamenodeCore(
            placement=HdfsPlacementPolicy(
                rng=SeededRng(seed),
                target_reuse=calibration.hdfs_target_reuse,
            )
        )
        self.dn_cores: dict[str, DatanodeCore] = {}
        for node in datanode_nodes:
            self.nn_core.register_datanode(node.name)
            self.dn_cores[node.name] = DatanodeCore(node.name)
        self.nn_server = RpcServer(
            namenode_node,
            "namenode",
            handler=self._nn_handler,
            service_time=calibration.nn_service,
            concurrency=1,  # the centralized metadata server
        )
        self.dn_servers: dict[str, RpcServer] = {
            node.name: RpcServer(
                node,
                f"dn-{node.name}",
                handler=self._make_dn_handler(node.name),
                service_time=1e-5,
                concurrency=32,
            )
            for node in datanode_nodes
        }

    @property
    def engine(self) -> Engine:
        """The driving engine."""
        return self.cluster.engine

    # -- handlers --------------------------------------------------------------

    def _nn_handler(self, message: tuple):
        op = message[0]
        if op == "create":
            _, path, client = message
            self.nn_core.create_file(path, client)
            return Reply(None)
        if op == "allocate":
            _, path, client, replication = message
            return Reply(self.nn_core.allocate_chunk(path, client, replication))
        if op == "commit_chunk":
            _, path, client, chunk, size = message
            self.nn_core.commit_chunk(path, client, chunk, size)
            return Reply(None)
        if op == "complete":
            _, path, client = message
            self.nn_core.complete_file(path, client)
            return Reply(None)
        if op == "locations":
            _, path, offset, size = message
            locations = self.nn_core.block_locations(path, offset, size)
            return Reply(locations, size=48.0 * max(1, len(locations)))
        if op == "status":
            return Reply(self.nn_core.status(message[1]))
        raise ValueError(f"unknown namenode op {op!r}")

    def _make_dn_handler(self, name: str):
        core = self.dn_cores[name]
        node = self.cluster.node(name)

        def handler(message: tuple):
            op = message[0]
            if op == "put":
                _, chunk_id, payload = message
                core.put_chunk(chunk_id, payload)
                node.disk.write(payload.size)  # flush off the ack path;
                # the synchronous-write cost is in the ingest ceiling.
                return Reply(None)
            if op == "get":
                _, chunk_id, start, length = message
                part = core.get_chunk(chunk_id).slice(start, length)
                return Reply(part, size=float(part.size))  # page-cache read
            raise ValueError(f"unknown datanode op {op!r}")

        return handler

    # -- client protocols ---------------------------------------------------------

    def write_file(
        self,
        client: SimNode,
        path: str,
        data: Union[int, Payload],
        produce_rate: Optional[float] = None,
    ) -> Generator:
        """Create and write a whole file, chunk pipeline by pipeline."""
        payload: Payload = (
            SyntheticPayload(int(data), tag=path) if isinstance(data, int) else data
        )
        yield from call(client, self.nn_server, ("create", path, client.name))
        for piece_info in split_range(0, payload.size, self.cal.block_size):
            piece = payload.slice(piece_info.offset, piece_info.length)
            yield from self.write_chunk(client, path, piece, produce_rate=produce_rate)
        yield from call(client, self.nn_server, ("complete", path, client.name))

    def write_chunk(
        self,
        client: SimNode,
        path: str,
        piece: Payload,
        produce_rate: Optional[float] = None,
    ) -> Generator:
        """One chunk: allocate → stream through the pipeline → stall.

        The stream rate composes the producer, the NIC fair share and
        the datanode ingest ceiling; replication forwards sequentially
        (store-and-forward approximation of the pipeline).
        """
        chunk: ChunkInfo = yield from call(
            client, self.nn_server, ("allocate", path, client.name, self.replication)
        )
        cap = self.datanode_ingest
        if produce_rate is not None:
            cap = min(cap, produce_rate)
        previous = client
        for dn_name in chunk.datanodes:
            yield from call(
                previous,
                self.dn_servers[dn_name],
                ("put", chunk.chunk_id, piece),
                request_size=float(piece.size),
                rate_cap=cap,
            )
            previous = self.cluster.node(dn_name)
        yield from call(
            client, self.nn_server, ("commit_chunk", path, client.name, chunk, piece.size)
        )
        if self.chunk_stall:
            yield self.engine.timeout(self.chunk_stall)

    def read(
        self,
        client: SimNode,
        path: str,
        offset: int = 0,
        size: Optional[int] = None,
        consume_rate: Optional[float] = None,
    ) -> Generator:
        """Stream a byte range (sequential chunk fetches, like DFSClient)."""
        if size is None:
            status = yield from call(client, self.nn_server, ("status", path))
            size = status.size - offset
        if size == 0:
            return SyntheticPayload(0, tag=path)
        locations = yield from call(
            client, self.nn_server, ("locations", path, offset, size)
        )
        total = 0
        for location in locations:
            chunk_index = location.offset // self.cal.block_size
            start = location.offset - chunk_index * self.cal.block_size
            part = yield from self._fetch_chunk(
                client, path, location, start, location.length, consume_rate
            )
            total += part.size
        return SyntheticPayload(total, tag=path)

    def _fetch_chunk(
        self, client, path, location, start, length, consume_rate
    ) -> Generator:
        last_error: Optional[Exception] = None
        meta = self.nn_core.file_meta(path)
        chunk = next(
            c
            for c, loc_offset in _chunks_with_offsets(meta.chunks)
            if loc_offset <= location.offset < loc_offset + c.size
        )
        # Replica choice, DFSClient-style: the local replica if the
        # reader hosts one, otherwise a client-dependent rotation so
        # remote readers on different nodes spread over the replica set.
        hosts = list(location.hosts)
        if client.name in hosts:
            hosts.sort(key=lambda h: (h != client.name,))
        elif len(hosts) > 1:
            from repro.dht.ring import stable_hash

            pivot = stable_hash(client.name) % len(hosts)
            hosts = hosts[pivot:] + hosts[:pivot]
        for dn_name in hosts:
            try:
                part = yield from call(
                    client,
                    self.dn_servers[dn_name],
                    ("get", chunk.chunk_id, start, length),
                    request_size=self.cal.rpc_bytes,
                    rate_cap=consume_rate,
                )
                return part
            except (ProviderUnavailable, KeyError) as exc:
                last_error = exc
        raise ProviderUnavailable(
            f"no live replica of chunk {chunk.chunk_id}"
        ) from last_error

    # -- diagnostics ---------------------------------------------------------------

    def datanode_chunk_counts(self) -> dict[str, int]:
        """Actually-stored chunks per datanode (Figure 3(b) vector)."""
        return {name: core.chunk_count for name, core in sorted(self.dn_cores.items())}

    def chunk_hosts(self, path: str) -> list[tuple[str, ...]]:
        """Datanode tuple per chunk of a file (affinity data)."""
        return [c.datanodes for c in self.nn_core.file_meta(path).chunks]


def _chunks_with_offsets(chunks):
    offset = 0
    for chunk in chunks:
        yield chunk, offset
        offset += chunk.size
