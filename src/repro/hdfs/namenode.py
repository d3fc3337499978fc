"""HDFS namenode: centralized namespace + chunk-layout metadata.

"A centralized namenode is responsible to maintain both chunk layout
and directory structure metadata" (paper §II-B).  This is the
architectural contrast with BlobSeer: one server owns *all* metadata,
while data requests go straight to datanodes.

Write semantics enforced here are the paper's: "it allows only one
writer at a time, and, once written, data cannot be altered, neither by
overwriting nor by appending."
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import (
    FileNotFound,
    LeaseConflict,
    ReadOnlyFile,
)
from repro.fsapi import DirectoryTree, FileStatus, RangeLocation, normalize_path
from repro.hdfs.placement import HdfsPlacementPolicy

__all__ = ["ChunkInfo", "HdfsFileMeta", "NamenodeCore"]


@dataclass(frozen=True)
class ChunkInfo:
    """One chunk of one file: identity, size, datanode pipeline."""

    chunk_id: int
    size: int
    datanodes: tuple[str, ...]


@dataclass
class HdfsFileMeta:
    """Namenode record for one file."""

    chunks: list[ChunkInfo] = field(default_factory=list)
    complete: bool = False

    @property
    def size(self) -> int:
        """Total file size (sum of sealed chunks)."""
        return sum(c.size for c in self.chunks)


class NamenodeCore:
    """The metadata server: namespace, chunk maps, leases, placement."""

    def __init__(self, placement: Optional[HdfsPlacementPolicy] = None):
        self._tree = DirectoryTree()
        self._leases: dict[str, str] = {}
        self._datanodes: dict[str, bool] = {}  # name -> online
        self._chunk_ids = itertools.count(1)
        self.placement = placement if placement is not None else HdfsPlacementPolicy()
        #: Served requests — every client metadata op funnels through here.
        self.requests = 0

    # -- datanode membership -------------------------------------------------------

    def register_datanode(self, name: str) -> None:
        """A datanode reports for duty."""
        if name in self._datanodes:
            raise ValueError(f"datanode {name!r} already registered")
        self._datanodes[name] = True

    def mark_datanode(self, name: str, online: bool) -> None:
        """Heartbeat bookkeeping (failure injection hooks here)."""
        if name not in self._datanodes:
            raise FileNotFound(f"unknown datanode {name!r}")
        self._datanodes[name] = online

    def live_datanodes(self) -> list[str]:
        """Currently live datanodes, name order."""
        return sorted(n for n, up in self._datanodes.items() if up)

    # -- write path -------------------------------------------------------------------

    def create_file(self, path: str, client: str) -> None:
        """Open a new file for writing under a single-writer lease."""
        self.requests += 1
        path = normalize_path(path)
        if path in self._leases:
            raise LeaseConflict(f"{path} is already open for writing")
        self._tree.add_file(path, HdfsFileMeta())
        self._leases[path] = client

    def _writable_meta(self, path: str, client: str) -> HdfsFileMeta:
        path = normalize_path(path)
        lease_holder = self._leases.get(path)
        if lease_holder is None:
            meta = self._tree.handle(path)
            assert isinstance(meta, HdfsFileMeta)
            if meta.complete:
                raise ReadOnlyFile(f"{path} is complete; HDFS files are write-once")
            raise LeaseConflict(f"{path} has no active lease")
        if lease_holder != client:
            raise LeaseConflict(
                f"{path} is leased to {lease_holder!r}, not {client!r}"
            )
        meta = self._tree.handle(path)
        assert isinstance(meta, HdfsFileMeta)
        return meta

    def allocate_chunk(
        self, path: str, client: str, replication: int = 1
    ) -> ChunkInfo:
        """Assign the next chunk id and its datanode pipeline."""
        self.requests += 1
        self._writable_meta(path, client)  # validates lease
        pipeline = self.placement.choose_pipeline(
            self.live_datanodes(), replication, client
        )
        return ChunkInfo(chunk_id=next(self._chunk_ids), size=0, datanodes=pipeline)

    def commit_chunk(self, path: str, client: str, chunk: ChunkInfo, size: int) -> None:
        """Record a fully-written chunk in the file's chunk list."""
        self.requests += 1
        meta = self._writable_meta(path, client)
        if size < 1:
            raise ValueError(f"chunk size must be positive, got {size}")
        meta.chunks.append(
            ChunkInfo(chunk_id=chunk.chunk_id, size=size, datanodes=chunk.datanodes)
        )

    def complete_file(self, path: str, client: str) -> None:
        """Seal the file: it becomes immutable and the lease is released."""
        self.requests += 1
        meta = self._writable_meta(path, client)
        meta.complete = True
        del self._leases[normalize_path(path)]

    # -- read path ------------------------------------------------------------------------

    def file_meta(self, path: str) -> HdfsFileMeta:
        """Metadata for a file (readers tolerate in-progress files not)."""
        self.requests += 1
        meta = self._tree.handle(path)
        assert isinstance(meta, HdfsFileMeta)
        return meta

    def block_locations(self, path: str, offset: int, size: int) -> list[RangeLocation]:
        """Chunks overlapping a byte range, with their datanodes."""
        self.requests += 1
        meta = self._tree.handle(path)
        assert isinstance(meta, HdfsFileMeta)
        locations = []
        position = 0
        end = offset + size
        for chunk in meta.chunks:
            chunk_start, chunk_end = position, position + chunk.size
            if chunk_start < end and chunk_end > offset:
                lo = max(offset, chunk_start)
                hi = min(end, chunk_end)
                locations.append(
                    RangeLocation(offset=lo, length=hi - lo, hosts=chunk.datanodes)
                )
            position = chunk_end
        return locations

    # -- namespace --------------------------------------------------------------------------

    def exists(self, path: str) -> bool:
        """Existence check."""
        self.requests += 1
        return self._tree.exists(path)

    def is_dir(self, path: str) -> bool:
        """Directory check."""
        self.requests += 1
        return self._tree.is_dir(path)

    def status(self, path: str) -> FileStatus:
        """File or directory status."""
        self.requests += 1
        path = normalize_path(path)
        if self._tree.is_dir(path):
            return FileStatus(path=path, is_dir=True, size=0)
        meta = self._tree.handle(path)
        assert isinstance(meta, HdfsFileMeta)
        return FileStatus(path=path, is_dir=False, size=meta.size)

    def list_dir(self, path: str) -> list[str]:
        """Immediate children."""
        self.requests += 1
        return self._tree.list_dir(path)

    def make_dirs(self, path: str) -> None:
        """``mkdir -p``."""
        self.requests += 1
        self._tree.make_dirs(path)

    def delete(self, path: str, recursive: bool = False) -> list[HdfsFileMeta]:
        """Remove namespace entries; returns metas whose chunks to free."""
        self.requests += 1
        path = normalize_path(path)
        if path in self._leases:
            raise LeaseConflict(f"{path} is open for writing")
        removed = self._tree.remove(path, recursive=recursive)
        return [m for m in removed if isinstance(m, HdfsFileMeta)]
