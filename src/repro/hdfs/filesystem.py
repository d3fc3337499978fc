"""HDFS: the baseline file system (paper §II-B).

Single-writer, write-once, no append.  Chunks stream sequentially
through one pipeline at a time (HDFS's DFSClient writes one block
pipeline at a time), the namenode is on every metadata path, and
placement is local-first-else-random — the exact properties the paper's
microbenchmarks expose against BSFS.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.blob.block import BytesPayload, Payload
from repro.bsfs.cache import BlockReadCache, CachedReadStream, WriteBuffer
from repro.errors import (
    AppendNotSupported,
    IsADirectory,
    ProviderUnavailable,
)
from repro.fsapi import FileStatus, FileSystem, RangeLocation, WriteStream
from repro.hdfs.datanode import DatanodeCore
from repro.hdfs.namenode import NamenodeCore
from repro.hdfs.placement import HdfsPlacementPolicy
from repro.util.bytesize import MB, parse_size
from repro.util.chunks import split_range
from repro.util.rng import SeededRng

__all__ = ["HDFSFileSystem", "HDFSWriteStream", "HDFSReadStream", "DEFAULT_CHUNK_SIZE"]

#: HDFS's chunk size in the paper: 64 MB.
DEFAULT_CHUNK_SIZE = 64 * MB


class HDFSWriteStream(WriteStream):
    """Sequential single-writer stream: one chunk pipeline at a time."""

    def __init__(self, fs: "HDFSFileSystem", path: str, client: str):
        self._fs = fs
        self._path = path
        self._client = client
        self._closed = False
        self._buffer = WriteBuffer(commit=self._commit, block_size=fs.block_size)

    def _commit(self, offset: int, data: Union[bytes, Payload]) -> None:
        payload: Payload = BytesPayload(data) if isinstance(data, bytes) else data
        # WriteBuffer only ever hands us whole chunks (plus one trailing
        # partial at close); each becomes one pipeline.
        for piece in split_range(0, payload.size, self._fs.block_size):
            chunk = self._fs.namenode.allocate_chunk(
                self._path, self._client, replication=self._fs.replication
            )
            part = payload.slice(piece.offset, piece.length)
            for datanode_name in chunk.datanodes:
                self._fs.datanodes[datanode_name].put_chunk(chunk.chunk_id, part)
            self._fs.namenode.commit_chunk(self._path, self._client, chunk, part.size)

    def write(self, data: bytes) -> None:
        """Buffer *data*; full chunks are pipelined as they fill."""
        if self._closed:
            raise ValueError("write to a closed stream")
        self._buffer.write(data)

    def close(self) -> None:
        """Flush the trailing chunk and seal the file (write-once)."""
        if self._closed:
            return
        self._closed = True
        self._buffer.close()
        self._fs.namenode.complete_file(self._path, self._client)

    @property
    def size(self) -> int:
        """Bytes written so far."""
        return self._buffer.size


class HDFSReadStream(CachedReadStream):
    """Chunk-prefetching reader (client-side read-ahead, §II-B)."""

    def __init__(self, fs: "HDFSFileSystem", path: str):
        meta = fs.namenode.file_meta(path)
        self._fs = fs
        self._chunks = list(meta.chunks)
        super().__init__(
            BlockReadCache(
                fetch_blocks=lambda first, count: [
                    self._fetch_chunk(index) for index in range(first, first + count)
                ],
                block_size=fs.block_size,
                file_size=meta.size,
            )
        )

    def _fetch_chunk(self, index: int) -> memoryview:
        chunk = self._chunks[index]
        last_error: Optional[Exception] = None
        for datanode_name in chunk.datanodes:
            datanode = self._fs.datanodes[datanode_name]
            if not datanode.online:
                last_error = ProviderUnavailable(f"{datanode_name} is down")
                continue
            try:
                # View, not ``.tobytes()``: a partial read of a 64 MB
                # chunk used to materialize all 64 MB before slicing —
                # stored chunks are immutable, so the cache can alias
                # them and let pread() copy only the requested bytes.
                return datanode.get_chunk(chunk.chunk_id).view()
            except KeyError as exc:
                last_error = exc
        raise ProviderUnavailable(
            f"no live replica of chunk {chunk.chunk_id} ({chunk.datanodes})"
        ) from last_error


class HDFSFileSystem(FileSystem):
    """The baseline: GoogleFS-style architecture with HDFS semantics."""

    def __init__(
        self,
        datanodes: Union[int, list[str]] = 16,
        block_size: Union[int, str] = DEFAULT_CHUNK_SIZE,
        replication: int = 1,
        seed: int = 0,
    ):
        if isinstance(datanodes, int):
            datanodes = [f"datanode-{i:03d}" for i in range(datanodes)]
        self.block_size = parse_size(block_size)
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.replication = replication
        self.namenode = NamenodeCore(
            placement=HdfsPlacementPolicy(rng=SeededRng(seed))
        )
        self.datanodes: dict[str, DatanodeCore] = {}
        for name in datanodes:
            self.namenode.register_datanode(name)
            self.datanodes[name] = DatanodeCore(name)

    # -- streams -----------------------------------------------------------------

    def create(self, path: str, client: Optional[str] = None) -> HDFSWriteStream:
        """Open a new file under a single-writer lease."""
        client = client if client is not None else "client"
        self.namenode.create_file(path, client)
        return HDFSWriteStream(self, path, client)

    def open(self, path: str, client: Optional[str] = None) -> HDFSReadStream:
        """Open for reading."""
        return HDFSReadStream(self, path)

    def append(self, path: str, client: Optional[str] = None) -> WriteStream:
        """Refused: "HDFS does not implement the append operation" (§V-F)."""
        raise AppendNotSupported(
            "HDFS files cannot be appended to; this is the capability gap "
            "BSFS closes (paper §V-F)"
        )

    # -- namespace --------------------------------------------------------------------

    def status(self, path: str) -> FileStatus:
        """File/directory status (namenode holds all sizes)."""
        return self.namenode.status(path)

    def list_dir(self, path: str) -> list[str]:
        """Immediate children."""
        return self.namenode.list_dir(path)

    def make_dirs(self, path: str) -> None:
        """``mkdir -p``."""
        self.namenode.make_dirs(path)

    def delete(self, path: str, recursive: bool = False) -> None:
        """Remove entries and free their chunks on the datanodes."""
        metas = self.namenode.delete(path, recursive=recursive)
        for meta in metas:
            for chunk in meta.chunks:
                for datanode_name in chunk.datanodes:
                    datanode = self.datanodes[datanode_name]
                    if datanode.online:
                        datanode.delete_chunk(chunk.chunk_id)

    def exists(self, path: str) -> bool:
        """Existence check."""
        return self.namenode.exists(path)

    def block_locations(self, path: str, offset: int, size: int) -> list[RangeLocation]:
        """Chunk layout for the scheduler (namenode metadata)."""
        if self.namenode.is_dir(path):
            raise IsADirectory(path)
        return self.namenode.block_locations(path, offset, size)

    # -- diagnostics & failure injection -----------------------------------------------

    def datanode_chunk_counts(self) -> dict[str, int]:
        """Chunks per datanode — the HDFS side of Figure 3(b)."""
        return {name: d.chunk_count for name, d in sorted(self.datanodes.items())}

    def fail_datanode(self, name: str) -> None:
        """Take a datanode offline."""
        self.datanodes[name].fail()
        self.namenode.mark_datanode(name, online=False)
