"""HDFS datanode: chunk storage.

"Files are split in 64 MB blocks that are distributed among datanodes"
(paper §II-B).  A datanode stores whole chunks keyed by chunk id; like
HDFS, chunks are written once and never modified.
"""

from __future__ import annotations

from repro.blob.block import Payload
from repro.errors import ProviderUnavailable, WriteConflict

__all__ = ["DatanodeCore"]


class DatanodeCore:
    """One datanode's chunk map."""

    def __init__(self, name: str):
        self.name = name
        self.online = True
        self._chunks: dict[int, Payload] = {}
        self.stored_bytes = 0

    def _check_online(self) -> None:
        if not self.online:
            raise ProviderUnavailable(f"datanode {self.name} is down")

    def put_chunk(self, chunk_id: int, payload: Payload) -> None:
        """Store a chunk (write-once).

        Copy-on-publish per chunk (DESIGN.md §11; a BlobSeer write
        freezes once per write, at the store, instead): a payload
        viewing mutable client memory is snapshotted here so readers
        may alias stored chunks freely.
        """
        self._check_online()
        if chunk_id in self._chunks:
            raise WriteConflict(f"chunk {chunk_id} already on datanode {self.name}")
        frozen = payload.freeze()
        self._chunks[chunk_id] = frozen
        self.stored_bytes += frozen.size

    def get_chunk(self, chunk_id: int) -> Payload:
        """Fetch a chunk (KeyError if absent)."""
        self._check_online()
        return self._chunks[chunk_id]

    def delete_chunk(self, chunk_id: int) -> int:
        """Remove a chunk; returns bytes freed."""
        self._check_online()
        payload = self._chunks.pop(chunk_id, None)
        if payload is None:
            return 0
        self.stored_bytes -= payload.size
        return payload.size

    @property
    def chunk_count(self) -> int:
        """Number of stored chunks."""
        return len(self._chunks)

    def fail(self) -> None:
        """Failure injection."""
        self.online = False

    def recover(self) -> None:
        """Return to service."""
        self.online = True
