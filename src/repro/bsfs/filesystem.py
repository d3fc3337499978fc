"""BSFS: the BlobSeer File System (paper §IV).

Implements the Hadoop FileSystem contract on top of a BlobSeer store:

* namespace operations go to the (centralized, deliberately rarely
  contacted) :class:`~repro.bsfs.namespace.NamespaceManager`;
* data operations go straight to BlobSeer with §IV-B client caching —
  whole-block prefetch on read, write-behind block commit on write;
* ``block_locations`` maps Hadoop's affinity call onto BlobSeer's
  layout primitive (§IV-C).

Extras beyond the Hadoop API that BlobSeer makes possible (paper §V-F,
§VI-A): ``append`` works — including *concurrently* from many clients —
and ``open`` can pin any past version of a file.
"""

from __future__ import annotations

from typing import Optional

from repro.blob.config import StoreConfig
from repro.blob.store import LocalBlobStore
from repro.bsfs.cache import BlockReadCache, CachedReadStream, WriteBuffer
from repro.bsfs.namespace import NamespaceManager
from repro.errors import IsADirectory
from repro.fsapi import FileStatus, FileSystem, RangeLocation, WriteStream
from repro.util.chunks import align_down

__all__ = ["BSFSFileSystem", "BSFSWriteStream", "BSFSReadStream"]


class BSFSWriteStream(WriteStream):
    """Write-behind stream committing whole blocks to a BLOB."""

    def __init__(self, store: LocalBlobStore, blob_id: str, resume: bool):
        self._store = store
        self._blob_id = blob_id
        # A fresh BLOB from ``create`` is empty at the store's block size:
        # only a resumed stream needs the version manager's snapshot.
        block_size, committed, tail = store.block_size, 0, b""
        if resume:
            info = store.snapshot(blob_id)
            block_size = info.block_size
            committed = align_down(info.size, block_size)
            if info.size != committed:
                # Read-modify-write of the trailing partial block, done
                # client-side; BlobSeer itself never mutates data.
                tail = store.read(
                    blob_id, offset=committed, size=info.size - committed, version=info
                )
        # Only that rewrite needs a position.  A stream that opens on a
        # block boundary commits through ``store.append``: the version
        # manager fixes each offset (§III-D), so concurrent appenders to
        # one file interleave instead of overwriting each other.
        self._positional = bool(tail)
        self._buffer = WriteBuffer(
            commit=self._commit,
            block_size=block_size,
            committed=committed,
            initial_tail=tail,
        )

    def _commit(self, offset: int, data: bytes) -> None:
        if self._positional:
            self._store.write(self._blob_id, offset, data)
        else:
            self._store.append(self._blob_id, data)

    def write(self, data: bytes) -> None:
        """Buffer *data*; full blocks are committed as they fill."""
        self._buffer.write(data)

    def close(self) -> None:
        """Flush the trailing partial block (if any)."""
        self._buffer.close()

    @property
    def size(self) -> int:
        """Bytes written so far (committed + buffered)."""
        return self._buffer.size


class BSFSReadStream(CachedReadStream):
    """Prefetching reader pinned to one published snapshot.

    Because a BlobSeer snapshot is immutable, a reader opened while
    writers are appending sees a perfectly stable file — no HDFS-style
    "visible length" ambiguity.
    """

    def __init__(
        self,
        store: LocalBlobStore,
        blob_id: str,
        version: Optional[int] = None,
        readahead: int = 0,
    ):
        info = store.snapshot(blob_id, version)
        self._store = store
        self._blob_id = blob_id
        self._info = info  # the pin, handed to every store read
        self.version = info.version
        engine = store.io_engine if readahead > 0 else None
        super().__init__(
            BlockReadCache(
                fetch_blocks=self._fetch_blocks,
                block_size=info.block_size,
                file_size=info.size,
                capacity=max(2, 1 + readahead) if engine is not None else 2,
                engine=engine,
                readahead=readahead if engine is not None else 0,
            )
        )

    def _fetch_blocks(self, first: int, count: int) -> list[memoryview]:
        block_size = self._cache.block_size
        offset = first * block_size
        length = min(count * block_size, self._size - offset)
        # ONE pinned BlobSeer READ for the whole run (DESIGN.md §3): no
        # vman round trip, one descent, one parallel gather.  Kept as
        # views — a one-block run aliases the provider's stored payload
        # — so only pread() results materialize (DESIGN.md §11).
        run = self._store.read_payload(
            self._blob_id, offset=offset, size=length, version=self._info
        ).view()
        return [run[at : at + block_size] for at in range(0, length, block_size)]


class BSFSFileSystem(FileSystem):
    """Hadoop FileSystem over BlobSeer."""

    def __init__(
        self,
        store: Optional[LocalBlobStore] = None,
        readahead: int = 0,
        config: Optional[StoreConfig] = None,
    ):
        if store is not None and config is not None:
            raise TypeError("pass either an existing store or its configuration")
        if store is None:
            store = LocalBlobStore(config=config)
        self.store = store
        self.namespace = NamespaceManager()
        self.block_size = self.store.block_size
        #: Blocks prefetched ahead of sequential readers (needs a store
        #: with ``io_workers > 0``; silently inert otherwise).
        self.readahead = readahead

    @property
    def io_engine(self):
        """The store's shared parallel I/O engine (``None`` if inline)."""
        return self.store.io_engine

    # -- streams ---------------------------------------------------------------

    def create(self, path: str, client: Optional[str] = None) -> BSFSWriteStream:
        """Create a file bound to a fresh BLOB."""
        blob_id = self.store.create()
        self.namespace.register_file(path, blob_id)
        return BSFSWriteStream(self.store, blob_id, resume=False)

    def open(
        self, path: str, client: Optional[str] = None, version: Optional[int] = None
    ) -> BSFSReadStream:
        """Open for reading; *version* pins an old snapshot (BSFS extra).

        Hadoop's file system API "does not support versioning yet", so
        the default — latest published — is what Hadoop always gets.
        """
        entry = self.namespace.lookup(path)
        return BSFSReadStream(
            self.store, entry.blob_id, version=version, readahead=self.readahead
        )

    def append(self, path: str, client: Optional[str] = None) -> BSFSWriteStream:
        """Open for appending — the §V-F capability HDFS lacks."""
        entry = self.namespace.lookup(path)
        return BSFSWriteStream(self.store, entry.blob_id, resume=True)

    # -- namespace -----------------------------------------------------------------

    def status(self, path: str) -> FileStatus:
        """File/directory status; file sizes come from BlobSeer."""
        if self.namespace.is_dir(path):
            return FileStatus(path=path, is_dir=True, size=0)
        entry = self.namespace.lookup(path)
        return FileStatus(
            path=path, is_dir=False, size=self.store.snapshot(entry.blob_id).size
        )

    def list_dir(self, path: str) -> list[str]:
        """Immediate children."""
        return self.namespace.list_dir(path)

    def make_dirs(self, path: str) -> None:
        """``mkdir -p``."""
        self.namespace.make_dirs(path)

    def delete(self, path: str, recursive: bool = False) -> None:
        """Unlink; backing BLOBs are dropped from the namespace.

        BLOB storage reclamation is the GC's job
        (:func:`repro.blob.gc.collect_garbage`), mirroring the paper's
        split between namespace and data lifecycle.
        """
        self.namespace.delete(path, recursive=recursive)

    def rename(self, src: str, dst: str) -> None:
        """Move a file or subtree (pure namespace operation)."""
        self.namespace.rename(src, dst)

    def exists(self, path: str) -> bool:
        """Existence check."""
        return self.namespace.exists(path)

    # -- affinity ---------------------------------------------------------------------

    def block_locations(self, path: str, offset: int, size: int) -> list[RangeLocation]:
        """Blocks and hosting providers for a range (§IV-C)."""
        if self.namespace.is_dir(path):
            raise IsADirectory(path)
        entry = self.namespace.lookup(path)
        info = self.store.snapshot(entry.blob_id)
        size = max(0, min(size, info.size - offset))
        return [
            RangeLocation(offset=loc.offset, length=loc.length, hosts=loc.providers)
            for loc in self.store.block_locations(
                entry.blob_id, offset, size, version=info
            )
        ]

    # -- BSFS extras --------------------------------------------------------------------

    def branch_file(
        self, src_path: str, dst_path: str, version: Optional[int] = None
    ) -> None:
        """Fork a file at a published snapshot (§II-A branching).

        ``dst_path`` becomes an independent file sharing all of
        ``src_path``'s data up to *version* (default latest) — a zero-
        copy dataset fork.  Writes to either file never affect the
        other.
        """
        entry = self.namespace.lookup(src_path)
        new_blob = self.store.branch(entry.blob_id, version=version)
        self.namespace.register_file(dst_path, new_blob)

    def file_versions(self, path: str) -> int:
        """Latest published version of the file's BLOB."""
        entry = self.namespace.lookup(path)
        return self.store.latest_version(entry.blob_id)

    def blob_of(self, path: str) -> str:
        """The BLOB id backing a file (for tooling and tests)."""
        return self.namespace.lookup(path).blob_id
