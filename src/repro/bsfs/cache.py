"""Client-side caching (paper §IV-B).

"Hadoop manipulates data sequentially in small chunks of a few KB
(usually, 4 KB) at a time" — so both HDFS and BSFS buffer client I/O:

* reads *prefetch a whole block* when the requested data is not cached;
* writes are *delayed until a whole block has been filled*.

These two mechanisms are implemented here generically over callback
functions, so the BSFS client, the HDFS client and the simulated
clients all share them.

When the backing store has a :class:`~repro.blob.io_engine.\
ParallelIOEngine`, :class:`BlockReadCache` can additionally *read
ahead*: while the client consumes block *i*, the next ``readahead``
blocks are fetched on the engine in the background, hiding provider
latency behind Hadoop's strictly sequential access pattern.
"""

from __future__ import annotations

from collections import OrderedDict
from concurrent.futures import Future
from typing import Callable, Optional, Union

from repro.blob.io_engine import ParallelIOEngine
from repro.errors import InvalidRange
from repro.fsapi import ReadStream

__all__ = ["BlockReadCache", "CachedReadStream", "WriteBuffer"]

#: What a block fetch may return: ``bytes``, or a read-only view over
#: the store's immutable payload (zero-copy; DESIGN.md §11).
BlockData = Union[bytes, memoryview]


class BlockReadCache:
    """Whole-block prefetching read cache (LRU).

    Args:
        fetch_block: ``fetch_block(index) -> bytes | memoryview``
            reading one whole block from the backend (trailing block
            may be short).  Returning a read-only view keeps the cache
            zero-copy: cached blocks alias the store's immutable
            payloads and only :meth:`pread` results materialize
            (DESIGN.md §11).
        block_size: striping unit.
        file_size: immutable size of the snapshot being read.
        capacity: number of blocks kept (Hadoop keeps ~1; a little more
            helps the MapReduce record reader cross block boundaries).
        engine: optional parallel I/O engine used for read-ahead.
        readahead: blocks to prefetch in the background past the one
            being served (0 disables; requires *engine*).
    """

    def __init__(
        self,
        fetch_block: Callable[[int], "BlockData"],
        block_size: int,
        file_size: int,
        capacity: int = 2,
        engine: Optional[ParallelIOEngine] = None,
        readahead: int = 0,
    ):
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if file_size < 0:
            raise ValueError("file_size must be >= 0")
        if readahead < 0:
            raise ValueError("readahead must be >= 0")
        if readahead > 0 and engine is None:
            raise ValueError("readahead requires an I/O engine")
        self._fetch = fetch_block
        self.block_size = block_size
        self.file_size = file_size
        self.capacity = capacity
        self._engine = engine
        self.readahead = readahead
        self._blocks: OrderedDict[int, BlockData] = OrderedDict()
        # In-flight read-ahead fetches, keyed by block index.  Only the
        # cache's owning thread touches this dict; engine threads just
        # run the fetch callable inside the future.
        self._pending: dict[int, "Future[BlockData]"] = {}
        # Last block index served; read-ahead only triggers while the
        # access pattern stays sequential (Hadoop's pattern), so random
        # preads don't turn into a background-fetch amplifier.
        self._last_served: Optional[int] = None
        #: Number of backend block fetches (cache-miss counter;
        #: includes read-ahead fetches).
        self.fetches = 0

    @property
    def _last_block(self) -> int:
        return max(0, (self.file_size - 1) // self.block_size)

    def _admit(self, index: int, data: "BlockData") -> "BlockData":
        expected = min(self.block_size, self.file_size - index * self.block_size)
        if len(data) != expected:
            raise InvalidRange(
                f"backend returned {len(data)}B for block {index}, expected {expected}B"
            )
        self._blocks[index] = data
        if len(self._blocks) > self.capacity:
            self._blocks.popitem(last=False)
        return data

    def _readahead(self, index: int) -> None:
        """Schedule background fetches for the blocks after *index*.

        Only fires while access is sequential (first access, a repeat
        of the last block, or its successor); a seek elsewhere drops
        the now-useless pending futures instead of piling more on.
        """
        if not self.readahead or self._engine is None:
            return
        sequential = self._last_served is None or index in (
            self._last_served,
            self._last_served + 1,
        )
        self._last_served = index
        if not sequential:
            # Abandon the now-useless prefetches: cancel the ones still
            # queued (sparing backend fetches and pool capacity); the
            # in-flight ones just expire.  A successfully cancelled
            # fetch never hit the backend — uncount it.
            for future in self._pending.values():
                if future.cancel():
                    self.fetches -= 1
            self._pending.clear()
            return
        for ahead in range(index + 1, min(index + self.readahead, self._last_block) + 1):
            if ahead in self._blocks or ahead in self._pending:
                continue
            self._pending[ahead] = self._engine.submit(self._fetch, ahead)
            self.fetches += 1

    def _block(self, index: int) -> "BlockData":
        if index in self._blocks:
            self._blocks.move_to_end(index)
            self._readahead(index)
            return self._blocks[index]
        future = self._pending.pop(index, None)
        data: Optional[BlockData] = None
        if future is not None:
            try:
                data = future.result()  # fetch already counted at submit
            except Exception:
                # The prefetch hit a transient failure (e.g. a replica's
                # provider flapping); the world may have healed since —
                # retry inline rather than failing a read that would
                # succeed without read-ahead.
                data = None
        if data is None:
            data = self._fetch(index)
            self.fetches += 1
        data = self._admit(index, data)
        self._readahead(index)
        return data

    def pread(self, offset: int, size: int) -> bytes:
        """Read ``[offset, offset+size)``, prefetching whole blocks."""
        if offset < 0 or size < 0 or offset + size > self.file_size:
            raise InvalidRange(
                f"read [{offset}, {offset + size}) outside file of {self.file_size}B"
            )
        if size == 0:
            return b""
        index = offset // self.block_size
        start = offset - index * self.block_size
        if start + size <= self.block_size:
            # Single-block read — Hadoop's few-KB sequential pattern,
            # so the overwhelmingly common case: slice the cached block
            # through a view and materialize the result in ONE copy
            # (a whole bytes-backed block passes through with none).
            block = self._block(index)
            if start == 0 and size == len(block) and type(block) is bytes:
                return block
            return bytes(memoryview(block)[start : start + size])
        out = bytearray(size)
        dest = memoryview(out)
        position = offset
        remaining = size
        while remaining > 0:
            index = position // self.block_size
            start = position - index * self.block_size
            take = min(self.block_size - start, remaining)
            at = position - offset
            dest[at : at + take] = memoryview(self._block(index))[start : start + take]
            position += take
            remaining -= take
        dest.release()
        return bytes(out)


class CachedReadStream(ReadStream):
    """The cursor of a reader over a :class:`BlockReadCache`.

    BSFS and HDFS readers differ only in how they fetch a block; the
    sequential/positional read logic over the cache lives here.  No
    ``__slots__``: tracers wrap ``read``/``pread`` by instance
    attribute.
    """

    def __init__(self, cache: BlockReadCache):
        self._cache = cache
        self._size = cache.file_size
        self._pos = 0

    @property
    def size(self) -> int:
        """File size (stable for the life of the stream)."""
        return self._size

    @property
    def prefetches(self) -> int:
        """Backend block fetches so far (cache-efficiency metric)."""
        return self._cache.fetches

    def read(self, size: int = -1) -> bytes:
        """Sequential read from the cursor."""
        if size < 0:
            size = self._size - self._pos
        size = min(size, self._size - self._pos)
        data = self._cache.pread(self._pos, size)
        self._pos += len(data)
        return data

    def pread(self, offset: int, size: int) -> bytes:
        """Positional read (cursor unchanged)."""
        size = max(0, min(size, self._size - offset))
        return self._cache.pread(offset, size)

    def seek(self, offset: int) -> None:
        """Move the cursor (clamped to [0, size])."""
        if offset < 0:
            raise ValueError(f"seek to negative offset {offset}")
        self._pos = min(offset, self._size)

    @property
    def tell(self) -> int:
        """Current cursor position."""
        return self._pos


class WriteBuffer:
    """Write-behind block buffer.

    Accumulates client writes and commits them in whole-block units via
    ``commit(offset, data)``; a trailing partial block is committed only
    at :meth:`close` ("it delays committing writes until a whole block
    has been filled in the cache").

    Supports resuming at an unaligned size (the BSFS append path): the
    caller passes the trailing partial bytes as ``initial_tail`` and the
    first commit rewrites them together with the new data at the aligned
    offset — a read-modify-write entirely contained in the client.
    """

    def __init__(
        self,
        commit: Callable[[int, bytes], None],
        block_size: int,
        committed: int = 0,
        initial_tail: bytes = b"",
    ):
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        if committed % block_size != 0:
            raise ValueError(
                f"committed watermark {committed} not aligned to {block_size}"
            )
        if len(initial_tail) >= block_size:
            raise ValueError("initial_tail must be shorter than one block")
        self._commit = commit
        self.block_size = block_size
        self._committed = committed
        self._buffer = bytearray(initial_tail)
        self._closed = False
        #: Number of backend commit calls (write-batching counter).
        self.commits = 0

    @property
    def size(self) -> int:
        """Logical file size including uncommitted buffered bytes."""
        return self._committed + len(self._buffer)

    def write(self, data: bytes) -> None:
        """Buffer *data*, committing any newly completed whole blocks."""
        if self._closed:
            raise ValueError("write to a closed buffer")
        self._buffer.extend(data)
        full = (len(self._buffer) // self.block_size) * self.block_size
        if full:
            # Freeze the completed window in ONE copy: a transient
            # memoryview selects the window without duplicating it
            # first (``self._buffer[:full]`` would), and dies before
            # the ``del`` resizes the buffer (which would otherwise
            # raise BufferError on the exported view).
            chunk = bytes(memoryview(self._buffer)[:full])
            del self._buffer[:full]
            self._commit(self._committed, chunk)
            self.commits += 1
            self._committed += full

    def close(self) -> int:
        """Commit any trailing partial block; returns the final size."""
        if self._closed:
            return self._committed
        self._closed = True
        if self._buffer:
            chunk = bytes(self._buffer)
            self._buffer.clear()
            self._commit(self._committed, chunk)
            self.commits += 1
            self._committed += len(chunk)
        return self._committed
