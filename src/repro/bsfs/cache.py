"""Client-side caching (paper §IV-B).

"Hadoop manipulates data sequentially in small chunks of a few KB
(usually, 4 KB) at a time" — so both HDFS and BSFS buffer client I/O:

* reads *prefetch a whole block* when the requested data is not cached;
* writes are *delayed until a whole block has been filled*.

These two mechanisms are implemented here generically over callback
functions, so the BSFS client and the HDFS client share them (the
simulated clients in ``repro.deploy`` model the same behaviour
themselves).

When the backing store has an :class:`~repro.blob.async_engine.\
AsyncIOEngine`, :class:`BlockReadCache` can additionally *read
ahead*: while the client consumes block *i*, the next ``readahead``
blocks are fetched on the engine's helper threads in the background,
hiding provider latency behind Hadoop's strictly sequential access
pattern.
"""

from __future__ import annotations

from collections import OrderedDict
from concurrent.futures import Future
from typing import Callable, Optional, Sequence, Union

from repro.blob.async_engine import AsyncIOEngine
from repro.errors import InvalidRange
from repro.fsapi import ReadStream

__all__ = ["BlockReadCache", "CachedReadStream", "WriteBuffer"]

#: What a block fetch may return: ``bytes``, or a read-only view over
#: the store's immutable payload (zero-copy; DESIGN.md §11).
BlockData = Union[bytes, memoryview]


class BlockReadCache:
    """Whole-block prefetching read cache (LRU).

    Args:
        fetch_blocks: ``fetch_blocks(first, count) -> [bytes |
            memoryview, ...]`` reading the *count* consecutive whole
            blocks from index *first* in ONE backend call (the file's
            trailing block may be short).  Returning read-only views
            keeps the cache zero-copy: a block fetched alone is cached
            as returned, aliasing the backend's immutable payload, and
            only :meth:`pread` results materialize (DESIGN.md §11).
        block_size: striping unit.
        file_size: immutable size of the snapshot being read.
        capacity: number of blocks kept (Hadoop keeps ~1; a little more
            helps the MapReduce record reader cross block boundaries).
        engine: optional I/O engine whose ``submit`` runs read-ahead.
        readahead: blocks to prefetch in the background past the one
            being served (0 disables; requires *engine*).
    """

    def __init__(
        self,
        fetch_blocks: Callable[[int, int], Sequence["BlockData"]],
        block_size: int,
        file_size: int,
        capacity: int = 2,
        engine: Optional[AsyncIOEngine] = None,
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
        self._fetch = fetch_blocks
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
        #: Number of *blocks* fetched from the backend, read-ahead
        #: included (cache-miss counter; one call can fetch several).
        self.fetches = 0

    @property
    def _last_block(self) -> int:
        return max(0, (self.file_size - 1) // self.block_size)

    def _checked(self, index: int, data: "BlockData") -> "BlockData":
        expected = min(self.block_size, self.file_size - index * self.block_size)
        if len(data) != expected:
            raise InvalidRange(
                f"backend returned {len(data)}B for block {index}, expected {expected}B"
            )
        return data

    def _admit(self, index: int, data: "BlockData") -> "BlockData":
        self._blocks[index] = data
        if len(self._blocks) > self.capacity:
            self._blocks.popitem(last=False)
        return data

    def _readahead(self, first: int, last: int) -> None:
        """Schedule background fetches for the blocks after *last*, the
        end of the run just served from *first*.

        Only fires while access is sequential (first access, a repeat
        of the last block, or its successor); a seek elsewhere drops
        the now-useless pending futures instead of piling more on.
        """
        if not self.readahead or self._engine is None:
            return
        sequential = self._last_served is None or first in (
            self._last_served,
            self._last_served + 1,
        )
        self._last_served = last
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
        for ahead in range(last + 1, min(last + self.readahead, self._last_block) + 1):
            if ahead in self._blocks or ahead in self._pending:
                continue
            self._pending[ahead] = self._engine.submit(self._fetch, ahead, 1)
            self.fetches += 1

    def _block(self, index: int) -> "BlockData":
        if index in self._blocks:
            self._blocks.move_to_end(index)
            return self._blocks[index]
        future = self._pending.pop(index, None)
        run: Optional[Sequence[BlockData]] = None
        if future is not None:
            try:
                run = future.result()  # fetch already counted at submit
            except Exception:
                # The prefetch hit a transient failure (e.g. a replica's
                # provider flapping); the world may have healed since —
                # retry inline rather than failing a read that would
                # succeed without read-ahead.
                run = None
        if run is None:
            run = self._fetch(index, 1)
            self.fetches += 1
        return self._admit(index, self._checked(index, run[0]))

    def _run(self, first: int, last: int) -> list["BlockData"]:
        """Blocks *first*..*last* of one multi-block read.

        Cached and prefetched blocks are used as they are; the span of
        *missing* ones is fetched in ONE backend call (on BlobSeer one
        descent and one parallel gather, not one of each per block).
        Only the trailing ``capacity`` blocks are admitted — the rest
        would be evicted before this call returns — each as its own
        buffer, so the cache never keeps a whole run's buffer alive.
        """
        wanted = range(first, last + 1)
        for index in wanted:
            if index in self._blocks:  # newest, so admissions evict others first
                self._blocks.move_to_end(index)
        missing = [i for i in wanted if i not in self._blocks and i not in self._pending]
        fetched: dict[int, BlockData] = {}
        if missing:
            span = range(missing[0], missing[-1] + 1)
            for index in span:
                # A prefetch inside the span is fetched again with it.
                future = self._pending.pop(index, None)
                if future is not None and future.cancel():
                    self.fetches -= 1
            run = self._fetch(span.start, len(span))
            self.fetches += len(span)
            fetched = {i: self._checked(i, data) for i, data in zip(span, run)}
        blocks = [fetched[i] if i in fetched else self._block(i) for i in wanted]
        for index in wanted[-self.capacity :]:
            if index in fetched:
                data = fetched[index]
                self._admit(index, bytes(data) if len(fetched) > 1 else data)
        return blocks

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
            self._readahead(index, index)
            if start == 0 and size == len(block) and type(block) is bytes:
                return block
            return bytes(memoryview(block)[start : start + size])
        last = (offset + size - 1) // self.block_size
        views = [memoryview(block) for block in self._run(index, last)]
        self._readahead(index, last)
        views[0] = views[0][start:]
        views[-1] = views[-1][: offset + size - last * self.block_size]
        # ONE copy: the blocks' covered windows become the result.
        return b"".join(views)


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
        """Blocks fetched from the backend so far (cache-efficiency
        metric; a run fetched in one backend call counts each block)."""
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
        """Positional read (cursor unchanged).

        Short at the end of the file and ``b""`` at or past it, as
        :meth:`read` is at EOF; a negative offset or size is an error.
        """
        if offset < 0 or size < 0:
            raise InvalidRange(f"pread({offset}, {size}): negative offset or size")
        size = min(size, self._size - offset)
        return self._cache.pread(offset, size) if size > 0 else b""

    def close(self) -> None:
        """Drop the cached blocks now, not at the next cyclic GC pass."""
        self._cache._blocks.clear()

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
