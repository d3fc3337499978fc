"""Data provider: immutable block storage.

"Data providers physically store the blocks generated by appends and
writes" (paper §III-B).  The store enforces BlobSeer's cardinal rule —
*no existing data is ever modified* — by refusing overwrites; blocks
only leave through explicit GC deletion.

Each provider carries its own small lock over its block map,
so concurrent block transfers to *different* providers never contend —
the fine-grained locking the parallel I/O engine relies on.  An
optional simulated per-operation service ``latency`` makes wall-clock
parallelism observable in benchmarks: the wait models network/disk
service time and happens *outside* the state lock, as a real provider
services many RPC streams at once.

Payload ownership (DESIGN.md §11): a provider stores the payloads it
is given as they are.  Copy-on-publish happens once per write, at the
store boundary: ``LocalBlobStore`` freezes the caller's buffer before
cutting it into blocks, so every payload its writes send is already a
window of immutable ``bytes``.  ``get`` returns the stored
payload itself, aliased freely for the same reason.  Byte accounting
(:class:`~repro.blob.block.CopyStats`) is the store's too: one record
per write, not one per provider vector.
"""

from __future__ import annotations

import threading
import time
from typing import Iterator, Optional, Sequence

from repro.blob.block import BlockId, Payload
from repro.errors import ProviderUnavailable, WriteConflict

__all__ = ["DataProviderCore"]


class DataProviderCore:
    """One provider's block map.

    The unit of work is the transfer *vector* (DESIGN.md §13), sent as
    one request: an issue, :meth:`_issue`, which fails fast when the
    provider is down and returns its service delay, then one locked
    body per kind, :meth:`_put_vector`, :meth:`_get_vector` or
    :meth:`_delete_vector`, which checks again that the provider is
    online.  The I/O engine waits out many requests' delays together.
    The one-block ``put``/``get``/``delete`` and the coroutine twins
    sleep their own delay; no code in ``src`` calls them (ROADMAP item
    1 step B).

    Args:
        name: provider identity (placement and diagnostics key).
        latency: simulated seconds of service time per request — a
            ``put``/``get``/``delete``, or a whole vector
            (0 disables; benchmarks enable it so that scatter-gather
            parallelism shows up in wall-clock numbers).
    """

    def __init__(self, name: str, latency: float = 0.0):
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self.name = name
        self.online = True
        self.latency = latency
        self._blocks: dict[BlockId, Payload] = {}
        self._lock = threading.Lock()

    def _check_online(self) -> None:
        if not self.online:
            raise ProviderUnavailable(f"data provider {self.name} is down")

    def _issue(self) -> float:
        """Issue one request: fail fast when down, else its service delay."""
        self._check_online()
        return self.latency

    def _service_delay(self) -> None:
        """A sync entry point's wait: issue, then sleep the delay."""
        delay = self._issue()
        if delay:
            time.sleep(delay)  # asynclint: allow a sync entry point's service time

    async def _aservice_delay(self) -> None:
        """Coroutine twin of :meth:`_service_delay` (``asyncio.sleep``)."""
        import asyncio

        delay = self._issue()
        if delay:
            await asyncio.sleep(delay)

    def _put_vector(
        self,
        items: Sequence[tuple[BlockId, Payload]],
        landed: Optional[list[BlockId]],
    ) -> None:
        """Store a vector of new blocks: the body of every put request.

        The payloads are stored as given: the writer froze its buffer
        once, at the store boundary (DESIGN.md §11), so each is already
        immutable.  Under the lock, blocks land in order behind the
        overwrite check (immutability): each id is appended to *landed*
        as it lands, so when block k is refused *landed* holds exactly
        the k stored before it — the caller's rollback list.
        """
        with self._lock:
            self._check_online()
            blocks = self._blocks
            for block_id, payload in items:
                if block_id in blocks:
                    raise WriteConflict(
                        f"block {block_id} already stored on {self.name}; "
                        "blocks are immutable by design"
                    )
                blocks[block_id] = payload
                if landed is not None:
                    landed.append(block_id)

    def _get_vector(self, block_ids: Sequence[BlockId]) -> dict[BlockId, Payload]:
        """The stored payloads of *block_ids*, absent ones omitted: the
        body of every get request.

        Returns the stored payloads themselves: published blocks are
        immutable, so handing out aliased views is safe and free
        (DESIGN.md §11).  Transfer bytes are counted by the *reader* at
        its gather, where only the requested parts of extremal blocks
        actually travel (§III-C).
        """
        found: dict[BlockId, Payload] = {}
        with self._lock:
            self._check_online()
            blocks = self._blocks
            for block_id in block_ids:
                payload = blocks.get(block_id)
                if payload is not None:
                    found[block_id] = payload
        return found

    def put(self, block_id: BlockId, payload: Payload) -> None:
        """Store one new block; rejects overwrites (immutability)."""
        self._service_delay()  # asynclint: allow sync entry point
        self._put_vector(((block_id, payload),), None)

    async def aput(self, block_id: BlockId, payload: Payload) -> None:
        """Coroutine twin of :meth:`put`: the two halves with
        ``asyncio.sleep`` between them.  Nothing in ``src`` awaits it:
        ``perf/trace.py`` wraps it by name (ROADMAP item 1 step B)."""
        await self._aservice_delay()
        self._put_vector(((block_id, payload),), None)

    def get(self, block_id: BlockId) -> Payload:
        """Fetch one stored block (KeyError if absent)."""
        self._service_delay()  # asynclint: allow sync entry point
        return self._get_vector((block_id,))[block_id]

    async def aget(self, block_id: BlockId) -> Payload:
        """Coroutine twin of :meth:`get`."""
        await self._aservice_delay()
        return self._get_vector((block_id,))[block_id]

    def has(self, block_id: BlockId) -> bool:
        """Existence check (False when offline)."""
        return self.online and block_id in self._blocks

    def _delete_vector(self, block_ids: Sequence[BlockId]) -> dict[BlockId, int]:
        """Remove a vector of blocks: the body of every delete request.
        Returns the bytes freed per block, 0 for one already gone."""
        freed: dict[BlockId, int] = {}
        with self._lock:
            self._check_online()
            for block_id in block_ids:
                payload = self._blocks.pop(block_id, None)
                size = 0 if payload is None else payload.size
                freed[block_id] = freed.get(block_id, 0) + size  # a repeated id frees once
        return freed

    def delete(self, block_id: BlockId) -> int:
        """Remove one block; returns bytes freed (0 if absent)."""
        self._service_delay()  # asynclint: allow sync entry point
        return self._delete_vector((block_id,))[block_id]

    def block_ids(self) -> Iterator[BlockId]:
        """Snapshot iterator over stored block ids (GC sweep)."""
        with self._lock:
            return iter(list(self._blocks.keys()))

    @property
    def stored_bytes(self) -> int:
        """Bytes stored, summed when asked: the put path keeps no tally."""
        with self._lock:
            return sum(payload.size for payload in self._blocks.values())

    @property
    def block_count(self) -> int:
        """Number of stored blocks."""
        return len(self._blocks)

    def fail(self) -> None:
        """Failure injection: refuse service (content retained)."""
        self.online = False

    def recover(self) -> None:
        """Return to service."""
        self.online = True
