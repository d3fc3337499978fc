"""The version-manager seam of the write path (DESIGN.md §10).

Everything that stands between a writer and the serialized version
manager: :class:`VmanStats` counts the interactions, and
:class:`PublishPipeline` group-batches the two serialized steps of the
write protocol — version assignment and the completion report — across
concurrent writers, so version-manager round trips scale with batches,
not writers.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Optional

from repro.blob.version_manager import AssignRequest, WriteTicket
from repro.errors import BlobError
from repro.obs import Counters

if TYPE_CHECKING:
    from repro.blob.store import LocalBlobStore

__all__ = ["PublishPipeline", "VmanStats"]


class VmanStats(Counters):
    """Version-manager interaction counters (a :class:`~repro.obs.Counters`).

    The write-path twin of :class:`~repro.dht.store.DhtStats`:
    ``round_trips`` counts *serialized* version-manager interactions —
    one group-commit flush counts once no matter how many writers ride
    it — while ``tickets_assigned``/``commits_reported`` count the
    members those interactions served.  The gap between the two is
    exactly what the publish pipeline buys (DESIGN.md §10): a
    per-writer protocol would pay two round trips per write, group
    commit pays them per batch.
    """

    SUMS = (
        "round_trips",
        "assign_rounds",
        "commit_rounds",
        "info_rounds",
        "abort_rounds",
        "tickets_assigned",
        "commits_reported",
    )
    MAXIMA = {
        "max_assign_batch": "tickets_assigned",
        "max_commit_batch": "commits_reported",
    }
    PREFIX = "vman_"


class _PendingOp:
    """One writer's slot in a :class:`_GroupBatcher` batch."""

    __slots__ = ("request", "done", "settled", "result", "error")

    def __init__(self, request):
        self.request = request
        #: Its flush has finished; set under the batcher's condition.
        self.done = False
        self.settled = False
        self.result = None
        self.error: Optional[BaseException] = None

    def resolve(self, result) -> None:
        self.settled = True
        self.result = result

    def reject(self, error: BaseException) -> None:
        self.settled = True
        self.error = error


class _GroupBatcher:
    """Flush-in-progress batcher (the group-commit mechanism).

    One condition guards the queue and a ``flushing`` flag.  A writer
    enqueues its entry; if no flush is running it takes **everything**
    queued and serves the whole batch in one flush, run outside the
    condition.  Otherwise it waits until its entry is served or the
    flusher leaves: the flusher's ``notify_all`` lets the first unserved
    waiter to retake the condition lead the next flush.  Batching needs
    no clock: while one flush holds the serialized version manager,
    every writer arriving meanwhile queues up and the next flush takes
    them all — round trips scale with batches, not writers.

    The flush callback must settle each entry via ``resolve``/
    ``reject``; any exception escaping it is routed to the entries it
    left unsettled (never swallowed, never able to strand a waiter).

    A waiter interrupted (say, by ``KeyboardInterrupt``) while its entry
    is still queued withdraws it, so no flush serves a writer that is
    gone.  One whose entry already rides a flush waits for that flush
    to settle and hands a successful result to ``orphaned`` before
    re-raising: nothing the flush did on its behalf is left ownerless.
    """

    def __init__(
        self,
        flush: "Callable[[list[_PendingOp]], None]",
        orphaned: Optional[Callable] = None,
    ):
        self._flush = flush
        self._orphaned = orphaned
        self._cond = threading.Condition()
        self._queue: list[_PendingOp] = []
        self._flushing = False

    def submit(self, request):
        op = _PendingOp(request)
        try:
            batch = self._join(op)
        except BaseException:
            if op.done and op.error is None and self._orphaned is not None:
                self._orphaned(op.result)
            raise
        if batch:
            self._run(batch)
        if op.error is not None:
            raise op.error
        return op.result

    def _join(self, op: _PendingOp) -> list[_PendingOp]:
        """Queue *op*; the batch to flush if this writer leads, else ``[]``."""
        with self._cond:
            self._queue.append(op)
            try:
                while self._flushing and not op.done:
                    self._cond.wait()
            except BaseException:
                if op in self._queue:
                    self._queue.remove(op)
                else:
                    while not op.done:
                        self._cond.wait()
                raise
            if op.done:
                return []
            batch, self._queue = self._queue, []
            self._flushing = True
            return batch

    def _run(self, batch: list[_PendingOp]) -> None:
        try:
            self._flush(batch)
        except BaseException as exc:
            for entry in batch:
                if not entry.settled:
                    entry.reject(exc)
        finally:
            with self._cond:
                self._flushing = False
                for entry in batch:
                    entry.done = True
                self._cond.notify_all()


class PublishPipeline:
    """Group-commit publish pipeline for one store (DESIGN.md §10).

    Batches the two serialized steps of the write protocol — version
    assignment and the completion report — across concurrent writers:
    each flush is ONE version-manager interaction
    (:meth:`~repro.blob.version_manager.VersionManagerCore.assign_batch`
    / ``commit_batch``) that admits every writer queued behind the
    previous one.  Assignment and commit batch independently (an assign
    must never queue behind a commit flush), per-blob assignment order is
    queue arrival order, and per-item errors come back to exactly the
    writer they belong to.  Aborts
    do NOT ride the pipeline: a crashing writer tombstones through the
    direct path (`LocalBlobStore._abort_ticket`) while its batch-mates
    commit on.
    """

    def __init__(self, store: "LocalBlobStore"):
        self._store = store
        self._assigns = _GroupBatcher(self._flush_assigns, orphaned=self._abort_orphan)
        self._commits = _GroupBatcher(self._flush_commits)

    def assign(self, request: AssignRequest) -> WriteTicket:
        """Group-batched version assignment; raises the per-item error."""
        return self._assigns.submit(request)

    def commit(self, blob_id: str, version: int) -> int:
        """Group-batched completion report; returns the watermark.

        Raises the member's own validation error.
        """
        return self._commits.submit((blob_id, version))

    def _abort_orphan(self, ticket: WriteTicket) -> None:
        """Tombstone a version assigned to a writer interrupted mid-wait.

        The writer's own rollback returns its blocks; the version must
        not stay in flight or it wedges the watermark (DESIGN.md §7).
        """
        self._store._abort_ticket(ticket, [], [], [])

    def _flush_assigns(self, batch: list[_PendingOp]) -> None:
        self._serve(
            batch,
            self._store.version_manager.assign_batch,
            assign_rounds=1,
            tickets_assigned=len(batch),
        )

    def _flush_commits(self, batch: list[_PendingOp]) -> None:
        self._serve(
            batch,
            self._store.version_manager.commit_batch,
            commit_rounds=1,
            commits_reported=len(batch),
        )

    def _serve(self, batch: list[_PendingOp], core_batch: Callable, **counters) -> None:
        """Serve *batch* in ONE version-manager interaction; each member
        gets its own slot of the aligned result, value or error."""
        requests = [entry.request for entry in batch]
        outcomes = self._store._vman_call(lambda: core_batch(requests), **counters)
        for entry, outcome in zip(batch, outcomes):
            if isinstance(outcome, BlobError):
                entry.reject(outcome)
            else:
                entry.resolve(outcome)
