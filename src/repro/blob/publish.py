"""The version-manager seam of the write path (DESIGN.md §10).

Everything that stands between a writer and the serialized version
manager: :class:`VmanStats` counts the interactions, and
:class:`PublishPipeline` group-batches the two serialized steps of the
write protocol — version assignment and the completion report — across
concurrent writers into one flush, so version-manager round trips scale
with batches, not writers.
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
    ``round_trips`` counts version-manager interactions — one
    group-commit flush counts once no matter how many writers ride it —
    while ``tickets_assigned``/``commits_reported`` count the members
    those interactions served.  ``assign_rounds`` and ``commit_rounds``
    count the flushes that carried at least one member of that kind;
    a flush carries both kinds, so the two can add up to more than
    ``round_trips``.  The gap between round trips and members is
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
    no clock: while one flush is in service — its round trip to the
    version manager and the serialized core call — every writer
    arriving meanwhile queues up, and the next flush takes them all:
    round trips scale with batches, not writers.

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
        orphaned: Callable,
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
            if op.done and op.error is None:
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
    assignment and the completion report — across concurrent writers,
    through ONE batcher: each flush is ONE version-manager interaction
    that runs
    :meth:`~repro.blob.version_manager.VersionManagerCore.commit_batch`
    over the queued completion reports, then ``assign_batch`` over the
    queued assignments (either may be empty), admitting every writer
    queued behind the previous flush.  Per-blob assignment order is
    queue arrival order, and per-item errors come back to exactly the
    writer they belong to.  Aborts do NOT ride the pipeline: a crashing
    writer tombstones through the direct path
    (`LocalBlobStore._abort_ticket`) while its batch-mates commit on.
    """

    def __init__(self, store: "LocalBlobStore"):
        self._store = store
        self._batcher = _GroupBatcher(self._flush, orphaned=self._abort_orphan)

    def assign(self, request: AssignRequest) -> WriteTicket:
        """Group-batched version assignment; raises the per-item error."""
        return self._batcher.submit(request)

    def commit(self, blob_id: str, version: int) -> int:
        """Group-batched completion report; returns the watermark.

        Raises the member's own validation error.
        """
        return self._batcher.submit((blob_id, version))

    def _abort_orphan(self, result) -> None:
        """Tombstone a version assigned to a writer interrupted mid-wait.

        The writer's own rollback returns its blocks; the version must
        not stay in flight or it wedges the watermark (DESIGN.md §7).
        A completion report's result (a watermark) leaves nothing to
        undo.
        """
        if isinstance(result, WriteTicket):
            self._store._abort_ticket(result, [], [], [])

    def _flush(self, batch: list[_PendingOp]) -> None:
        """Serve *batch* in ONE version-manager interaction: its commits,
        then its assigns; each member gets its own slot of the aligned
        result, value or error."""
        assigns = [entry for entry in batch if isinstance(entry.request, AssignRequest)]
        commits = [entry for entry in batch if not isinstance(entry.request, AssignRequest)]
        vm, counters = self._store.version_manager, {}
        if commits:
            counters.update(commit_rounds=1, commits_reported=len(commits))
        if assigns:
            counters.update(assign_rounds=1, tickets_assigned=len(assigns))

        def serve() -> None:
            for entries, core_batch in ((commits, vm.commit_batch), (assigns, vm.assign_batch)):
                if entries:
                    outcomes = core_batch([entry.request for entry in entries])
                    for entry, outcome in zip(entries, outcomes):
                        if isinstance(outcome, BlobError):
                            entry.reject(outcome)
                        else:
                            entry.resolve(outcome)

        self._store._vman_call(serve, **counters)
