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
import time
from typing import TYPE_CHECKING, Callable, Optional

from repro.blob.version_manager import AssignRequest, WriteTicket
from repro.errors import PublishHookError
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

    __slots__ = ("request", "done", "settled", "result", "error", "hook_error")

    def __init__(self, request):
        self.request = request
        self.done = threading.Event()
        self.settled = False
        self.result = None
        self.error: Optional[BaseException] = None
        self.hook_error: Optional[PublishHookError] = None

    def resolve(self, result) -> None:
        self.settled = True
        self.result = result

    def reject(self, error: BaseException) -> None:
        self.settled = True
        self.error = error


class _GroupBatcher:
    """Leader–follower window batcher (the group-commit mechanism).

    Callers enqueue an entry, then contend on the leader lock.
    Whoever holds it is the leader: it optionally sleeps the window
    (letting more writers join), drains **everything** queued, and
    serves the whole batch in one flush.  A follower waking with its
    entry already served just returns; otherwise it becomes the next
    leader.  Batching is therefore opportunistic even at ``window=0``:
    while one flush holds the serialized version manager, every writer
    arriving meanwhile queues up and the next flush takes them all —
    round trips scale with batches, not writers.

    The flush callback must settle each entry via ``resolve``/
    ``reject``; any exception escaping it is routed to the entries it
    left unsettled (never swallowed, never able to strand a waiter).
    """

    def __init__(self, flush: "Callable[[list[_PendingOp]], None]", window: float):
        self._flush = flush
        self.window = window
        self._mutex = threading.Lock()
        self._queue: list[_PendingOp] = []
        self._leader = threading.Lock()

    #: How long a follower waits on the leader lock before re-checking
    #: whether its entry was served: a writer whose batch already
    #: flushed must not stay parked behind strangers' whole flush
    #: cycles (threading.Lock is unfair), but an unserved writer must
    #: keep contending — only leadership guarantees its entry drains.
    _RECHECK = 0.001

    def submit(self, request):
        op = _PendingOp(request)
        with self._mutex:
            self._queue.append(op)
        while not op.done.is_set():
            if not self._leader.acquire(timeout=self._RECHECK):
                continue
            try:
                if op.done.is_set():
                    break
                if self.window:
                    time.sleep(self.window)
                with self._mutex:
                    batch, self._queue = self._queue, []
                try:
                    self._flush(batch)
                except BaseException as exc:
                    for entry in batch:
                        if not entry.settled:
                            entry.reject(exc)
                finally:
                    for entry in batch:
                        entry.done.set()
            finally:
                self._leader.release()
        if op.error is not None:
            raise op.error
        if op.hook_error is not None:
            raise op.hook_error
        return op.result


class PublishPipeline:
    """Group-commit publish pipeline for one store (DESIGN.md §10).

    Batches the two serialized steps of the write protocol — version
    assignment and the completion report — across concurrent writers:
    each flush is ONE version-manager interaction
    (:meth:`~repro.blob.version_manager.VersionManagerCore.assign_batch`
    / ``commit_batch``) that admits every writer queued within the
    window.  Assignment and commit batch independently (an assign must
    never queue behind a commit flush), per-blob assignment order is
    queue arrival order, and per-item errors — including a publish
    hook's — come back to exactly the writer they belong to.  Aborts
    do NOT ride the pipeline: a crashing writer tombstones through the
    direct path (`LocalBlobStore._abort_ticket`) while its batch-mates
    commit on.
    """

    def __init__(self, store: "LocalBlobStore", window: float = 0.0):
        if window < 0:
            raise ValueError(f"publish window must be >= 0, got {window}")
        self._store = store
        self.window = window
        self._assigns = _GroupBatcher(self._flush_assigns, window)
        self._commits = _GroupBatcher(self._flush_commits, window)

    def assign(self, request: AssignRequest) -> WriteTicket:
        """Group-batched version assignment; raises the per-item error."""
        return self._assigns.submit(request)

    def commit(self, blob_id: str, version: int) -> int:
        """Group-batched completion report; returns the watermark.

        Raises the member's own validation error, or — after a
        successful commit — the batch's :class:`PublishHookError`
        (report-only: the snapshot is published either way).
        """
        return self._commits.submit((blob_id, version))

    def _flush_assigns(self, batch: list[_PendingOp]) -> None:
        requests = [entry.request for entry in batch]
        outcomes = self._store._vman_call(
            lambda: self._store.version_manager.assign_batch(requests),
            assign_rounds=1,
            tickets_assigned=len(requests),
        )
        for entry, outcome in zip(batch, outcomes):
            if isinstance(outcome, BaseException):
                entry.reject(outcome)
            else:
                entry.resolve(outcome)

    def _flush_commits(self, batch: list[_PendingOp]) -> None:
        items = [entry.request for entry in batch]
        outcomes = self._store._vman_call(
            lambda: self._store.version_manager.commit_batch(items),
            commit_rounds=1,
            commits_reported=len(items),
        )
        for entry, outcome in zip(batch, outcomes):
            if outcome.error is not None:
                entry.reject(outcome.error)
            else:
                entry.resolve(outcome.watermark)
                entry.hook_error = outcome.hook_error
