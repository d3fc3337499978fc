"""Parallel I/O engine: the blob layer's scatter-gather thread pool.

BlobSeer's throughput story (paper §III-D, §V) rests on the data plane
being embarrassingly parallel: a write scatters its blocks over many
data providers *simultaneously*, a read gathers them back the same way,
and only the version manager serializes anything.  The in-process
reproduction originally ran every block transfer sequentially on the
calling thread, so concurrency experiments measured Python loop
overhead instead of the architecture.

:class:`ParallelIOEngine` is a small shared ``ThreadPoolExecutor``
wrapper fixing that:

* :meth:`map` fans a function over items with the **calling thread
  participating** in the work (the client is one of the transfer
  streams, exactly as a real BlobSeer client pushes one replica stream
  itself).  Caller participation also guarantees forward progress when
  many clients share one undersized pool.
* failures stop the fan-out early — remaining queued items are skipped,
  in-flight ones are drained — and the first error is re-raised, which
  is what the write protocol's "the whole write fails" rule needs.
* :meth:`submit` exposes plain futures for opportunistic work
  (read-ahead prefetching in the client cache).
* the read path uses :meth:`map` as a **vectored gather**: the store
  preallocates ONE buffer for the requested range and every mapped
  task ``readinto``\\ s its block's disjoint ``memoryview`` window —
  safe to fill concurrently precisely because the windows never
  overlap (DESIGN.md §11).

One engine is shared per :class:`~repro.blob.store.LocalBlobStore`, so
every layer above (BSFS streams, the MapReduce record readers) draws
from the same bounded pool instead of spawning threads ad hoc.

This thread pool is the ``threads`` scheduler backend; the ``async``
backend (:class:`~repro.blob.async_engine.AsyncIOEngine`, DESIGN.md
§13) exposes the same ``map``/``map_settle``/``submit_each``/``submit``
surface on a single event loop.  The shared surface grew two optional
keyword parameters for that scheduler's benefit — ``afn`` (a coroutine
twin of the task callable) and ``dest`` (a per-item destination key for
per-provider/bucket concurrency caps) — which the thread backend
accepts and deliberately ignores: threads block on the simulated
service time anyway, and the bounded pool itself caps concurrency.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from repro.obs import Counters, verb

__all__ = ["EngineStats", "ParallelIOEngine"]

T = TypeVar("T")
R = TypeVar("R")


class EngineStats(Counters):
    """Scheduler-behavior counters shared by both engine backends.

    The observable difference between the ``threads`` and ``async``
    schedulers is *how* concurrency is paid for, and these counters are
    how tests and benchmarks verify it (ISSUE 9 acceptance):

    * ``threads_started`` — OS threads the engine ever spawned (pool
      workers, the event-loop thread, helper threads).  10k in-flight
      blocks cost ~10k coroutines and a handful of threads on the
      async backend; the thread backend pays one worker per stream.
    * ``in_flight`` / ``in_flight_hwm`` — tasks currently executing
      (holding an in-flight slot) and the high-water mark.
    * ``queue_wait_total`` / ``queue_wait_max`` — seconds tasks spent
      waiting for a slot (pool queue or semaphore) before starting.

    A :class:`~repro.obs.Counters`, so every verb is thread-safe: the
    async engine calls them from its loop thread, the thread engine
    from every worker plus the caller.
    """

    SUMS = ("threads_started", "tasks_started", "tasks_finished", "queue_wait_total")
    MAXIMA = {"queue_wait_max": "queue_wait_total"}
    GAUGE = "in_flight"
    #: Threads are an engine-lifetime cost (the ISSUE-9 acceptance
    #: criterion), not a per-phase one: a reset between a benchmark's
    #: setup and its measured phase must not hide workers spawned
    #: during setup.
    KEEP = ("threads_started",)

    thread_started = verb(threads_started=1)
    #: ``task_started(queue_wait=0.0)``: a task got its slot.
    task_started = verb("queue_wait_total", tasks_started=1, in_flight=1)
    task_finished = verb(tasks_finished=1, in_flight=-1)


class ParallelIOEngine:
    """Bounded thread pool for data-plane block transfers.

    Args:
        max_workers: pool threads shared by every concurrent operation.
            The effective parallelism of one :meth:`map` call is up to
            ``max_workers + 1`` because the caller works too.
        name: thread-name prefix (diagnostics).
    """

    #: Class marker for the scheduler backend ("threads" vs "async").
    scheduler = "threads"

    def __init__(self, max_workers: int, name: str = "blob-io"):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.stats = EngineStats()
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers,
            thread_name_prefix=name,
            initializer=self._thread_init,
        )
        # Marks threads that belong to this pool: a map() issued *from*
        # a pool thread (e.g. a read-ahead task fanning out a nested
        # read) must run inline — submitting helpers and blocking on
        # them from inside the pool would deadlock a saturated pool.
        self._on_pool = threading.local()
        self._closed = False

    def _thread_init(self) -> None:
        self._on_pool.active = True
        self.stats.thread_started()

    @property
    def in_worker(self) -> bool:
        """Whether the calling thread is one of this pool's workers.

        The publish pipeline checks this before overlapping a scatter
        with metadata weaving: a pool thread that parked itself waiting
        on futures served by the same pool could deadlock a saturated
        pool, so nested writes fall back to the inline scatter.
        """
        return bool(getattr(self._on_pool, "active", False))

    # -- scatter-gather -----------------------------------------------------------

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        afn: Optional[Callable] = None,
        dest: Optional[Callable[[T], object]] = None,
    ) -> list[R]:
        """Apply *fn* to every item concurrently; results in input order.

        The calling thread executes items alongside the pool.  On the
        first exception the remaining *queued* items are abandoned,
        already-running ones are awaited, and the error is re-raised —
        callers observe either every result or a prompt failure, never
        a silent partial success.

        ``afn``/``dest`` exist for surface parity with the async
        scheduler and are ignored here (see the module docstring).
        """
        del afn, dest  # threads backend: blocking twins, pool-bounded
        work: Sequence[T] = list(items)
        if len(work) <= 1 or self.in_worker:
            return [fn(item) for item in work]

        pending: "queue.SimpleQueue[tuple[int, T, float]]" = queue.SimpleQueue()
        now = time.perf_counter()
        for i, item in enumerate(work):
            pending.put((i, item, now))
        results: list[Optional[R]] = [None] * len(work)
        errors: list[BaseException] = []
        error_seen = threading.Event()

        def drain() -> None:
            while not error_seen.is_set():
                try:
                    i, item, enqueued = pending.get_nowait()
                except queue.Empty:
                    return
                self.stats.task_started(time.perf_counter() - enqueued)
                try:
                    results[i] = fn(item)
                except BaseException as exc:  # re-raised by the caller below
                    errors.append(exc)
                    error_seen.set()
                    return
                finally:
                    self.stats.task_finished()

        helpers = [
            self._executor.submit(drain)
            for _ in range(min(self.max_workers, len(work) - 1))
        ]
        drain()  # the caller is one of the streams
        for helper in helpers:
            # A helper still queued behind unrelated pool work (e.g. a
            # sleeping read-ahead fetch) would be a pure no-op by now —
            # cancel it rather than stalling this call on that work.
            if not helper.cancel():
                helper.result()
        if errors:
            raise errors[0]
        return results  # type: ignore[return-value]

    def map_settle(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        afn: Optional[Callable] = None,
        dest: Optional[Callable[[T], object]] = None,
    ) -> "list[tuple[Optional[R], Optional[Exception]]]":
        """Apply *fn* to EVERY item concurrently; never fail fast.

        Returns ``(result, error)`` pairs in input order, exactly one of
        which is set per item.  Replicated writes and per-bucket batch
        fetches need this shape: one dead replica must not abandon the
        requests to its peers (``map``'s first-error abort is the wrong
        policy there), yet each failure must stay attributable to its
        item so the caller can fail over or record it.  Non-``Exception``
        escapes (``KeyboardInterrupt``) still propagate via ``map``.
        """
        del afn, dest  # surface parity with the async scheduler

        def settle(item: T) -> "tuple[Optional[R], Optional[Exception]]":
            try:
                return fn(item), None
            except Exception as exc:
                return None, exc

        return self.map(settle, items)

    def submit_each(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        afn: Optional[Callable] = None,
        dest: Optional[Callable[[T], object]] = None,
    ) -> "list[Future[R]]":
        """Schedule *fn* over *items* as independent pool tasks.

        Unlike :meth:`map`, the caller does **not** participate and the
        call returns immediately — this is the overlap primitive of the
        publish pipeline (DESIGN.md §10): the write path launches its
        block scatter here, weaves and publishes its metadata patch on
        the calling thread meanwhile, and only then settles the
        futures.  The caller owns the futures: it must await every one
        (even after a failure) before acting on partial state, because
        a still-running transfer can change that state underneath it.
        Never call from a pool thread — use :meth:`map`, which runs
        inline there.

        First-error cancellation: once any task fails, the queued-but-
        unstarted siblings are cancelled instead of run to completion —
        "the whole write fails" (§III-D) means no point paying for the
        rest of a doomed scatter.  Already-running transfers drain
        (their effects must be observable before rollback).  Cancelled
        futures raise :class:`concurrent.futures.CancelledError` when
        settled; the caller's error reporting should prefer the real
        failure over the cancellations it caused.
        """
        del afn, dest  # surface parity with the async scheduler
        futures: "list[Future[R]]" = []
        error_seen = threading.Event()

        def guarded(item: T) -> R:
            if error_seen.is_set():
                raise CancelledError("abandoned: a sibling task failed")
            try:
                return fn(item)
            except BaseException:
                error_seen.set()
                for future in futures:
                    future.cancel()  # no-op for running/done siblings
                raise

        for item in items:
            futures.append(self.submit(guarded, item))
        return futures

    # -- opportunistic work -------------------------------------------------------

    def submit(self, fn: Callable[..., R], *args, **kwargs) -> "Future[R]":
        """Schedule one task on the pool (read-ahead, background GC).

        A nested :meth:`map` issued from inside the task runs inline
        on the pool thread (no self-deadlock).
        """
        submitted = time.perf_counter()

        def run() -> R:
            self.stats.task_started(time.perf_counter() - submitted)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stats.task_finished()

        return self._executor.submit(run)

    # -- lifecycle ----------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop the pool; idempotent."""
        if not self._closed:
            self._closed = True
            self._executor.shutdown(wait=True)

    def __enter__(self) -> "ParallelIOEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        state = "closed" if self._closed else "open"
        return f"ParallelIOEngine(max_workers={self.max_workers}, {state})"
