"""The I/O engine: the blob layer's scatter-gather, on coroutines.

BlobSeer's throughput story (paper §III-D, §V) rests on the data plane
being embarrassingly parallel: a write scatters its blocks over many
data providers *simultaneously*, a read gathers them back the same way,
and only the version manager serializes anything.  The paper's
headline result — sustained throughput under *heavy concurrency*
(hundreds of clients, many blocks in flight each) — wants block I/O
limited by link bandwidth and provider latency, never by client-side
scheduling (see also the versioning follow-up paper, arXiv 0905.1113).

:class:`AsyncIOEngine` (DESIGN.md §13) runs every transfer — a
provider's block vector, a bucket's key batch — as a coroutine on ONE
event loop on ONE background thread.  The in-flight window is bounded
by a semaphore (``max_in_flight``), a second per-destination semaphore
family caps concurrency against any single provider or metadata bucket
(``per_dest``), and the first error cancels every sibling coroutine at
its next await point.  Thousands of in-flight transfers cost as many
coroutine frames and a handful of threads.  One engine is shared per
:class:`~repro.blob.store.LocalBlobStore`, so every layer above (BSFS
streams, the MapReduce split planner) draws from the same loop and
helper pool instead of spawning threads ad hoc.

The surface is ``map`` / ``map_settle`` / ``submit_each`` / ``submit``
/ ``in_worker`` / ``shutdown``.  Fan-out call sites pass ``afn=`` (an
async twin of the task callable, e.g. awaiting
``DataProviderCore.aput_many`` instead of blocking in ``put_many``); a
sync ``fn`` alone runs on the loop thread and stalls every other
transfer while it blocks, so ``tools/lint_async.py`` flags a fan-out
without ``afn=``.  Blocking work that has no twin goes to
:meth:`AsyncIOEngine.submit`, which runs it on a helper thread.

Boundary rules (enforced by ``tools/lint_async.py``; DESIGN.md §13
spells out the why):

* Only the loop thread runs coroutines.  Sync callers enter via
  ``asyncio.run_coroutine_threadsafe`` and block on a
  ``concurrent.futures.Future``.
* Coroutine code must never block the loop: no ``time.sleep``, no sync
  provider/DHT entry points (their simulated latency is a blocking
  sleep), no ``Future.result()``.
* A fan-out issued *from* the loop thread (a nested read inside an
  engine task) runs the sync ``fn`` inline: the loop is already busy
  executing the caller, so awaiting from there is impossible and
  submitting to itself would deadlock.
"""

from __future__ import annotations

import asyncio
import inspect
import threading
import time
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from repro.obs import Counters, verb

__all__ = ["AsyncIOEngine", "EngineStats"]

T = TypeVar("T")
R = TypeVar("R")


class EngineStats(Counters):
    """Scheduler-behavior counters of the I/O engine.

    * ``threads_started`` — OS threads the engine ever spawned (the
      event-loop thread and the helper threads).  Every task in flight
      costs a coroutine; the thread count stays a handful.
    * ``in_flight`` / ``in_flight_hwm`` — tasks currently executing
      (holding an in-flight slot) and the high-water mark.  The store's
      tasks are provider vectors, one per provider an op touches.
    * ``queue_wait_total`` / ``queue_wait_max`` — seconds tasks spent
      waiting for a slot (a semaphore or the helper queue) before
      starting.

    A :class:`~repro.obs.Counters`, so every verb is thread-safe: the
    loop thread and the helper threads both call them.
    """

    SUMS = ("threads_started", "tasks_started", "tasks_finished", "queue_wait_total")
    MAXIMA = {"queue_wait_max": "queue_wait_total"}
    GAUGE = "in_flight"
    #: Threads are an engine-lifetime cost, not a per-phase one: a
    #: reset between a benchmark's setup and its measured phase must not
    #: hide threads spawned during setup.
    KEEP = ("threads_started",)

    thread_started = verb(threads_started=1)
    #: ``task_started(queue_wait=0.0)``: a task got its slot.
    task_started = verb("queue_wait_total", tasks_started=1, in_flight=1)
    task_finished = verb(tasks_finished=1, in_flight=-1)


class _NullSlot:
    """Async no-op context manager for items without a destination cap."""

    async def __aenter__(self) -> None:
        return None

    async def __aexit__(self, *exc) -> None:
        return None


_NULL_SLOT = _NullSlot()


class AsyncIOEngine:
    """Single-event-loop scheduler for data-plane block transfers.

    Args:
        max_in_flight: size of the global in-flight window — how many
            transfer coroutines may hold a slot simultaneously.  A slot
            is a semaphore token (~a coroutine frame), not an OS thread.
        per_dest: cap on concurrent transfers against any single
            destination (provider / bucket), applied when the call
            site passes a ``dest`` key function.  ``0`` disables the
            per-destination cap.  Real providers serve a bounded
            number of streams well; aiming the whole window at one hot
            provider just builds a convoy there while the other
            destinations idle.
        helpers: worker threads for :meth:`submit` — blocking sync
            tasks (read-ahead, split planning) that must not block the
            loop.  The store sizes this with ``io_workers``.
        name: thread-name prefix (diagnostics).
    """

    def __init__(
        self,
        max_in_flight: int = 1024,
        per_dest: int = 0,
        helpers: int = 2,
        name: str = "blob-aio",
    ):
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        if per_dest < 0:
            raise ValueError(f"per_dest must be >= 0, got {per_dest}")
        self.max_in_flight = max_in_flight
        self.per_dest = per_dest
        self.name = name
        self.stats = EngineStats()
        self._helper_count = max(1, helpers)
        self._helpers: Optional[ThreadPoolExecutor] = None
        self._helpers_lock = threading.Lock()
        self._closed = False
        self._loop = asyncio.new_event_loop()
        # asyncio.Semaphore binds to the running loop lazily on first
        # await, so creating these here (off-loop) is safe.
        self._sem = asyncio.Semaphore(max_in_flight)
        # Per-destination semaphores, created on demand.  Only the loop
        # thread ever touches this dict, so no lock is needed.
        self._dest_sems: dict[object, asyncio.Semaphore] = {}
        started = threading.Event()

        def run_loop() -> None:
            asyncio.set_event_loop(self._loop)
            self.stats.thread_started()
            started.set()
            while True:
                try:
                    self._loop.run_forever()
                except (KeyboardInterrupt, SystemExit):
                    # A task let a base escape through: asyncio.Task
                    # sets it on the task's future *and* re-raises it
                    # into the loop.  The caller blocked on that future
                    # only hears about it from a done-callback the loop
                    # has yet to run — so the loop must keep serving,
                    # not die with the callback stranded in its queue.
                    if not self._closed:
                        continue
                break

        self._thread = threading.Thread(
            target=run_loop, name=f"{name}-loop", daemon=True
        )
        self._thread.start()
        started.wait()

    # -- loop-thread plumbing -----------------------------------------------------

    def _on_loop_thread(self) -> bool:
        return threading.get_ident() == self._thread.ident

    @property
    def in_worker(self) -> bool:
        """Whether the calling thread is the engine's event-loop thread.

        The publish pipeline must not park the loop thread waiting on
        work that only the loop can complete, so a write issued from
        an engine task falls back to the inline scatter.
        """
        return self._on_loop_thread()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"AsyncIOEngine({self.name!r}) is shut down")

    def _dest_slot(self, key: object):
        if key is None or self.per_dest <= 0:
            return _NULL_SLOT
        sem = self._dest_sems.get(key)
        if sem is None:
            sem = self._dest_sems[key] = asyncio.Semaphore(self.per_dest)
        return sem

    # -- the core fan-out ---------------------------------------------------------

    async def _run_one(
        self,
        fn: Callable[[T], R],
        afn: Optional[Callable],
        item: T,
        dest_key: object,
    ) -> R:
        """Run one transfer inside the in-flight + destination windows.

        ``afn`` (when given) is the coroutine twin and takes priority;
        a plain ``fn`` result that happens to be awaitable is awaited
        too, so call sites may pass one ``def`` returning a coroutine.
        Cancellation lands at the ``await`` points — the semaphore
        gates and the transfer's own latency sleep — never midway
        through sync bookkeeping.
        """
        enqueued = time.perf_counter()
        async with self._sem:
            async with self._dest_slot(dest_key):
                self.stats.task_started(time.perf_counter() - enqueued)
                try:
                    out = (afn or fn)(item)
                    if inspect.isawaitable(out):
                        out = await out
                    return out
                finally:
                    self.stats.task_finished()

    async def _fan_out(
        self,
        fn: Callable[[T], R],
        afn: Optional[Callable],
        work: Sequence[T],
        dest: Optional[Callable[[T], object]],
        fail_fast: bool,
    ):
        """Run every item as a task; gather per-item outcomes.

        ``fail_fast=True`` (the ``map`` contract): the first failure
        cancels every sibling task and is re-raised; cancelled items
        never ran or stopped at an await point before any effect the
        caller could observe torn.  ``fail_fast=False`` (the
        ``map_settle`` contract): every item runs to an outcome and the
        result is ``(value, error)`` pairs — except non-``Exception``
        escapes (``KeyboardInterrupt``), which cancel the rest and
        propagate.
        """
        pairs: "list[tuple[Optional[R], Optional[BaseException]]]"
        pairs = [(None, None)] * len(work)
        first: "list[BaseException]" = []
        tasks: "list[asyncio.Task]" = []

        def abort(exc: BaseException) -> None:
            if not first:
                first.append(exc)
                for task in tasks:
                    task.cancel()

        async def run_indexed(index: int, item: T) -> None:
            try:
                dest_key = dest(item) if dest is not None else None
                out = await self._run_one(fn, afn, item, dest_key)
                pairs[index] = (out, None)
            except asyncio.CancelledError:
                # A sibling failed first; report this item as abandoned
                # (concurrent.futures flavor: an Exception subclass, so
                # map_settle callers can treat it like any other error).
                pairs[index] = (
                    None,
                    CancelledError("abandoned: a sibling task failed"),
                )
            except Exception as exc:
                pairs[index] = (None, exc)
                if fail_fast:
                    abort(exc)
            except BaseException as exc:
                pairs[index] = (None, exc)
                abort(exc)

        for index, item in enumerate(work):
            tasks.append(self._loop.create_task(run_indexed(index, item)))
        await asyncio.gather(*tasks, return_exceptions=True)
        if first:
            raise first[0]
        if fail_fast:
            for _, error in pairs:
                if error is not None:
                    raise error
            return [value for value, _ in pairs]
        return pairs

    def _dispatch(self, coro) -> object:
        """Run *coro* on the loop from a foreign thread; block for it."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    # -- scatter-gather -----------------------------------------------------------

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        afn: Optional[Callable] = None,
        dest: Optional[Callable[[T], object]] = None,
    ) -> list[R]:
        """Apply *fn*/*afn* to every item concurrently; results in order.

        First error cancels the remaining coroutines and re-raises.
        From the loop thread itself (a nested fan-out inside an engine
        task) the sync ``fn`` runs inline — see the module docstring.
        """
        self._check_open()
        work: Sequence[T] = list(items)
        if self._on_loop_thread():
            return [fn(item) for item in work]
        if not work:
            return []
        return self._dispatch(self._fan_out(fn, afn, work, dest, fail_fast=True))

    def map_settle(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        afn: Optional[Callable] = None,
        dest: Optional[Callable[[T], object]] = None,
    ) -> "list[tuple[Optional[R], Optional[Exception]]]":
        """Apply *fn*/*afn* to EVERY item; ``(result, error)`` pairs.

        Never fails fast on ``Exception``: one dead replica must not
        abandon its siblings' requests.  Items cancelled by a
        non-``Exception`` escape settle as
        :class:`concurrent.futures.CancelledError`.
        """
        self._check_open()
        work: Sequence[T] = list(items)
        if self._on_loop_thread():
            out: "list[tuple[Optional[R], Optional[Exception]]]" = []
            for item in work:
                try:
                    out.append((fn(item), None))
                except Exception as exc:
                    out.append((None, exc))
            return out
        if not work:
            return []
        return self._dispatch(self._fan_out(fn, afn, work, dest, fail_fast=False))

    def submit_each(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        afn: Optional[Callable] = None,
        dest: Optional[Callable[[T], object]] = None,
    ) -> "list[Future[R]]":
        """Schedule *fn*/*afn* over *items*; return immediately.

        The publish-pipeline overlap primitive: one concurrent Future
        per item, the caller settles them after weaving metadata on
        its own thread.  First error cancels queued-but-unstarted
        siblings (they settle as ``CancelledError``); already-running
        transfers drain so their effects are observable before
        rollback.  Cancelling a returned future cancels its coroutine.
        """
        self._check_open()
        if self._on_loop_thread():
            raise RuntimeError(
                "submit_each from the event-loop thread would overlap the loop "
                "with itself; use map(), which runs inline there"
            )
        work: Sequence[T] = list(items)
        error_seen = threading.Event()
        futures: "list[Future[R]]" = []

        async def run_guarded(index: int, item: T) -> R:
            if error_seen.is_set():
                raise CancelledError("abandoned: a sibling task failed")
            try:
                dest_key = dest(item) if dest is not None else None
                return await self._run_one(fn, afn, item, dest_key)
            except asyncio.CancelledError:
                raise
            except BaseException:
                if not error_seen.is_set():
                    error_seen.set()
                    # Cancel siblings only: cancelling our OWN future
                    # here would mask this (the first, real) error as a
                    # CancelledError.  Siblings not yet in the list see
                    # error_seen when they start.
                    for j, future in enumerate(futures):
                        if j != index:
                            future.cancel()  # no-op for done siblings
                raise

        for index, item in enumerate(work):
            futures.append(
                asyncio.run_coroutine_threadsafe(
                    run_guarded(index, item), self._loop
                )
            )
        return futures

    # -- opportunistic work -------------------------------------------------------

    def submit(self, fn: Callable[..., R], *args, **kwargs) -> "Future[R]":
        """Schedule one sync task on a small helper thread pool.

        Read-ahead and split planning submit blocking functions;
        running them on the loop would stall every transfer, so the
        ``helpers`` threads absorb them.  A helper that issues a nested
        :meth:`map` blocks on the loop — which keeps progressing, so
        that is safe.
        """
        self._check_open()
        with self._helpers_lock:
            if self._helpers is None:
                self._helpers = ThreadPoolExecutor(
                    max_workers=self._helper_count,
                    thread_name_prefix=f"{self.name}-helper",
                    initializer=self.stats.thread_started,
                )
            helpers = self._helpers
        submitted = time.perf_counter()

        def run() -> R:
            self.stats.task_started(time.perf_counter() - submitted)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stats.task_finished()

        return helpers.submit(run)

    # -- lifecycle ----------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop the loop and helper threads; idempotent.

        Pending coroutines are cancelled, the loop drains them, and the
        loop closes.  Safe to call from any thread except the loop's.
        """
        if self._closed:
            return
        self._closed = True
        if self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        if not self._thread.is_alive():
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            self._loop.close()
        with self._helpers_lock:
            helpers, self._helpers = self._helpers, None
        if helpers is not None:
            helpers.shutdown(wait=True)

    def __enter__(self) -> "AsyncIOEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        state = "closed" if self._closed else "open"
        return (
            f"AsyncIOEngine(max_in_flight={self.max_in_flight}, "
            f"per_dest={self.per_dest}, {state})"
        )
