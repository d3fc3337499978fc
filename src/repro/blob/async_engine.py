"""The I/O engine: the blob layer's scatter-gather, as deadline rounds.

BlobSeer's throughput rests on a parallel data plane: a write scatters
its blocks over many providers *simultaneously*, a read gathers them
back the same way (paper §III-C/D), and a client is bounded by its
providers and links, not by its own scheduling (arXiv 0905.1113).

:class:`AsyncIOEngine` (DESIGN.md §13) runs each fan-out as one
*round* on the calling thread.  A call site's ``fn(item)`` returns a
*request*: a generator that yields its destination's service delay at
each issue (the issue checks that the destination is online) and
returns its result from its completion, the code after the ``yield``.
A round issues every request at once, sleeps once, until the earliest
deadline, and completes each request as its deadline passes, ties in
issue order; a request that yields again (the next chunk of a long
provider vector) is re-issued by that completion.  So a round costs
its latency and one ``time.sleep``: no event loop, no thread handoff,
no task per request.  The window (``max_in_flight``, ``per_dest``) is
shared by the store's threads, and a full window issues in waves.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from typing import Callable, Generator, Iterable, Optional, TypeVar

from repro.obs import Counters, verb

__all__ = ["AsyncIOEngine", "EngineStats", "run_inline"]

R = TypeVar("R")

#: A request: yields its service delay at each issue, returns its result.
Request = Generator[float, None, R]

#: The round's clock and its one wait, looked up at call time so that a
#: test can run rounds on a virtual clock.
_monotonic = time.monotonic
_sleep = time.sleep

# Round modes: what the first error does to the requests not yet completed.
_MAP = "map"  # they never complete; the error is raised
_SETTLE = "settle"  # nothing: every request runs to its own outcome
_DRAIN = "drain"  # issued ones complete; unissued ones and later chunks are cancelled


def run_inline(request: Request) -> R:
    """Drive one request serially on the calling thread: the path of a
    store with no engine, and of a lone request."""
    try:
        delay = next(request)
        while True:
            if delay:
                _sleep(delay)  # asynclint: allow the inline serial path's wait
            delay = request.send(None)
    except StopIteration as done:
        return done.value


class EngineStats(Counters):
    """Scheduler-behavior counters of the I/O engine.

    * ``threads_started`` — helper threads the engine ever spawned.
      Rounds run on their callers' threads and start none.
    * ``tasks_started`` / ``tasks_finished`` — requests issued and
      completed (a re-issued chunk counts again), plus helper tasks.
    * ``in_flight`` / ``in_flight_hwm`` — requests issued and not yet
      completed, and running helper tasks, with the high-water mark.
    * ``queue_wait_total`` / ``queue_wait_max`` — seconds waited for
      window slots: per wave of a round, from the round's start to the
      wave's issue (about 0 for a first wave the window admits), and
      per helper task, from its submission to its start.

    A :class:`~repro.obs.Counters`, so every verb is thread-safe.
    """

    SUMS = ("threads_started", "tasks_started", "tasks_finished", "queue_wait_total")
    MAXIMA = {"queue_wait_max": "queue_wait_total"}
    GAUGE = "in_flight"
    #: Threads are an engine-lifetime cost, not a per-phase one: a
    #: reset between a benchmark's setup and its measured phase must not
    #: hide threads spawned during setup.
    KEEP = ("threads_started",)

    thread_started = verb(threads_started=1)
    #: ``issued(tasks_started=n, in_flight=n, queue_wait_total=s)``.
    issued = verb("tasks_started", "in_flight", "queue_wait_total")
    #: ``completed(tasks_finished=n, in_flight=-n)``.
    completed = verb("tasks_finished", "in_flight")


def _cancelled() -> CancelledError:
    return CancelledError("abandoned: a sibling request failed or the round was interrupted")


class _Pending(threading.local):
    def __init__(self):
        self.rounds: list[_Round] = []


class _Handle:
    """One ``submit_each`` request: ``result()`` drives its round on the
    calling thread until the request has settled (waiting out the rest
    of its deadline), then returns its value or raises its error."""

    __slots__ = ("_round", "_index")

    def __init__(self, rnd: "_Round", index: int):
        self._round = rnd
        self._index = index

    def result(self):
        self._round.run(self._index)
        value, error = self._round.outcomes[self._index]
        if error is not None:
            raise error
        return value


class _Round:
    """One fan-out's requests, issued in waves as the window admits and
    completed as their deadlines pass."""

    def __init__(self, engine: "AsyncIOEngine", fn, work: list, dest, mode: str):
        self.engine = engine
        self.fn = fn
        self.work = work
        self.mode = mode
        #: Per item, its destination key; ``None`` when nothing is capped.
        self.keys = [dest(item) for item in work] if dest is not None and engine.per_dest else None
        self.queue = list(range(len(work)))  # not yet issued, in order
        self.due: list = []  # heap of (deadline, issue seq, index, request)
        self.outcomes: list = [None] * len(work)  # (value, error) once settled
        self.error: Optional[Exception] = None
        self.seq = itertools.count()
        self.opened = _monotonic()

    def run(self, index: Optional[int] = None) -> None:
        """Advance until request *index* has settled (every request,
        when ``None``).  In ``map`` mode the first error is raised once
        every sibling is cancelled; any base exception (an interrupt
        during the wait) cancels every request not yet completed."""
        outcomes = self.outcomes
        try:
            while (outcomes[index] is None) if index is not None else (self.queue or self.due):
                if self.queue:
                    self._issue_wave()
                if self.due and (self.error is None or self.mode is not _MAP):
                    self._complete_due()
                if self.error is not None and self.mode is _MAP:
                    raise self.error
        except BaseException:
            self._abort()
            raise
        if not self.queue and not self.due:
            self.engine._forget(self)

    def _settle(self, index: int, value, error: Optional[BaseException]) -> None:
        self.outcomes[index] = (value, error)
        if error is not None and self.error is None:
            self.error = error
            if self.mode is _DRAIN:
                self._cancel_queue()

    def _cancel_queue(self) -> None:
        for index in self.queue:
            self.outcomes[index] = (None, _cancelled())
        self.queue = []

    def _issue_wave(self, wait: bool = True) -> None:
        """Issue every queued request the window admits now (waiting
        for slots first when the round holds none, unless *wait* is
        false)."""
        engine = self.engine
        admitted = engine._admit(self, wait)
        if not admitted:
            return
        now = _monotonic()
        fn, work, due, seq = self.fn, self.work, self.due, self.seq
        finished: list[int] = []
        issued = 0
        try:
            for index in admitted:
                if self.error is not None and self.mode is not _SETTLE:
                    break
                issued += 1
                try:
                    request = fn(work[index])
                    delay = next(request)
                except StopIteration as done:  # finished at its issue
                    finished.append(index)
                    self._settle(index, done.value, None)
                except Exception as exc:  # e.g. the destination is down
                    finished.append(index)
                    self._settle(index, None, exc)
                except BaseException:
                    finished.append(index)
                    raise
                else:
                    heapq.heappush(due, (now + delay, next(seq), index, request))
        finally:
            engine.stats.issued(
                tasks_started=issued,
                in_flight=issued,
                queue_wait_total=now - self.opened,
            )
            if finished:
                engine.stats.completed(tasks_finished=len(finished), in_flight=-len(finished))
            # Admitted but never issued: back to the window, and to the
            # queue unless a sibling failed.
            unissued = admitted[issued:]
            if self.error is None:
                self.queue[:0] = unissued
            else:
                for index in unissued:
                    self.outcomes[index] = (None, _cancelled())
            engine._release(self, finished + unissued)

    def _complete_due(self) -> None:
        """Sleep until the earliest deadline, then complete every
        request whose deadline has passed, in (deadline, issue) order."""
        due = self.due
        now = _monotonic()
        if due[0][0] > now:
            _sleep(due[0][0] - now)  # asynclint: allow the round's one wait
            now = _monotonic()
        engine = self.engine
        finished: list[int] = []  # their slots go back
        completions = reissued = 0
        try:
            while due and due[0][0] <= now:
                _, _, index, request = heapq.heappop(due)
                completions += 1
                finished.append(index)
                try:
                    delay = request.send(None)
                except StopIteration as done:
                    self._settle(index, done.value, None)
                except Exception as exc:
                    self._settle(index, None, exc)
                    if self.mode is _MAP:
                        return
                else:
                    if self.error is not None and self.mode is not _SETTLE:
                        # A sibling failed: the next chunk is not issued.
                        request.close()
                        self._settle(index, None, _cancelled())
                    else:  # the next chunk, issued on the same slot
                        finished.pop()
                        reissued += 1
                        heapq.heappush(due, (now + delay, next(self.seq), index, request))
        finally:
            engine.stats.completed(tasks_finished=completions, in_flight=-completions)
            if reissued:
                engine.stats.issued(tasks_started=reissued, in_flight=reissued)
            engine._release(self, finished)

    def _abort(self) -> None:
        """Cancel every request not yet completed: an issued one is
        closed at its ``yield`` and never completes; each gives its
        slot back and settles as ``CancelledError``."""
        held = [index for _, _, index, _ in self.due]
        for _, _, _, request in self.due:
            request.close()
        self.due = []
        self._cancel_queue()
        for index, outcome in enumerate(self.outcomes):
            if outcome is None:
                self.outcomes[index] = (None, _cancelled())
        engine = self.engine
        if held:
            engine.stats.completed(tasks_finished=len(held), in_flight=-len(held))
        engine._release(self, held)
        engine._forget(self)


class AsyncIOEngine:
    """Deadline-round scheduler for data-plane block transfers.

    Args:
        max_in_flight: size of the in-flight window — how many requests
            the store's threads may have issued and not yet completed.
        per_dest: cap on those requests against any single destination
            (provider / bucket), applied when the call site passes a
            ``dest`` key function.  ``0`` disables the per-destination
            cap.  Real providers serve a bounded number of streams
            well; aiming the whole window at one hot provider just
            builds a convoy there while the other destinations idle.
        helpers: worker threads for :meth:`submit` — blocking sync
            tasks (read-ahead, split planning).  The store sizes this
            with ``io_workers``.
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
        #: Guards the window: free slots, and slots held per destination.
        self._window = threading.Condition(threading.Lock())
        self._free = max_in_flight
        self._busy: dict[object, int] = {}
        #: Per thread, its ``submit_each`` rounds not yet settled.
        self._own = _Pending()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"AsyncIOEngine({self.name!r}) is shut down")

    # -- the window ---------------------------------------------------------------

    def _admit(self, rnd: _Round, wait: bool = True) -> list[int]:
        """Reserve slots for the round's next wave, in queue order; a
        request whose destination is full waits for a later wave.

        A round that gets nothing and holds nothing waits for slots —
        but never on slots its own thread holds: it first settles the
        thread's pending ``submit_each`` rounds that hold some.
        """
        while True:
            with self._window:
                admitted = self._take(rnd)
                if admitted or rnd.due or not wait:
                    return admitted
                own = [other for other in self._own.rounds if other.due]
                if not own:
                    self._window.wait()
                    continue
            for other in own:
                other.run()

    def _take(self, rnd: _Round) -> list[int]:
        free = self._free
        if not free:
            return []
        queue = rnd.queue
        if rnd.keys is None:
            admitted = queue[:free]
            del queue[:free]
        else:
            busy, cap, keys = self._busy, self.per_dest, rnd.keys
            admitted, rest = [], []
            for index in queue:
                key = keys[index]
                held = busy.get(key, 0)
                if len(admitted) < free and (key is None or held < cap):
                    admitted.append(index)
                    if key is not None:
                        busy[key] = held + 1
                else:
                    rest.append(index)
            rnd.queue = rest
        self._free = free - len(admitted)
        return admitted

    def _release(self, rnd: _Round, indices: list[int]) -> None:
        if not indices:
            return
        with self._window:
            self._free += len(indices)
            if rnd.keys is not None:
                for index in indices:
                    if rnd.keys[index] is not None:
                        self._busy[rnd.keys[index]] -= 1
            self._window.notify_all()

    def _forget(self, rnd: _Round) -> None:
        if rnd in self._own.rounds:
            self._own.rounds.remove(rnd)

    # -- scatter-gather -----------------------------------------------------------

    def _round(self, fn, items, afn, dest, mode: str) -> _Round:
        self._check_open()
        if afn is not None:
            raise TypeError("afn= is gone: fn(item) returns a request (DESIGN.md §13)")
        return _Round(self, fn, list(items), dest, mode)

    def map(self, fn: Callable, items: Iterable, afn=None, dest=None) -> list:
        """Run every item's request in one round; results in order.
        The first error is raised; siblings not yet completed never
        complete (they are closed at their issue)."""
        rnd = self._round(fn, items, afn, dest, _MAP)
        rnd.run()
        return [value for value, _ in rnd.outcomes]

    def map_settle(self, fn: Callable, items: Iterable, afn=None, dest=None) -> list:
        """Run EVERY item's request; ``(result, error)`` pairs in order.
        Never fails fast on ``Exception``: one dead replica must not
        abandon its siblings.  A base exception cancels the round."""
        rnd = self._round(fn, items, afn, dest, _SETTLE)
        rnd.run()
        return rnd.outcomes

    def submit_each(self, fn: Callable, items: Iterable, afn=None, dest=None) -> list:
        """Issue every item's request the window admits now; return
        one handle per item (the publish overlap: the caller weaves
        metadata while the deadlines run, then settles the handles).

        The first error cancels the requests not yet issued and the
        chunks not yet re-issued (they settle as ``CancelledError``);
        issued requests still complete, so their effects are
        observable before any rollback.
        """
        rnd = self._round(fn, items, afn, dest, _DRAIN)
        try:
            rnd._issue_wave(wait=False)
        except BaseException:
            rnd._abort()
            raise
        if rnd.queue or rnd.due:
            self._own.rounds.append(rnd)
        return [_Handle(rnd, index) for index in range(len(rnd.work))]

    # -- opportunistic work -------------------------------------------------------

    def submit(self, fn: Callable[..., R], *args, **kwargs) -> "Future[R]":
        """Schedule one sync task on a small helper thread pool.

        Read-ahead and split planning submit blocking functions; the
        ``helpers`` threads absorb them.  A helper that issues a nested
        :meth:`map` runs that round on its own thread.
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
            self.stats.issued(
                tasks_started=1, in_flight=1, queue_wait_total=time.perf_counter() - submitted
            )
            try:
                return fn(*args, **kwargs)
            finally:
                self.stats.completed(tasks_finished=1, in_flight=-1)

        return helpers.submit(run)

    # -- lifecycle ----------------------------------------------------------------

    def shutdown(self) -> None:
        """Refuse new work and stop the helper threads; idempotent."""
        if self._closed:
            return
        self._closed = True
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
