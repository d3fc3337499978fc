"""Rate limiting shared by maintenance and the multi-tenant gateway.

Two shapes of token bucket live here:

* :class:`Throttle` — the *pacing* bucket the anti-entropy scrub has
  always used (DESIGN.md §8): every caller eventually proceeds, but the
  aggregate rate converges to ``ops_per_sec``.  It reserves a time slot
  per tick, so concurrent callers are serialized fairly in arrival
  order and a burst spreads out instead of stampeding.
* :class:`TokenBucket` — the *admission* bucket the gateway uses
  (DESIGN.md §12): a classic capacity-bounded bucket refilled at
  ``rate`` tokens/second.  Callers wait for tokens (:meth:`acquire`,
  FIFO in lock order, with an optional deadline; a zero deadline never
  waits).  Unlike :class:`Throttle`
  it allows bounded bursts (``burst``) and can *refuse*, which is what
  admission control needs: a tenant over its rate is delayed or
  rejected, never silently serialized behind the whole cluster.

Historically ``Throttle`` lived in ``repro.blob.scrub``; it is
re-exported there so existing imports keep working.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

__all__ = ["Throttle", "TokenBucket"]


class Throttle:
    """Paces work to *ops_per_sec* operations per second.

    A tiny token bucket shared by every scrub phase: each healed or
    checked item costs one :meth:`tick`.  Thread-safe, so a daemon pass
    and an operator-invoked pass share one budget.  An optional
    *interrupt* event cuts a sleep short — the daemon passes its stop
    event so shutdown never waits out a throttle delay.
    """

    def __init__(
        self, ops_per_sec: float, interrupt: Optional[threading.Event] = None
    ):
        if ops_per_sec <= 0:
            raise ValueError(f"ops_per_sec must be > 0, got {ops_per_sec}")
        self.ops_per_sec = float(ops_per_sec)
        self.interrupt = interrupt
        self._lock = threading.Lock()
        self._next_slot = 0.0

    def tick(self, n: int = 1) -> None:
        """Charge *n* operations, sleeping if the budget is exhausted."""
        cost = n / self.ops_per_sec
        now = time.monotonic()
        with self._lock:
            start = max(self._next_slot, now)
            self._next_slot = start + cost
        if start > now:
            if self.interrupt is not None:
                self.interrupt.wait(start - now)
            else:
                time.sleep(start - now)


class TokenBucket:
    """Capacity-bounded token bucket refilled at *rate* tokens/second.

    The admission-control primitive (one per tenant per op class in the
    gateway): tokens accumulate while a tenant is idle up to *burst*, so
    short spikes are absorbed, and a sustained overload is paced down to
    *rate* — or refused, when the caller passes a deadline it will not
    wait past.

    Waiting is FIFO in lock-acquisition order: each waiter *reserves*
    its tokens immediately (the balance may go negative) and sleeps out
    exactly its own share of the backlog, so a heavy caller's queue
    never reorders ahead of a light one's.  ``waited`` accumulates the
    total seconds callers spent blocked — the gateway's fairness
    reports read it to show *who* is being paced.
    """

    def __init__(
        self,
        rate: float,
        burst: Optional[float] = None,
        *,
        clock=time.monotonic,
        sleep=time.sleep,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = float(rate)
        #: Maximum positive balance (default: one second of tokens).
        self.burst = float(burst) if burst is not None else float(rate)
        if self.burst <= 0:
            raise ValueError(f"burst must be > 0, got {self.burst}")
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._tokens = self.burst
        self._marked = self._clock()
        #: Total seconds callers spent blocked in :meth:`acquire`.
        self.waited = 0.0
        #: Acquires refused (deadline shorter than the backlog).
        self.rejected = 0

    def _refill(self, now: float) -> None:
        self._tokens = min(self.burst, self._tokens + (now - self._marked) * self.rate)
        self._marked = now

    @property
    def available(self) -> float:
        """Current token balance (negative while a backlog drains)."""
        with self._lock:
            self._refill(self._clock())
            return self._tokens

    def acquire(
        self,
        n: float = 1.0,
        timeout: Optional[float] = None,
        interrupt: Optional[threading.Event] = None,
    ) -> bool:
        """Take *n* tokens, waiting for the refill if necessary.

        Returns ``False`` — without consuming anything — when the wait
        would exceed *timeout*; the caller turns that into a typed
        admission rejection.  An *interrupt* event set mid-sleep ends
        the wait early with the tokens already charged (the shutdown
        path: the work is abandoned, not retried).
        """
        if n <= 0:
            return True
        with self._lock:
            now = self._clock()
            self._refill(now)
            deficit = n - self._tokens
            wait = max(0.0, deficit / self.rate)
            if timeout is not None and wait > timeout:
                self.rejected += 1
                return False
            self._tokens -= n
            if wait > 0:
                self.waited += wait
        if wait > 0:
            if interrupt is not None:
                interrupt.wait(wait)
            else:
                self._sleep(wait)
        return True
