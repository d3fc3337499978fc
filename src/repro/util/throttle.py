"""Rate limiting: one capacity-bounded token bucket, :class:`TokenBucket`.

The multi-tenant gateway admits with it (DESIGN.md §12): one bucket per
tenant per op class delays a tenant over its rate.  The
anti-entropy scrub paces with it (DESIGN.md §8): ``store.scrub(
ops_per_sec)`` builds ``TokenBucket(ops_per_sec, burst=1)`` and acquires
one token per checked item, so back-to-back items are spaced exactly
``1 / ops_per_sec`` apart, in arrival order.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

__all__ = ["TokenBucket"]


class TokenBucket:
    """Capacity-bounded token bucket refilled at *rate* tokens/second.

    The admission-control primitive (one per tenant per op class in the
    gateway): tokens accumulate while a tenant is idle up to *burst*, so
    short spikes are absorbed, and a sustained overload is paced down to
    *rate*.

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

    def _refill(self, now: float) -> None:
        self._tokens = min(self.burst, self._tokens + (now - self._marked) * self.rate)
        self._marked = now

    @property
    def available(self) -> float:
        """Current token balance (negative while a backlog drains)."""
        with self._lock:
            self._refill(self._clock())
            return self._tokens

    def acquire(self, n: float = 1.0) -> None:
        """Take *n* tokens, waiting for the refill if necessary."""
        if n <= 0:
            return
        with self._lock:
            self._refill(self._clock())
            wait = max(0.0, (n - self._tokens) / self.rate)
            self._tokens -= n
            if wait > 0:
                self.waited += wait
        if wait > 0:
            self._sleep(wait)
