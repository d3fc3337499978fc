"""The gateway on a virtual clock.

The gateway's buckets read the clock only through the ``TokenBucket``
it builds, so patching that constructor puts the whole gateway on a
clock that moves only when a bucket sleeps: time bounds then hold
exactly and no test sleeps.
"""

import threading
from functools import partial

import pytest

from repro.gateway import tenants
from repro.util.throttle import TokenBucket


class VirtualClock:
    """A clock that moves only by what sleepers ask of it.

    ``gate`` is open unless a test clears it; a sleeper whose virtual
    time has passed then blocks until the test sets it again, so a test
    can look at the gateway while a tenant sits in its backlog.
    """

    def __init__(self):
        self.t = 0.0
        self.slept = []
        self.gate = threading.Event()
        self.gate.set()
        #: Set once any sleeper has started sleeping.
        self.sleeping = threading.Event()

    def now(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        self.slept.append(seconds)
        self.t += seconds
        self.sleeping.set()
        self.gate.wait()


@pytest.fixture
def vclock(monkeypatch):
    clock = VirtualClock()
    monkeypatch.setattr(
        tenants, "TokenBucket", partial(TokenBucket, clock=clock.now, sleep=clock.sleep)
    )
    return clock
