"""Shared pytest configuration.

Registers two hypothesis profiles:

* ``repro`` (default) — suited to the fast tier-1 CI job: no
  wall-clock deadline (simulation-heavy properties vary in runtime)
  and derandomized so runs are reproducible.
* ``chaos`` — for the CI chaos job running the failure-injection
  suites: deadline disabled and a higher example count, randomized so
  repeated runs explore new interleavings.  This conftest selects the
  profile from ``HYPOTHESIS_PROFILE``; values it does not register
  (e.g. one exported for an unrelated project) fall back to the
  default rather than aborting collection.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.blob import async_engine
from tests.io_requests import VirtualClock

settings.register_profile(
    "repro",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "chaos",
    deadline=None,
    max_examples=300,
    suppress_health_check=[HealthCheck.too_slow],
)

_profile = os.environ.get("HYPOTHESIS_PROFILE", "repro")
settings.load_profile(_profile if _profile in ("repro", "chaos") else "repro")


@pytest.fixture
def clock(monkeypatch):
    """The I/O engine's clock and its one wait on a :class:`VirtualClock`:
    rounds and inline requests run in virtual time and never sleep."""
    virtual = VirtualClock()
    monkeypatch.setattr(async_engine, "_monotonic", virtual.monotonic)
    monkeypatch.setattr(async_engine, "_sleep", virtual.sleep)
    return virtual
