"""Requests driven inline, and the I/O engine on a virtual clock, for tests.

Program code does I/O only as requests (DESIGN.md §13): a generator
that yields its destination's service delay at its issue and returns
its locked body's result from its completion.  A test that talks to
one provider or one bucket sends the same request and drives it with
``run_inline``, so it pays the same one delay, through the engine's
module-level ``_sleep``.
"""

from repro.blob.async_engine import run_inline


class VirtualClock:
    """The engine's clock and wait: a sleep advances virtual time and
    fires the alarms it passes."""

    def __init__(self):
        self.now = 0.0
        self.sleeps: list[float] = []
        self.alarms: list[tuple[float, object]] = []

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        target = self.now + seconds
        for alarm in sorted(self.alarms, key=lambda a: a[0]):
            when, action = alarm
            if when <= target:
                self.alarms.remove(alarm)
                self.now = max(self.now, when)
                action()
        self.now = target

    def at(self, when: float, action) -> None:
        """Run *action* once virtual time reaches *when* in a sleep."""
        self.alarms.append((when, action))


def _request(destination, body):
    yield destination._issue()
    return body()


def put_blocks(provider, items, landed=None) -> None:
    """Store a vector of blocks on *provider* as one request; on
    failure *landed* holds exactly the stored prefix."""
    run_inline(_request(provider, lambda: provider._put_vector(items, landed)))


def get_blocks(provider, block_ids) -> dict:
    """Fetch a vector of blocks from *provider* as one request (absent
    blocks are omitted)."""
    return run_inline(_request(provider, lambda: provider._get_vector(block_ids)))


def delete_blocks(provider, block_ids) -> dict:
    """Delete a vector of blocks from *provider* as one request: the
    bytes freed per block (0 for one already gone)."""
    return run_inline(_request(provider, lambda: provider._delete_vector(block_ids)))


def delete_keys(bucket, keys) -> None:
    """Delete *keys* from one DHT bucket as one request (absent keys
    are ignored)."""
    run_inline(_request(bucket, lambda: bucket._delete_vector(keys)))
