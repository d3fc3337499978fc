"""Local storage device model.

A :class:`Disk` serves read/write requests FIFO through a fixed number
of channels (1 = a single spindle/arm; >1 approximates RAID or an SSD's
internal parallelism).  Each request costs a fixed positional overhead
plus ``bytes / rate``.  Datanodes and data providers charge their block
I/O here, so storage can become the bottleneck independently of the
network — which is what makes HDFS's synchronous chunk commit visibly
slower than BlobSeer's overlapped writes in the single-writer scenario.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simulation.engine import Engine, Event
from repro.simulation.resources import Resource

__all__ = ["Disk", "DiskSpec"]


@dataclass(frozen=True)
class DiskSpec:
    """Disk performance envelope.

    Attributes:
        read_rate: sustained sequential read bytes/second.
        write_rate: sustained sequential write bytes/second.
        seek_time: fixed per-request positioning cost in seconds.
        channels: concurrent requests served without queueing.
    """

    read_rate: float = 90.0 * (1 << 20)
    write_rate: float = 80.0 * (1 << 20)
    seek_time: float = 0.004
    channels: int = 1

    def __post_init__(self) -> None:
        if self.read_rate <= 0 or self.write_rate <= 0:
            raise ValueError("disk rates must be positive")
        if self.seek_time < 0:
            raise ValueError("seek_time must be >= 0")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")


class Disk:
    """FIFO disk attached to a simulated node."""

    def __init__(self, engine: Engine, spec: DiskSpec = DiskSpec()):
        self.engine = engine
        self.spec = spec
        self._channels = Resource(engine, capacity=spec.channels)
        #: Total bytes read/written (for utilisation reports).
        self.bytes_read = 0.0
        self.bytes_written = 0.0
        self.busy_time = 0.0

    def read(self, nbytes: float) -> Event:
        """Event firing once *nbytes* have been read."""
        return self._submit(nbytes, self.spec.read_rate, is_read=True)

    def write(self, nbytes: float) -> Event:
        """Event firing once *nbytes* are durably written."""
        return self._submit(nbytes, self.spec.write_rate, is_read=False)

    def _submit(self, nbytes: float, rate: float, is_read: bool) -> Event:
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        done = Event(self.engine)
        service = self.spec.seek_time + nbytes / rate

        def _granted(request_event) -> None:
            finish = self.engine.timeout(service)

            def _complete(_ev) -> None:
                self.busy_time += service
                if is_read:
                    self.bytes_read += nbytes
                else:
                    self.bytes_written += nbytes
                self._channels.release(request_event.value)
                done.succeed()

            finish.add_callback(_complete)

        self._channels.request().add_callback(_granted)
        return done
