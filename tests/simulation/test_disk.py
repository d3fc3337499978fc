"""Tests for the FIFO disk model."""

import pytest

from repro.simulation import Disk, DiskSpec, Engine


@pytest.fixture
def engine():
    return Engine()


class TestDiskSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiskSpec(read_rate=0)
        with pytest.raises(ValueError):
            DiskSpec(write_rate=-1)
        with pytest.raises(ValueError):
            DiskSpec(seek_time=-0.1)
        with pytest.raises(ValueError):
            DiskSpec(channels=0)


class TestDiskService:
    def test_read_duration(self, engine):
        disk = Disk(engine, DiskSpec(read_rate=100.0, write_rate=50.0, seek_time=1.0))
        engine.run(disk.read(1000.0))
        assert engine.now == pytest.approx(11.0)

    def test_write_duration(self, engine):
        disk = Disk(engine, DiskSpec(read_rate=100.0, write_rate=50.0, seek_time=1.0))
        engine.run(disk.write(1000.0))
        assert engine.now == pytest.approx(21.0)

    def test_fifo_serialization(self, engine):
        disk = Disk(engine, DiskSpec(read_rate=100.0, write_rate=100.0, seek_time=0.0))
        finish = []
        for i in range(3):
            disk.read(100.0).add_callback(lambda ev, i=i: finish.append((i, engine.now)))
        engine.run()
        assert finish == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_channels_parallelism(self, engine):
        disk = Disk(
            engine, DiskSpec(read_rate=100.0, write_rate=100.0, seek_time=0.0, channels=2)
        )
        finish = []
        for i in range(4):
            disk.read(100.0).add_callback(lambda ev, i=i: finish.append(engine.now))
        engine.run()
        assert finish == [1.0, 1.0, 2.0, 2.0]

    def test_accounting(self, engine):
        disk = Disk(engine, DiskSpec(read_rate=100.0, write_rate=50.0, seek_time=0.5))
        engine.run(disk.read(200.0))
        engine.run(disk.write(100.0))
        assert disk.bytes_read == pytest.approx(200.0)
        assert disk.bytes_written == pytest.approx(100.0)
        assert disk.busy_time == pytest.approx(0.5 + 2.0 + 0.5 + 2.0)

    def test_negative_bytes_rejected(self, engine):
        disk = Disk(engine)
        with pytest.raises(ValueError):
            disk.read(-1)

    def test_queued_reads_start_after_the_active_one(self, engine):
        disk = Disk(engine, DiskSpec(read_rate=1.0, write_rate=1.0, seek_time=0.0))
        reads = [disk.read(100.0) for _ in range(3)]
        engine.run(reads[0])
        assert engine.now == pytest.approx(100.0)
        assert not reads[1].processed
        engine.run(reads[2])
        assert engine.now == pytest.approx(300.0)
