"""Tests for the simulated Hadoop engine over both backends."""

import pytest

from repro.deploy import JobProfile, deploy_mapreduce
from repro.util.bytesize import MB

BS = 64 * MB


def quick_profile():
    return JobProfile(jvm_start=0.5, heartbeat=1.0, job_init=1.0, reduce_time=0.5)


class TestScanJobs:
    @pytest.mark.parametrize("backend", ["bsfs", "hdfs"])
    def test_scan_job_completes(self, backend):
        dep = deploy_mapreduce(backend, workers=8, profile=quick_profile())
        engine = dep.cluster.engine

        def scenario():
            if backend == "bsfs":
                yield from dep.storage.create(dep.dedicated_client, "input")
                yield from dep.storage.write(dep.dedicated_client, "input", 6 * BS, offset=0)
                handle = "input"
            else:
                yield from dep.storage.write_file(dep.dedicated_client, "/input", 6 * BS)
                handle = "/input"
            elapsed = yield from dep.hadoop.run_scan_job(handle, scan_rate=50 * MB)
            return elapsed

        elapsed = engine.run(engine.process(scenario()))
        # 6 blocks over 8 workers, one wave: init + jvm + ~1.3s scan + reduce.
        assert 2.0 < elapsed < 10.0
        assert dep.hadoop.last_local + dep.hadoop.last_remote == 6

    def test_bsfs_balanced_input_fully_local(self):
        dep = deploy_mapreduce("bsfs", workers=8, profile=quick_profile())
        engine = dep.cluster.engine

        def scenario():
            yield from dep.storage.create(dep.dedicated_client, "input")
            yield from dep.storage.write(dep.dedicated_client, "input", 8 * BS, offset=0)
            yield from dep.hadoop.run_scan_job("input", scan_rate=50 * MB)

        engine.run(engine.process(scenario()))
        assert dep.hadoop.last_local == 8
        assert dep.hadoop.last_remote == 0

    def test_hdfs_skewed_input_creates_remote_maps(self):
        dep = deploy_mapreduce("hdfs", workers=8, profile=quick_profile(), seed=5)
        engine = dep.cluster.engine

        def scenario():
            yield from dep.storage.write_file(dep.dedicated_client, "/input", 12 * BS)
            yield from dep.hadoop.run_scan_job("/input", scan_rate=50 * MB)

        engine.run(engine.process(scenario()))
        # Target reuse piles several chunks on few nodes; with 2 slots
        # each, some maps must run remotely.
        assert dep.hadoop.last_remote > 0

    def test_empty_input_rejected(self):
        dep = deploy_mapreduce("bsfs", workers=4, profile=quick_profile())
        engine = dep.cluster.engine

        def scenario():
            yield from dep.storage.create(dep.dedicated_client, "empty")
            with pytest.raises(ValueError, match="empty"):
                yield from dep.hadoop.run_scan_job("empty", scan_rate=50 * MB)
            return True

        assert engine.run(engine.process(scenario()))


class TestWriteJobs:
    @pytest.mark.parametrize("backend", ["bsfs", "hdfs"])
    def test_write_job_produces_files(self, backend):
        dep = deploy_mapreduce(backend, workers=6, profile=quick_profile())
        engine = dep.cluster.engine

        def scenario():
            elapsed = yield from dep.hadoop.run_write_job(
                "/out", num_mappers=4, bytes_per_mapper=2 * BS, generate_rate=40 * MB
            )
            return elapsed

        elapsed = engine.run(engine.process(scenario()))
        assert elapsed > 2 * BS / (40 * MB)  # at least the generation time
        if backend == "bsfs":
            counts = dep.storage.provider_block_counts()
        else:
            counts = dep.storage.datanode_chunk_counts()
        assert sum(counts.values()) == 8  # 4 mappers x 2 blocks

    def test_hdfs_mappers_write_locally(self):
        dep = deploy_mapreduce("hdfs", workers=4, profile=quick_profile())
        engine = dep.cluster.engine

        def scenario():
            yield from dep.hadoop.run_write_job(
                "/out", num_mappers=4, bytes_per_mapper=BS, generate_rate=40 * MB
            )

        engine.run(engine.process(scenario()))
        # Co-deployed tasktracker+datanode: every chunk lands locally,
        # so each of the 4 workers holds exactly its mapper's block.
        counts = dep.storage.datanode_chunk_counts()
        assert sorted(counts.values()) == [1, 1, 1, 1]

    def test_bsfs_wins_on_write_job(self):
        """The Figure 6(a) direction: BSFS completes the same write job
        faster than HDFS."""
        times = {}
        for backend in ("bsfs", "hdfs"):
            dep = deploy_mapreduce(backend, workers=6, profile=quick_profile())
            engine = dep.cluster.engine

            def scenario():
                elapsed = yield from dep.hadoop.run_write_job(
                    "/out", num_mappers=6, bytes_per_mapper=4 * BS,
                    generate_rate=26.5 * MB,
                )
                return elapsed

            times[backend] = engine.run(engine.process(scenario()))
        assert times["bsfs"] < times["hdfs"]

    def test_slots_limit_concurrency(self):
        profile = JobProfile(
            jvm_start=0.0, heartbeat=0.5, job_init=0.0, slots_per_tracker=1
        )
        dep = deploy_mapreduce("bsfs", workers=2, profile=profile)
        engine = dep.cluster.engine

        def scenario():
            elapsed = yield from dep.hadoop.run_write_job(
                "/out", num_mappers=4, bytes_per_mapper=BS, generate_rate=64 * MB
            )
            return elapsed

        elapsed = engine.run(engine.process(scenario()))
        # 4 one-second tasks on 2 single-slot trackers: at least 2 rounds.
        assert elapsed >= 2.0


class TestHeterogeneousCluster:
    """One tasktracker's NIC degraded to 8 MB/s (the heterogeneous
    setting of the paper's ref [17]): every remote-input map it takes
    becomes a straggler."""

    @staticmethod
    def scan(degraded: bool):
        profile = JobProfile(jvm_start=0.2, heartbeat=0.5, job_init=0.5, reduce_time=0.0)
        dep = deploy_mapreduce("hdfs", workers=16, profile=profile, seed=4)
        if degraded:
            dep.cluster.network.set_node_rates("worker-000", ingress=8 * MB)
        engine = dep.cluster.engine
        cal = dep.calibration

        def scenario():
            yield from dep.storage.write_file(
                dep.dedicated_client, "/input", 24 * BS, produce_rate=cal.client_stream_cap
            )
            elapsed = yield from dep.hadoop.run_scan_job("/input", scan_rate=50 * MB)
            return elapsed

        return dep, engine.run(engine.process(scenario()))

    def test_all_tasks_complete_exactly_once(self):
        dep, _ = self.scan(degraded=True)
        assert dep.hadoop.last_local + dep.hadoop.last_remote == 24
        assert dep.hadoop.last_failures == 0

    def test_a_straggler_lengthens_the_makespan(self):
        _, healthy = self.scan(degraded=False)
        _, degraded = self.scan(degraded=True)
        assert degraded > healthy
