"""End-to-end MapReduce jobs on BSFS and HDFS."""

import pytest

from repro.blob import LocalBlobStore, StoreConfig
from repro.bsfs import BSFSFileSystem
from repro.errors import JobFailed
from repro.hdfs import HDFSFileSystem
from repro.mapreduce import Emitter, JobConf, LocalJobRunner, MapOutput, tasks
from repro.mapreduce.apps import grep_job, wordcount_job

BS = 256


def make_bsfs():
    return BSFSFileSystem(
        store=LocalBlobStore(config=StoreConfig(data_providers=6, metadata_providers=2, block_size=BS))
    )


def make_hdfs():
    return HDFSFileSystem(datanodes=6, block_size=BS, seed=3)


@pytest.fixture(params=["bsfs", "hdfs"])
def fs(request):
    return make_bsfs() if request.param == "bsfs" else make_hdfs()


class TestWordCount:
    def test_counts_are_exact(self, fs):
        text = b"the quick brown fox\nthe lazy dog\nthe fox\n" * 40
        fs.write_file("/in/text", text, client="edge")
        runner = LocalJobRunner(fs, trackers=["t0", "t1"])
        result = runner.run(wordcount_job(["/in"], "/out", num_reducers=2))
        counts = {}
        for path in result.output_paths:
            for line in fs.read_file(path).decode().splitlines():
                word, n = line.split("\t")
                counts[word] = int(n)
        assert counts["the"] == 120
        assert counts["fox"] == 80
        assert counts["quick"] == 40
        assert counts["dog"] == 40

    def test_multi_reducer_partitions_disjoint(self, fs):
        fs.write_file("/in/t", b"a b c d e f g h\n" * 20, client="edge")
        runner = LocalJobRunner(fs)
        result = runner.run(wordcount_job(["/in"], "/out", num_reducers=4))
        assert len(result.output_paths) == 4
        words_per_part = [
            {l.split("\t")[0] for l in fs.read_file(p).decode().splitlines()}
            for p in result.output_paths
        ]
        seen = set()
        for words in words_per_part:
            assert not (words & seen)
            seen |= words
        assert seen == set("abcdefgh")


class TestGrep:
    def test_matches_reference_count(self, fs):
        lines = [f"record {i} {'needle' if i % 7 == 0 else 'hay'}" for i in range(500)]
        fs.write_file("/in/log", ("\n".join(lines) + "\n").encode(), client="edge")
        runner = LocalJobRunner(fs)
        result = runner.run(grep_job(["/in/log"], "/out", "needle"))
        (path,) = result.output_paths
        key, count = fs.read_file(path).decode().strip().split("\t")
        expected = sum(1 for l in lines if "needle" in l)
        assert key == "matching-lines" and int(count) == expected

    def test_combiner_shrinks_shuffle(self, fs):
        fs.write_file("/in/log", b"needle\n" * 300, client="edge")
        runner = LocalJobRunner(fs)
        result = runner.run(grep_job(["/in/log"], "/out", "needle"))
        # Each map contributes one combined record, not 300.
        assert result.counters["reduce_records_in"] == result.counters["maps_total"]

    def test_no_matches(self, fs):
        fs.write_file("/in/log", b"only hay here\n" * 10, client="edge")
        runner = LocalJobRunner(fs)
        result = runner.run(grep_job(["/in/log"], "/out", "needle"))
        (path,) = result.output_paths
        assert fs.read_file(path) == b""


class TestEngineMechanics:
    def test_splits_align_with_blocks_and_locality(self):
        """With trackers == storage nodes, maps are mostly data-local."""
        fs = make_bsfs()
        # Exactly 6 blocks over 6 providers: round-robin gives each
        # provider one block, so perfect locality is achievable.
        body = (b"y" * (BS - 1) + b"\n") * 6
        fs.write_file("/in/big", body, client="edge")
        trackers = list(fs.store.providers)
        runner = LocalJobRunner(fs, trackers=trackers)
        result = runner.run(grep_job(["/in/big"], "/out", "zzz"))
        assert result.counters["maps_total"] == 6
        assert result.locality == 1.0  # every block's provider is a tracker

    def test_map_only_job_one_file_per_mapper(self):
        fs = make_bsfs()

        def mapper(key, _value, emit: Emitter):
            emit(None, f"output-of-{key}")

        job = JobConf(
            name="gen", output_dir="/gen", mapper=mapper, synthetic_maps=3
        )
        result = LocalJobRunner(fs).run(job)
        assert len(result.output_paths) == 3
        assert fs.read_file("/gen/part-m-00001") == b"output-of-1\n"

    def test_failing_task_retried_then_job_fails(self):
        fs = make_bsfs()
        fs.write_file("/in/x", b"data\n")
        attempts = []

        def bad_mapper(_k, _v, _emit):
            attempts.append(1)
            raise RuntimeError("flaky")

        job = JobConf(
            name="doomed", output_dir="/out", mapper=bad_mapper, input_paths=("/in/x",)
        )
        runner = LocalJobRunner(fs, max_attempts=3)
        with pytest.raises(JobFailed):
            runner.run(job)
        assert len(attempts) == 3

    def test_transient_failure_recovers(self):
        fs = make_bsfs()
        fs.write_file("/in/x", b"data\n")
        attempts = []

        def flaky_mapper(_k, v, emit):
            attempts.append(1)
            if len(attempts) < 2:
                raise RuntimeError("first attempt dies")
            emit("ok", v)

        def reducer(k, values, emit):
            emit(k, len(values))

        job = JobConf(
            name="flaky",
            output_dir="/out",
            mapper=flaky_mapper,
            reducer=reducer,
            input_paths=("/in/x",),
        )
        result = LocalJobRunner(fs).run(job)
        assert result.counters["task_retries"] == 1
        (path,) = result.output_paths
        assert fs.read_file(path) == b"ok\t1\n"

    def _counting_job(self, mapper=None, reducer=None):
        def count_mapper(_k, _v, emit):
            emit("k", 1)

        def sum_reducer(k, values, emit):
            emit(k, sum(values))

        return JobConf(
            name="count",
            output_dir="/out",
            mapper=mapper or count_mapper,
            reducer=reducer or sum_reducer,
            input_paths=("/in/x",),
        )

    def test_failed_map_attempt_counters_discarded(self):
        fs = make_bsfs()
        fs.write_file("/in/x", "".join(f"{i}\n" for i in range(100)).encode())
        failures = []

        def mapper(_k, v, emit):
            if v == "49" and not failures:
                failures.append(1)
                raise RuntimeError("dies on line 50")
            emit("k", 1)

        job = self._counting_job(mapper=mapper)
        job.split_size = 10_000  # one map task over all 100 lines
        result = LocalJobRunner(fs).run(job)
        assert fs.read_file(result.output_paths[0]) == b"k\t100\n"
        assert result.counters["task_retries"] == 1
        assert result.counters["map_records_read"] == 100
        assert result.counters["map_records_emitted"] == 100
        assert result.counters["reduce_records_in"] == 100

    def test_failed_reduce_attempt_counters_discarded(self):
        fs = make_bsfs()
        fs.write_file("/in/x", "".join(f"{i}\n" for i in range(100)).encode())
        failures = []

        def reducer(k, values, emit):
            if not failures:
                failures.append(1)
                raise RuntimeError("first reduce attempt dies")
            emit(k, sum(values))

        result = LocalJobRunner(fs).run(self._counting_job(reducer=reducer))
        assert fs.read_file(result.output_paths[0]) == b"k\t100\n"
        assert result.counters["task_retries"] == 1
        assert result.counters["reduce_records_in"] == 100
        assert result.counters["reduce_records_out"] == 1

    def test_single_reducer_skips_the_hash_not_the_partitioner(self, monkeypatch):
        def no_hash(key, num_reducers):
            raise AssertionError("hashed a key for one reducer")

        monkeypatch.setattr(tasks, "partition_for", no_hash)
        output = MapOutput(task_index=0, num_reducers=1)
        output.add(None, "text", 1)
        assert output.partitions == {0: [(None, "text")]}
        seen = []

        def partitioner(key, num_reducers):
            seen.append(key)
            return 1

        with pytest.raises(ValueError, match="returned 1 for 1 reducers"):
            output.add("k", "v", 1, partitioner=partitioner)
        assert seen == ["k"]

    def test_empty_input_rejected(self):
        fs = make_bsfs()
        fs.write_file("/in/empty", b"")
        job = JobConf(
            name="nothing",
            output_dir="/out",
            mapper=lambda k, v, e: None,
            input_paths=("/in/empty",),
        )
        with pytest.raises(JobFailed, match="no input"):
            LocalJobRunner(fs).run(job)

    def test_jobconf_validation(self):
        with pytest.raises(ValueError):
            JobConf(name="x", output_dir="/o", mapper=lambda k, v, e: None)
        with pytest.raises(ValueError):
            JobConf(
                name="x",
                output_dir="/o",
                mapper=lambda k, v, e: None,
                input_paths=("/a",),
                synthetic_maps=2,
            )
        with pytest.raises(ValueError):
            JobConf(
                name="x",
                output_dir="/o",
                mapper=lambda k, v, e: None,
                synthetic_maps=1,
                combiner=lambda k, v, e: None,
            )
