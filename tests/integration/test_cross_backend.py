"""Cross-layer integration: whole jobs, both backends, identical answers.

The paper's headline integration claim is that "Hadoop Map/Reduce
applications run out-of-the-box" on BSFS exactly as on HDFS.  Here the
*functional* engine runs the same jobs against both file systems and
must produce byte-identical results; BSFS additionally exposes its
extras (append, versioning) through the same job pipeline.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.blob import LocalBlobStore, StoreConfig, collect_garbage
from repro.bsfs import BSFSFileSystem
from repro.errors import InvalidRange
from repro.gateway import Gateway
from repro.hdfs import HDFSFileSystem
from repro.mapreduce import LocalJobRunner
from repro.mapreduce.apps import grep_job, random_text_job, wordcount_job

BS = 512


def backends():
    bsfs = BSFSFileSystem(
        store=LocalBlobStore(config=StoreConfig(data_providers=8, metadata_providers=3, block_size=BS))
    )
    hdfs = HDFSFileSystem(datanodes=8, block_size=BS, seed=11)
    return {"bsfs": bsfs, "hdfs": hdfs}


class TestOutOfTheBox:
    def test_same_pipeline_same_results(self):
        """RandomTextWriter -> grep, run on both backends: identical
        outputs (the job logic never sees which storage it runs on)."""
        results = {}
        for name, fs in backends().items():
            runner = LocalJobRunner(fs, trackers=["t0", "t1", "t2"])
            runner.run(random_text_job("/rtw", num_mappers=3, bytes_per_mapper=4000, seed=5))
            grep_result = runner.run(grep_job(["/rtw"], "/out", "storage"))
            results[name] = fs.read_file(grep_result.output_paths[0])
        assert results["bsfs"] == results["hdfs"]

    def test_wordcount_identical_counts(self):
        text = b"alpha beta gamma alpha\nbeta alpha\n" * 64
        outputs = {}
        for name, fs in backends().items():
            fs.write_file("/in/text", text, client="edge")
            result = LocalJobRunner(fs).run(
                wordcount_job(["/in"], "/wc", num_reducers=3)
            )
            outputs[name] = b"".join(
                fs.read_file(p) for p in sorted(result.output_paths)
            )
        assert outputs["bsfs"] == outputs["hdfs"]

    def test_locality_better_on_balanced_bsfs(self):
        """With trackers = storage hosts, BSFS's balanced layout yields
        at least as many local maps as HDFS's skewed one."""
        locality = {}
        for name, fs in backends().items():
            data = b"x" * (BS - 1) + b"\n"
            fs.write_file("/in/big", data * 24, client="edge-node")
            if name == "bsfs":
                trackers = list(fs.store.providers)
            else:
                trackers = list(fs.datanodes)
            result = LocalJobRunner(fs, trackers=trackers).run(
                grep_job(["/in/big"], "/out", "zzz")
            )
            locality[name] = result.locality
        assert locality["bsfs"] >= locality["hdfs"]


class TestBsfsExtrasThroughJobs:
    def test_append_then_rerun_grep(self):
        """BSFS lets a later job append to the dataset a previous job
        scanned — impossible on HDFS (write-once)."""
        fs = backends()["bsfs"]
        fs.write_file("/log", b"needle one\nhay\n")
        first = LocalJobRunner(fs).run(grep_job(["/log"], "/out1", "needle"))
        with fs.append("/log") as out:
            out.write(b"needle two\n")
        second = LocalJobRunner(fs).run(grep_job(["/log"], "/out2", "needle"))
        count1 = fs.read_file(first.output_paths[0])
        count2 = fs.read_file(second.output_paths[0])
        assert count1 == b"matching-lines\t1\n"
        assert count2 == b"matching-lines\t2\n"

    def test_versioned_input_workflow(self):
        """§VI-A: a reader pinned to the old version scans the original
        dataset while a writer evolves it."""
        fs = backends()["bsfs"]
        fs.write_file("/data", b"v1 contents\n" * 10)
        v1 = fs.file_versions("/data")
        with fs.append("/data") as out:
            out.write(b"v2 extras\n" * 5)
        old = fs.open("/data", version=v1)
        assert b"v2 extras" not in old.read()
        assert b"v2 extras" in fs.read_file("/data")

    def test_gc_after_job_pipeline(self):
        """Old intermediate versions can be collected; the final data
        stays byte-identical."""
        fs = backends()["bsfs"]
        fs.write_file("/work", b"a" * BS)
        for i in range(4):
            with fs.append("/work") as out:
                out.write(bytes([i]) * BS)
        expected = fs.read_file("/work")
        blob = fs.blob_of("/work")
        latest = fs.store.latest_version(blob)
        report = collect_garbage(fs.store, blob, retain_from=latest)
        assert report.nodes_deleted > 0
        assert fs.read_file("/work") == expected

    def test_hdfs_job_output_immutable(self):
        from repro.errors import AppendNotSupported

        fs = backends()["hdfs"]
        fs.write_file("/in/x", b"data\n")
        result = LocalJobRunner(fs).run(grep_job(["/in/x"], "/out", "data"))
        with pytest.raises(AppendNotSupported):
            fs.append(result.output_paths[0])


def open_reader(backend, data):
    """A reader over *data* (8-byte blocks) on *backend*, plus the byte
    counts the gateway charges for reads (always empty off the gateway)
    and the teardown to call after closing the stream."""
    charges = []
    if backend == "gateway":
        gateway = Gateway(config=StoreConfig(data_providers=4, block_size=8))
        client = gateway.connect("t", gateway.register_tenant("t"))
        client.write_file("/f", data)
        real_charge = gateway.charge_bytes

        def charge(state, nbytes):
            charges.append(nbytes)
            real_charge(state, nbytes)

        gateway.charge_bytes = charge  # from here on only reads charge
        return client.open("/f"), charges, gateway.close
    fs = (
        BSFSFileSystem(config=StoreConfig(data_providers=4, block_size=8))
        if backend == "bsfs"
        else HDFSFileSystem(datanodes=4, block_size=8, seed=3)
    )
    fs.write_file("/f", data)
    return fs.open("/f"), charges, lambda: None


READERS = ["bsfs", "hdfs", "gateway"]


class TestPreadContract:
    """One positional-read rule on every reader: short at the end of
    the file, ``b""`` at or past it (as ``read`` is at EOF), and an
    error for a negative offset or size."""

    @pytest.mark.parametrize("backend", READERS)
    def test_pread_edges_agree(self, backend):
        data = bytes(range(20))
        stream, charges, teardown = open_reader(backend, data)
        with stream:
            assert stream.pread(20, 2) == b""
            assert stream.pread(18, 5) == data[18:]
            assert stream.pread(25, 2) == b""
            for offset, size in ((0, -1), (-1, 2)):
                with pytest.raises(InvalidRange):
                    stream.pread(offset, size)
            assert stream.tell == 0
            assert stream.read() == data
            assert stream.read(4) == b""
        teardown()
        if backend == "gateway":
            # Reads at or past EOF, and rejected ones, are charged nothing.
            assert charges == [0, 2, 0, 0, 0, 20, 0]

    @pytest.mark.parametrize("backend", READERS)
    def test_pread_on_an_empty_file(self, backend):
        # No block exists at all: every read is at EOF.
        stream, charges, teardown = open_reader(backend, b"")
        with stream:
            assert stream.size == 0
            assert stream.pread(0, 0) == b""
            assert stream.pread(0, 5) == b""
            assert stream.pread(3, 1) == b""
            with pytest.raises(InvalidRange):
                stream.pread(0, -1)
            assert stream.read() == b""
            assert stream.tell == 0
        teardown()
        assert charges == ([0, 0, 0, 0, 0] if backend == "gateway" else [])

    @pytest.mark.parametrize("backend", READERS)
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=1, max_size=12
        )
    )
    def test_pread_matches_slicing(self, backend, ops):
        """Any in-range or past-EOF pread equals slicing the bytes, and
        the gateway charges exactly the bytes each one returns."""
        data = bytes(range(20))
        stream, charges, teardown = open_reader(backend, data)
        with stream:
            got = [stream.pread(offset, size) for offset, size in ops]
        teardown()
        assert got == [data[offset : offset + size] for offset, size in ops]
        if backend == "gateway":
            assert charges == [len(chunk) for chunk in got]
