"""The self-checking scenarios of ``repro.harness.demos``, called directly.

``tests/harness/test_cli.py`` runs each CLI subcommand once at its tiny
size; these tests call the scenario functions over a spread of sizes
and engine modes and assert the counts they measure — round trips,
bytes copied, tasks per provider vector — never a wall-clock figure.
"""

import threading

import pytest

from repro.harness import demos, render_report

# -- the shared runners ---------------------------------------------------------


class TestP99:
    def test_nearest_rank_of_a_hundred_samples(self):
        assert demos.p99([float(i) for i in range(1, 101)]) == 99.0

    def test_one_sample_is_its_own_p99(self):
        assert demos.p99([0.25]) == 0.25

    def test_input_order_does_not_matter(self):
        samples = [float(i) for i in range(200)]
        assert demos.p99(samples[::-1]) == demos.p99(samples) == 197.0


class TestRunClients:
    def test_every_client_runs_once(self):
        seen, lock = [], threading.Lock()

        def body(tid):
            with lock:
                seen.append(tid)

        demos.run_clients(body, 6)
        assert sorted(seen) == list(range(6))

    def test_clients_run_at_the_same_time(self):
        # Every body waits for all the others: only concurrent clients pass.
        together = threading.Barrier(4, timeout=10)
        demos.run_clients(lambda _tid: together.wait(), 4)
        assert together.n_waiting == 0 and not together.broken

    def test_first_error_is_reraised(self):
        def body(tid):
            if tid == 2:
                raise KeyError("client 2")

        with pytest.raises(KeyError, match="client 2"):
            demos.run_clients(body, 4)


class TestRunPool:
    def test_more_jobs_than_workers_all_run(self):
        done, lock = [], threading.Lock()

        def job(i):
            def run():
                with lock:
                    done.append(i)

            return run

        demos.run_pool([job(i) for i in range(10)], 3)
        assert sorted(done) == list(range(10))

    def test_job_error_is_reraised(self):
        def boom():
            raise ValueError("job failed")

        with pytest.raises(ValueError, match="job failed"):
            demos.run_pool([lambda: None, boom, lambda: None], 2)


def _passed(report):
    assert report.ok, report.failures
    assert render_report(report).splitlines()[-1] == f"OK: {report.summary}"


# -- §8 anti-entropy ------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("metadata_replication", [1, 2, 3])
def test_scrub_heal_converges(metadata_replication, seed):
    report = demos.scrub_heal(
        buckets=6,
        providers=3,
        replication=2,
        metadata_replication=metadata_replication,
        writes=2,
        seed=seed,
        ops_per_sec=None,
    )
    _passed(report)
    scrub = report.measurements["scrub"]
    assert scrub["filler_republished"] > 0
    # Only a replicated bucket set has a lagging copy to re-feed.
    assert (scrub["replicas_healed"] > 0) == (metadata_replication >= 2)


# -- §9 batched metadata descent ------------------------------------------------


@pytest.mark.parametrize("io_workers", [0, 4])
@pytest.mark.parametrize("blocks", [2, 5, 16])
def test_metadata_descent_round_trips(blocks, io_workers):
    report = demos.metadata_descent(
        blocks=blocks, buckets=4, latency=5e-4, io_workers=io_workers, reads=1
    )
    _passed(report)
    depth = (blocks - 1).bit_length() + 1
    assert report.measurements["reference_round_trips"] >= 2 * blocks - 1
    assert report.measurements["cold_round_trips"] <= depth + 2


def test_metadata_descent_rereads_hit_the_node_cache():
    report = demos.metadata_descent(
        blocks=8, buckets=4, latency=5e-4, io_workers=0, reads=2, clients=2
    )
    _passed(report)
    assert report.measurements["cache_hit_rate"] > 0.5


def test_metadata_descent_needs_a_latency():
    with pytest.raises(ValueError, match="latency must be > 0"):
        demos.metadata_descent(blocks=4, buckets=2, latency=0, io_workers=0, reads=1)


# -- §10 group commit -----------------------------------------------------------


@pytest.mark.parametrize("rounds", [1, 2])
@pytest.mark.parametrize("io_workers", [0, 4])
def test_publish_pipeline_appends_batch(io_workers, rounds):
    writers = 6
    report = demos.publish_pipeline_appends(
        writers=writers,
        rounds=rounds,
        blocks=1,
        vman_latency=0.01,
        window=2e-3,
        io_workers=io_workers,
    )
    _passed(report)
    ops = writers * rounds
    assert report.measurements["per_writer_round_trips"] == 2 * ops
    assert report.measurements["vman_round_trips"] <= ops
    assert report.measurements["max_commit_batch"] >= 2


def test_publish_pipeline_needs_a_vman_latency():
    with pytest.raises(ValueError, match="vman_latency must be > 0"):
        demos.publish_pipeline_appends(
            writers=2, rounds=1, blocks=1, vman_latency=0, window=0, io_workers=0
        )


# -- §11 zero-copy data plane ---------------------------------------------------


@pytest.mark.parametrize("clients, rounds", [(1, 1), (2, 2)])
@pytest.mark.parametrize("io_workers", [0, 4])
def test_zero_copy_byte_budget(io_workers, clients, rounds):
    report = demos.zero_copy_round_trip(
        blocks=4, block_size=4096, io_workers=io_workers, clients=clients, rounds=rounds
    )
    _passed(report)
    size, reads = 4 * 4096, clients * rounds
    write, read = report.measurements["write"], report.measurements["read"]
    assert (write["bytes_copied"], write["bytes_transferred"]) == (0, size)
    assert read["bytes_result"] == reads * size
    assert read["bytes_copied"] <= reads * size


def test_zero_copy_payload_not_a_multiple_of_256():
    # The payload pattern has a tail when the size is not a multiple of 256.
    report = demos.zero_copy_round_trip(blocks=3, block_size=1000, io_workers=0)
    _passed(report)
    assert report.measurements["size"] == 3000
    assert report.measurements["write"]["bytes_transferred"] == 3000


# -- §13 the I/O engine ---------------------------------------------------------


@pytest.mark.parametrize("max_in_flight", [1, 64])
@pytest.mark.parametrize("providers", [2, 4, 16])
def test_engine_fanout_one_task_per_provider(providers, max_in_flight):
    report = demos.engine_fanout(
        blocks=64,
        block_size=512,
        latency=5e-4,
        providers=providers,
        max_in_flight=max_in_flight,
    )
    _passed(report)
    engine = report.measurements["engine"]
    # Round-robin placement of 64 blocks touches every provider.
    assert engine["providers_touched"] == providers
    assert engine["stats"]["tasks_started"] == providers
    assert engine["stats"]["in_flight_hwm"] <= max_in_flight
