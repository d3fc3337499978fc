"""The self-checking scenarios of ``repro.harness.demos``, called directly.

``tests/harness/test_cli.py`` runs each CLI subcommand once at its tiny
size; these tests call the scenario functions over a spread of sizes
and engine modes and assert the counts they measure — round trips,
bytes copied, writes admitted — never a wall-clock figure.
"""

import threading

import pytest

from repro.harness import demos, render_report

# -- the shared runners ---------------------------------------------------------


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
@pytest.mark.parametrize(
    "blocks,depth,trips,nodes,walk_nodes",
    [
        (2, 1, 1, 1, 1),  # one run
        (5, 4, 4, 5, 5),  # run [0, 4), then root, [4, 8), [4, 6) and leaf 4
        (16, 1, 1, 1, 1),
        # [0, 128) lies inside the append: the root's covered reference
        # jumps to runs [0, 64) and [64, 128) without fetching [0, 128).
        # The tail run [128, 130) hangs under six more inner nodes down
        # to span 2, none covered, so the round trips stay the depth.
        (130, 8, 8, 10, 11),
        # Every child of the root is covered: the root, then 16 (64)
        # runs, against 2·runs − 1 nodes over 5 (7) levels.
        (1024, 5, 2, 17, 31),
        (4096, 7, 2, 65, 127),
    ],
)
def test_metadata_descent_round_trips(blocks, depth, trips, nodes, walk_nodes, io_workers):
    """Round trips and nodes of one cold read, pinned exactly, and
    bounded by what the level-by-level descent fetched: *depth* round
    trips and *walk_nodes* nodes.  The append publishes exactly the
    nodes the cold read fetches: nothing below a covered reference."""
    report = demos.metadata_descent(
        blocks=blocks, buckets=4, latency=5e-4, io_workers=io_workers, reads=1
    )
    _passed(report)
    assert demos._tree_depth(blocks) == depth
    assert report.measurements["cold_round_trips"] == trips
    assert report.measurements["cold_nodes"] == nodes
    assert report.measurements["published_nodes"] == nodes
    assert trips <= depth and nodes <= walk_nodes


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
            writers=2, rounds=1, blocks=1, vman_latency=0, io_workers=0
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


# -- §12 multi-tenant gateway -------------------------------------------------


@pytest.mark.parametrize("tenants", [2, 4])
def test_gateway_fairness_parks_only_the_greedy_tenant(tenants):
    report = demos.gateway_fairness(
        tenants=tenants,
        clients=4,
        ops=2,
        payload=2048,
        greedy_bps=256 * 1024,
        workers=4,
        seed=0,
    )
    _passed(report)
    stats = report.measurements["stats"]
    assert set(stats) == {*(f"polite-{i}" for i in range(tenants - 1)), "greedy"}
    for tid, tenant in stats.items():
        assert (tenant["ops"]["append"], tenant["bytes_in"]) == (8, 8 * 2048)
        assert tenant["admission_rejections"] == 0
        # Only the greedy tenant has a bucket, and its burst is half a
        # payload: every one of its writes waited.
        assert (tenant["throttle_wait_s"] > 0) == (tid == "greedy")
