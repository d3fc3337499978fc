"""Ablations of the paper's design choices on the simulated deployment.

Each test swaps one mechanism inside an otherwise identical deployment
and asserts the direction (and, where the paper gives one, the size) of
the effect.  Everything runs on the simulator's virtual clock, so the
outcomes are deterministic for a given seed.
"""

from repro.deploy import deploy_mapreduce
from repro.deploy.deployment import deploy_microbench
from repro.deploy.platform import DEFAULT_CALIBRATION, Calibration
from repro.harness.experiments import GREP_SCAN_RATE
from repro.harness.scenarios import concurrent_appenders, concurrent_readers, single_writer
from repro.util.bytesize import MB

# -- metadata decentralization and version-manager serialization -------------
#
# Metadata decentralization "avoids the bottleneck created by concurrent
# accesses ... in the case of a centralized metadata server" (§III-A.3);
# version assignment is the single serialized step (§III-A.4).

META_NODES = 80
META_CLIENTS = 32


def _read_makespan(metadata_providers: int, mdp_service: float) -> float:
    cal = Calibration(mdp_service=mdp_service)
    deployment = deploy_microbench(
        "bsfs", total_nodes=META_NODES, metadata_providers=metadata_providers,
        calibration=cal,
    )
    engine = deployment.cluster.engine
    storage = deployment.storage

    def scenario():
        yield from storage.create(deployment.dedicated_client, "f")
        for _ in range(META_CLIENTS):
            yield from storage.append(
                deployment.dedicated_client, "f", cal.block_size,
                produce_rate=cal.client_stream_cap,
            )
        t0 = engine.now
        readers = deployment.storage_nodes[:META_CLIENTS]

        def reader(i, node):
            yield from storage.read(
                node, "f", offset=i * cal.block_size, size=cal.block_size,
                consume_rate=cal.client_stream_cap,
            )

        procs = [engine.process(reader(i, n)) for i, n in enumerate(readers)]
        yield engine.all_of(procs)
        return engine.now - t0

    return engine.run(engine.process(scenario()))


def test_ablation_metadata_decentralization():
    """1 metadata provider vs 20, with a heavier per-lookup cost (2 ms
    per tree-node op) so the metadata path is visible next to the 64 MB
    transfers."""
    service = 2e-3
    assert _read_makespan(20, service) < _read_makespan(1, service)


def test_ablation_version_manager_serialization():
    """Aggregate append throughput vs version-manager service time."""
    values = [
        concurrent_appenders(
            "bsfs",
            n_clients=META_CLIENTS,
            total_nodes=META_NODES,
            calibration=Calibration(vm_service=service),
        ).aggregate_throughput / MB
        for service in (3e-4, 5e-3, 2e-2)
    ]
    # Heavier serialization point -> lower aggregate throughput.
    assert values[0] > values[1] > values[2]
    # At the paper's sub-millisecond service time the serialization is
    # nearly invisible (that is the design's point).
    assert values[0] > 0.8 * META_CLIENTS * 64  # >= 80% of perfect scaling


# -- block placement (the design choice behind Figs 3/4) ----------------------
#
# Swapping the policy inside the *same* BlobSeer deployment isolates it:
# with random placement, BlobSeer's own read concurrency degrades too.

PLACEMENT_NODES = 100
PLACEMENT_CLIENTS = 80  # close to the provider count: collisions become visible


def _read_rate(placement: str) -> float:
    """Mean per-client read MB/s against a BlobSeer using *placement*."""
    deployment = deploy_microbench(
        "bsfs", total_nodes=PLACEMENT_NODES, placement=placement, seed=7
    )
    engine = deployment.cluster.engine
    cal = DEFAULT_CALIBRATION
    storage = deployment.storage

    def boot_and_read():
        yield from storage.create(deployment.dedicated_client, "f")
        for _ in range(PLACEMENT_CLIENTS):
            yield from storage.append(
                deployment.dedicated_client, "f", cal.block_size,
                produce_rate=cal.client_stream_cap,
            )
        readers = deployment.storage_nodes[:PLACEMENT_CLIENTS]
        durations = {}

        def reader(i, node):
            t0 = engine.now
            yield from storage.read(
                node, "f", offset=i * cal.block_size, size=cal.block_size,
                consume_rate=cal.client_stream_cap,
            )
            durations[i] = engine.now - t0

        procs = [engine.process(reader(i, n)) for i, n in enumerate(readers)]
        yield engine.all_of(procs)
        return sum(cal.block_size / d for d in durations.values()) / len(durations)

    return engine.run(engine.process(boot_and_read())) / MB


def test_ablation_placement_policies():
    rates = {p: _read_rate(p) for p in ("round_robin", "least_loaded", "random")}
    # Balanced policies sustain ~the single-client rate (70 MB/s)...
    assert rates["round_robin"] > 66.0
    assert rates["least_loaded"] > 66.0
    # ...while independent-uniform placement already loses measurably to
    # reader collisions.  (HDFS's much larger Figure 4 losses need its
    # *skewed* placement on top — see test_ablation_grep_gap_vs_layout_skew.)
    assert rates["random"] < 0.93 * rates["round_robin"]


def test_ablation_writer_insensitive_to_policy():
    """The single writer is stream-bound: placement barely moves it
    (the unbalance, not the writer throughput, is what random ruins)."""
    assert single_writer("bsfs", 24, total_nodes=60).throughput > 55 * MB
    assert concurrent_readers("bsfs", 24, total_nodes=60).mean_client_throughput > 55 * MB


# -- replication level (§VI-B) -------------------------------------------------

REPLICATION_BLOCKS = 12


def _write_time(replication: int) -> float:
    deployment = deploy_microbench("bsfs", total_nodes=60)
    engine = deployment.cluster.engine
    storage = deployment.storage
    cal = DEFAULT_CALIBRATION

    def scenario():
        yield from storage.create(deployment.dedicated_client, "f", replication=replication)
        t0 = engine.now
        for _ in range(REPLICATION_BLOCKS):
            yield from storage.append(
                deployment.dedicated_client, "f", cal.block_size,
                produce_rate=cal.client_stream_cap,
                replication=replication,
            )
        return engine.now - t0

    return engine.run(engine.process(scenario()))


def test_ablation_replication_write_cost():
    times = {r: _write_time(r) for r in (1, 2, 3)}
    # More replicas -> more client egress traffic -> slower writes.
    assert times[1] < times[2] < times[3]
    # But not catastrophically: replicas fan out in parallel.
    assert times[3] < 3.2 * times[1]


# -- the grep gap as a function of HDFS layout skew (Figure 6(b)) --------------
#
# Sweeping ``hdfs_target_reuse`` (1 = independent uniform, larger = longer
# runs of chunks on one node) shows the job-completion gap growing with
# skew: the magnitude of Figure 6(b) traces to layout skew.

SKEW_INPUT_BLOCKS = 100


def _grep_time(backend: str, target_reuse: int) -> float:
    cal = Calibration(hdfs_target_reuse=target_reuse)
    deployment = deploy_mapreduce(
        backend, workers=75, metadata_providers=10, calibration=cal, seed=9
    )
    engine = deployment.cluster.engine
    storage = deployment.storage
    client = deployment.dedicated_client

    def scenario():
        if backend == "bsfs":
            yield from storage.create(client, "input")
            for _ in range(SKEW_INPUT_BLOCKS):
                yield from storage.append(
                    client, "input", cal.block_size,
                    produce_rate=cal.client_stream_cap,
                )
            handle = "input"
        else:
            yield from storage.write_file(
                client, "/input", SKEW_INPUT_BLOCKS * cal.block_size,
                produce_rate=cal.client_stream_cap,
            )
            handle = "/input"
        elapsed = yield from deployment.hadoop.run_scan_job(
            handle, scan_rate=GREP_SCAN_RATE
        )
        return elapsed

    return engine.run(engine.process(scenario()))


def test_ablation_grep_gap_vs_layout_skew():
    bsfs = _grep_time("bsfs", 1)  # reuse is an HDFS-only knob
    gaps = {}
    for reuse in (1, 3, 8, 16):
        hdfs = _grep_time("hdfs", reuse)
        gaps[reuse] = (hdfs - bsfs) / hdfs
    # The gap grows with skew; heavy skew produces paper-magnitude gaps.
    assert gaps[16] > gaps[3] >= gaps[1] - 0.02
    assert gaps[16] > 0.15
