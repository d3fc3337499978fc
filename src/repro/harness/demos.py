"""Self-checking A/B scenarios over real stores (DESIGN.md §8–§13).

Each scenario takes plain keyword sizes (``repro.cli`` holds the demo
defaults), drives the functional layer end to end and returns one
:class:`~repro.harness.report.ScenarioReport`, which the CLI renders.
Its checks are counts and invariants only; wall-clock figures (MB/s,
seconds against an analytic floor, p99s) are reported, never checked —
``perf/`` is where speed is compared.

The baselines are not forks of the store.  The metadata descent is
held to its analytic floor, one batched round trip per tree level; the
per-writer publish baseline is that protocol's exact model — two
serialized version-manager interactions per append.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence

from repro.blob import LocalBlobStore, NodeKey, StoreConfig
from repro.blob.segment_tree import RUN_SPAN, build_tombstone_patch, root_span
from repro.errors import ProviderError, ReplicationError
from repro.gateway import Gateway, TenantPolicy
from repro.harness.report import ScenarioReport, check
from repro.util.bytesize import KB, MB

__all__ = [
    "p99",
    "run_clients",
    "run_pool",
    "scrub_heal",
    "metadata_descent",
    "publish_pipeline_appends",
    "zero_copy_round_trip",
    "gateway_fairness",
    "engine_fanout",
]


def p99(samples: Sequence[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def run_clients(body: Callable[[int], None], clients: int) -> float:
    """Run ``body(tid)`` on *clients* threads released together by a
    barrier; returns elapsed seconds and re-raises the first error."""
    barrier = threading.Barrier(clients)

    def client(tid: int) -> None:
        barrier.wait()
        body(tid)

    start = time.perf_counter()
    with ThreadPoolExecutor(clients) as pool:
        list(pool.map(client, range(clients)))
    return time.perf_counter() - start


def run_pool(jobs: Sequence[Callable[[], None]], workers: int) -> float:
    """Drain *jobs* over *workers* threads (a few OS threads multiplexing
    many client sessions); returns elapsed seconds and re-raises the
    first error."""
    start = time.perf_counter()
    with ThreadPoolExecutor(workers) as pool:
        for done in [pool.submit(job) for job in jobs]:
            done.result()
    return time.perf_counter() - start


def _config(**fields) -> StoreConfig:
    """An 8-provider, 4-bucket store's config with *fields* on top."""
    return StoreConfig(**{"data_providers": 8, "metadata_providers": 4, **fields})


def _store(**fields) -> LocalBlobStore:
    return LocalBlobStore(config=_config(**fields))


def _whole_reads(
    store: LocalBlobStore, blob: str, size: int, clients: int, rounds: int
) -> float:
    """Seconds *clients* threads take to read the BLOB *rounds* times each."""

    def reader(_tid: int) -> None:
        for _ in range(rounds):
            if len(store.read(blob)) != size:
                raise AssertionError("short read")

    return run_clients(reader, clients)


# -- §8 anti-entropy -----------------------------------------------------------


def _next_append_keys(store, blob_id: str, nblocks: int) -> list[NodeKey]:
    """Canonical metadata keys the NEXT append of *nblocks* will publish.

    Computable from version-manager state alone (the same property the
    abort protocol relies on), which lets the scenario deterministically
    kill every replica of one key the doomed write needs.
    """
    state = store.version_manager.blob(blob_id)
    prior = state.records[-1].size_after
    start = prior // state.block_size
    patch = build_tombstone_patch(
        blob_id=blob_id,
        version=len(state.records),
        write_start=start,
        write_end=start + nblocks,
        size_after=prior + nblocks * state.block_size,
        prior_size=prior,
        block_size=state.block_size,
        history=tuple(r.history_record for r in state.records[1:] if r.length > 0),
    )
    return [node.key for node in patch]


def scrub_heal(
    *,
    buckets: int,
    providers: int,
    replication: int,
    metadata_replication: int,
    writes: int,
    seed: int,
    ops_per_sec: Optional[float],
) -> ScenarioReport:
    """Two injuries, one cure (DESIGN.md §8).

    (1) A metadata bucket sleeps through some writes and recovers
    lagging (with ``metadata_replication >= 2``); (2) every replica of
    one key dies mid-protocol, so a write aborts into a tombstone whose
    filler cannot fully land until the buckets recover.  One scrub pass
    must then restore digest-verified replica convergence and make
    every version readable, with no other repair step.
    """
    bs = 1024
    expected: dict[int, bytes] = {}
    content = b""
    with _store(
        data_providers=providers,
        metadata_providers=buckets,
        block_size=bs,
        replication=replication,
        metadata_replication=metadata_replication,
        seed=seed,
    ) as store:
        dht, blob = store.metadata.store, store.create()

        def healthy_append(i: int, nblocks: int) -> None:
            nonlocal content
            data = bytes([65 + i % 26]) * (nblocks * bs)
            content += data
            expected[store.append(blob, data)] = content

        for i in range(max(writes, 1)):
            healthy_append(i, 1 + i % 3)
        # Injury 1: a replica lags (only meaningful with replication >= 2 —
        # at replication 1 the writes below would have no live copy to hit).
        lagging = metadata_replication >= 2
        if lagging:
            victim = sorted(dht.buckets)[seed % buckets]
            dht.fail_bucket(victim)
            healthy_append(97, 2)
            healthy_append(98, 2)
            dht.recover_bucket(victim)
        # Injury 2: every replica of one key the next append must publish
        # dies, so the write aborts into a tombstone mid-protocol.
        outage = dht.owners(_next_append_keys(store, blob, 2)[0])
        for name in outage:
            dht.fail_bucket(name)
        try:
            store.append(blob, b"x" * (2 * bs))
            aborted = False
        except (ProviderError, ReplicationError):
            aborted = True
        expected[store.latest_version(blob)] = content + bytes(2 * bs)
        for name in outage:
            dht.recover_bucket(name)

        scrub = store.scrub(ops_per_sec=ops_per_sec)
        divergent = len(store.metadata.divergent_keys())
        wrong = [v for v, want in expected.items() if store.read(blob, version=v) != want]
        counters = {"scrub": dataclasses.asdict(scrub), "metadata": store.metadata.stats()}
    return ScenarioReport(
        title=(
            "one scrub pass after a lagging replica and an append aborted by "
            f"losing buckets {outage} (every replica of one of its keys):"
        ),
        header=("section", "counter", "value"),
        rows=tuple(
            (section, name, repr(value))
            for section, values in counters.items()
            for name, value in sorted(values.items())
        ),
        measurements=counters,
        checks=(
            check("append under a total replica outage aborted", aborted),
            check("divergent metadata keys left", divergent, "==", 0),
            check("tombstone filler nodes republished", scrub.filler_republished, ">", 0),
            check("lagging replicas re-fed", scrub.replicas_healed, ">=", int(lagging)),
            check("versions reading back wrong", wrong, "==", []),
        ),
        summary=(
            f"{scrub.replicas_healed} lagging replicas re-fed, "
            f"{scrub.filler_republished} filler nodes republished, all "
            f"{len(expected)} versions read back byte-identical from one pass"
        ),
    )


# -- §9 batched metadata descent -----------------------------------------------


def _tree_depth(nblocks: int) -> int:
    """Levels of the tree one append of *nblocks* blocks to an empty
    BLOB publishes: halve from the root along the last block's path
    until the position is a run (inside the write, at most
    ``RUN_SPAN`` wide).  Every other path ends no deeper."""
    offset, span, depth = 0, root_span(nblocks), 1
    while span > RUN_SPAN or offset + span > nblocks:
        span //= 2
        if offset + span < nblocks:
            offset += span
        depth += 1
    return depth


def metadata_descent(
    *,
    blocks: int,
    buckets: int,
    latency: float,
    io_workers: int,
    reads: int,
    clients: int = 1,
    block_size: int = 1024,
) -> ScenarioReport:
    """One read workload through the batched pipeline (DESIGN.md §9).

    Under a per-request metadata latency, the cold read's descent must
    cost one batched round trip per level of the tree over runs
    (DESIGN.md §4) — its analytic floor is ``levels × latency`` — and
    fetch about one node per run, not two per block.  *clients* threads
    then re-read the BLOB *reads* times each for the aggregate
    throughput and the node cache's hit rate.
    """
    if latency <= 0:
        raise ValueError("latency must be > 0: it sets the cold read's floor")
    nblocks, reads = max(blocks, 2), max(reads, 1)
    depth = _tree_depth(nblocks)
    data = b"m" * (nblocks * block_size)
    store = _store(
        metadata_providers=buckets,
        block_size=block_size,
        io_workers=io_workers,
        metadata_latency=latency,
        metadata_cache_nodes=1024,
    )
    with store:
        blob = store.create()
        store.append(blob, data)
        stats = store.metadata.store.stats
        stats.reset()
        start = time.perf_counter()
        intact = store.read(blob) == data
        cold_wall = time.perf_counter() - start
        cold = stats.snapshot()
        cold_trips, cold_keys = cold["round_trips"], cold["keys_fetched"]
        elapsed = _whole_reads(store, blob, len(data), clients, reads)
        hit_rate = store.metadata.cache.hit_rate
    floor = cold_trips * latency
    rate = clients * reads * len(data) / elapsed / MB
    runs = -(-nblocks // RUN_SPAN)
    return ScenarioReport(
        title=(
            f"{clients} client(s) reading {nblocks} blocks over {buckets} buckets "
            f"at {latency * 1e3:.1f}ms/request (tree depth {depth} over runs):"
        ),
        header=("read", "wall", "round trips", "nodes", "hit rate", "MB/s"),
        rows=(
            ("cold (floor)", f">= {floor:.3f}s", depth, "-", "-", "-"),
            ("cold", f"{cold_wall:.3f}s", cold_trips, cold_keys, "-", "-"),
            ("warm re-reads", f"{elapsed:.3f}s", "-", "-", f"{hit_rate:.0%}", f"{rate:.2f}"),
        ),
        measurements={
            "cold_round_trips": cold_trips,
            "cold_nodes": cold_keys,
            "mb_per_s": rate,
            "cache_hit_rate": round(hit_rate, 4),
        },
        checks=(
            check("the cold read returned every byte", intact),
            check("cold-read round trips vs tree depth over runs", cold_trips, "<=", depth),
            # One node per run plus the inner nodes above them: at most
            # two per level on the last block's path.
            check("cold-read nodes vs runs + 2 per level", cold_keys, "<=", runs + 2 * depth),
        ),
        summary=(
            f"{cold_trips} metadata round trips and {cold_keys} nodes per cold read "
            f"of {nblocks} blocks (cold wall / floor: {cold_wall / floor:.1f}x)"
        ),
    )


# -- §10 group commit ----------------------------------------------------------


def publish_pipeline_appends(
    *,
    writers: int,
    rounds: int,
    blocks: int,
    vman_latency: float,
    io_workers: int,
    block_size: int = 1024,
) -> ScenarioReport:
    """Concurrent appenders through the publish pipeline vs per-writer.

    The per-writer protocol is modelled exactly: one assign and one
    commit interaction per append through the concurrency-1 version
    manager, so ``2·ops`` round trips and a ``2·ops·vman_latency`` wall
    floor.  The pipeline (DESIGN.md §10) must need at most half the
    round trips and coalesce writers into batches; its wall time is
    reported against the floor.
    """
    if vman_latency <= 0:
        raise ValueError("vman_latency must be > 0: it sets the per-writer floor")
    writers, rounds = max(writers, 2), max(rounds, 1)
    ops = writers * rounds
    payload_len = max(blocks, 1) * block_size
    with _store(
        block_size=block_size,
        io_workers=io_workers,
        vman_latency=vman_latency,
        overlap_publish=io_workers > 0,
    ) as store:
        blob = store.create()
        store.vman_stats.reset()

        def appender(tid: int) -> None:
            for _ in range(rounds):
                store.append(blob, bytes([65 + tid % 26]) * payload_len)

        elapsed = run_clients(appender, writers)
        stats = store.vman_stats.snapshot()
        final = store.latest_version(blob), store.snapshot(blob).size
    trips, max_batch = stats["vman_round_trips"], stats["vman_max_commit_batch"]
    floor = 2 * ops * vman_latency
    rate, floor_rate = (ops * payload_len / t / MB for t in (elapsed, floor))
    return ScenarioReport(
        title=(
            f"{writers} writers x{rounds} appends of {payload_len // block_size} "
            f"blocks at {vman_latency * 1e3:.1f}ms/vman interaction:"
        ),
        header=("publish path", "wall", "vman round trips", "max batch", "MB/s"),
        rows=(
            ("per-writer (model)", f">= {floor:.3f}s", 2 * ops, 1, f"<= {floor_rate:.2f}"),
            ("group-commit pipeline", f"{elapsed:.3f}s", trips, max_batch, f"{rate:.2f}"),
        ),
        measurements={
            "per_writer_round_trips": 2 * ops,
            "per_writer_floor_s": floor,
            "vman_round_trips": trips,
            "max_commit_batch": max_batch,
            "wall_s": elapsed,
        },
        checks=(
            check("final (version, size)", final, "==", (ops, ops * payload_len)),
            check(f"vman round trips for {ops} appends", trips, "<=", ops),
            check("largest commit batch", max_batch, ">=", 2),
        ),
        summary=(
            f"O(writers)={2 * ops} -> O(batches)={trips} vman round trips (largest "
            f"batch {max_batch}; per-writer floor / wall: {floor / elapsed:.1f}x)"
        ),
    )


# -- §11 zero-copy data plane --------------------------------------------------


def zero_copy_round_trip(
    *, blocks: int, block_size: int, io_workers: int, clients: int = 1, rounds: int = 1
) -> ScenarioReport:
    """One large append, then ``clients × rounds`` whole-BLOB reads, with
    the per-layer :class:`~repro.blob.block.CopyStats` byte accounting.

    The append chunks the caller's buffer into ``memoryview`` windows
    (immutable input: no copy at all), each read joins every block
    into ONE immutable result (DESIGN.md §11) — so an N-byte read
    materializes at most N bytes client-side.
    """
    size = max(blocks, 2) * block_size
    reads = clients * rounds
    data = bytes(bytearray(range(256))) * (size // 256) + b"x" * (size % 256)
    with _store(block_size=block_size, io_workers=io_workers) as store:
        blob, stats = store.create(), store.copy_stats
        stats.reset()
        store.append(blob, data)
        layers, write = {"append": stats.layers()}, stats.snapshot()
        stats.reset()
        elapsed = _whole_reads(store, blob, size, clients, rounds)
        layers["read"], read = stats.layers(), stats.snapshot()
        intact = store.read(blob) == data
    rate = reads * size / elapsed / MB
    return ScenarioReport(
        title=(
            f"append + {reads} read(s) of {size // block_size} x {block_size:,}B "
            f"blocks over 8 providers ({rate:.2f} MB/s read):"
        ),
        header=("phase", "layer", "copied", "transferred", "result"),
        rows=tuple(
            (phase, layer, *(f"{counts[k]:,}" for k in ("copied", "transferred", "result")))
            for phase, per_layer in layers.items()
            for layer, counts in per_layer.items()
        ),
        measurements={"size": size, "reads": reads, "write": write, "read": read},
        checks=(
            check("read returned the appended bytes", intact),
            check("bytes copied appending immutable input", write["bytes_copied"], "==", 0),
            check("bytes the append transferred", write["bytes_transferred"], "==", size),
            check("bytes the reads materialized", read["bytes_copied"], "<=", reads * size),
            check("bytes the reads returned", read["bytes_result"], "==", reads * size),
        ),
        summary=(
            "append copied 0B client-side (freeze elided for immutable bytes), "
            f"reads materialized {read['bytes_copied'] // reads:,}B each <= 1x "
            f"the {size:,}B payload"
        ),
    )


# -- §12 multi-tenant gateway --------------------------------------------------

#: Depth of the greedy tenant's bytes bucket, in seconds of its rate.
_GREEDY_BURST_S = 0.25
#: The greedy tenant runs at least this long even if the polite cohort
#: drains faster — a shorter window would let the one-time burst
#: allowance dominate the rate measurement.
_GREEDY_WINDOW_S = 2.0


def gateway_fairness(
    *,
    tenants: int,
    clients: int,
    ops: int,
    payload: int,
    greedy_bps: float,
    workers: int,
    seed: int,
) -> ScenarioReport:
    """N tenants share one store, one turns greedy (DESIGN.md §12).

    Phase 1 runs one tenant alone for a latency reference.  Phase 2
    runs ``tenants − 1`` polite tenants at once with a greedy one that
    hammers the store under a bytes/s token bucket until the polite
    cohort drains.  Checks that the bucket held the greedy tenant to
    its cap and that every polite tenant moved its full share; the
    polite pooled p99 is reported next to the solo reference.
    """
    # Two blocks per payload: every op exercises scatter + publish.
    config = _config(block_size=max(1024, payload // 2), io_workers=8, seed=seed)
    data = b"g" * payload
    lock = threading.Lock()

    def timed_writes(gw: Gateway, tenant: str, latencies: list[float]) -> list:
        """One timed ``write_file`` job per (session, op) of a new tenant."""
        token = gw.register_tenant(tenant)

        def job(client, path):
            def run() -> None:
                start = time.perf_counter()
                client.write_file(path, data)
                sample = time.perf_counter() - start
                with lock:
                    latencies.append(sample)

            return run

        return [
            job(client, f"/f{c}o{o}")
            for c, client in enumerate(gw.connect(tenant, token) for _ in range(clients))
            for o in range(ops)
        ]

    solo: list[float] = []
    with Gateway(config=config) as gw:
        run_pool(timed_writes(gw, "solo", solo), workers)
    solo_p99 = p99(solo)

    latencies: dict[str, list[float]] = {f"polite-{i}": [] for i in range(tenants - 1)}
    with Gateway(config=config) as gw:
        jobs = [job for tid in latencies for job in timed_writes(gw, tid, latencies[tid])]
        policy = TenantPolicy(bytes_per_sec=greedy_bps, burst_seconds=_GREEDY_BURST_S)
        token = gw.register_tenant("greedy", policy)
        greedy = [gw.connect("greedy", token) for _ in range(clients)]
        # Half a pool of hammering threads: the greedy tenant's demand
        # must dwarf its cap, or the store's own pace (not the bucket)
        # is what holds it and ``throttle_wait_s`` proves nothing.
        shards = max(2, workers // 2)
        stop = threading.Event()

        def hammer(shard: int) -> None:
            mine = greedy[shard::shards] or greedy
            count = 0
            while not stop.is_set():
                mine[count % len(mine)].write_file(f"/s{shard}n{count}", data)
                count += 1

        hammers = [threading.Thread(target=hammer, args=(k,)) for k in range(shards)]
        window_start = time.perf_counter()
        for t in hammers:
            t.start()
        try:
            drained = run_pool(jobs, workers)
            time.sleep(max(0.0, _GREEDY_WINDOW_S - (time.perf_counter() - window_start)))
        finally:
            stop.set()
            for t in hammers:
                t.join()
        window = time.perf_counter() - window_start
        stats = gw.tenant_stats()

    mixed_p99 = p99([s for samples in latencies.values() for s in samples])
    greedy_bytes = stats["greedy"]["bytes_in"]
    greedy_rate = greedy_bytes / window
    greedy_wait = stats["greedy"]["throttle_wait_s"]
    # The bucket's invariant: never more than its rate over the window
    # plus the one-time burst it started with (25 % slack).
    allowed = round(1.25 * greedy_bps * (window + _GREEDY_BURST_S))
    moved = {tid: (stats[tid]["ops"]["append"], stats[tid]["bytes_in"]) for tid in latencies}
    full_share = dict.fromkeys(latencies, (clients * ops, clients * ops * payload))

    def row(tid: str) -> tuple:
        s, samples = stats[tid], sorted(latencies.get(tid, ()))
        return (
            tid,
            s["ops"]["append"],
            f"{s['bytes_in'] / MB:.2f}",
            f"{s['bytes_in'] / (drained if samples else window) / KB:.1f}",
            f"{samples[len(samples) // 2] * 1e3:.2f}" if samples else "-",
            f"{p99(samples) * 1e3:.2f}" if samples else "-",
            f"{s['throttle_wait_s']:.2f}",
            s["admission_rejections"],
        )

    return ScenarioReport(
        title=(
            f"multi-tenant gateway: {tenants} tenants x {clients} clients x {ops} "
            f"writes of {payload:,}B, greedy tenant capped at {greedy_bps / KB:.0f} KB/s"
        ),
        header=("tenant", "appends", "MB", "KB/s", "p50 ms", "p99 ms", "wait s", "rej"),
        rows=tuple(row(tid) for tid in [*latencies, "greedy"]),
        measurements={
            "solo_p99_s": solo_p99,
            "polite_p99_s": mixed_p99,
            "greedy_bps": greedy_rate,
            "greedy_wait_s": greedy_wait,
            "stats": stats,
        },
        checks=(
            check("greedy bytes admitted vs cap x window + burst", greedy_bytes, "<=", allowed),
            check("greedy tenant was parked in its bucket", greedy_wait > 0),
            check("(appends, bytes) per polite tenant", moved, "==", full_share),
        ),
        summary=(
            f"greedy held to {greedy_rate / KB:.1f} KB/s (cap {greedy_bps / KB:.0f} "
            f"KB/s, waited {greedy_wait:.2f}s), every polite tenant moved its full "
            f"share; polite pooled p99 {mixed_p99 * 1e3:.2f} ms vs solo "
            f"{solo_p99 * 1e3:.2f} ms"
        ),
    )


# -- §13 the I/O engine --------------------------------------------------------

#: The engine's whole point: a handful of OS threads no matter how many
#: transfers are in flight.  The scenario fails past this.
_ENGINE_THREAD_BUDGET = 8


def engine_fanout(
    *,
    blocks: int,
    block_size: int,
    latency: float,
    providers: int,
    max_in_flight: int,
) -> ScenarioReport:
    """One latency-bound gather, inline vs the coroutine engine.

    The same whole-file read of thousands of simulated-latency blocks
    runs inline (the vectors one after another) and on the I/O engine
    (DESIGN.md §13).  Either way the blocks travel as one ``get_many``
    vector per provider, so the engine runs one task per provider
    touched, not one per block, on a handful of OS threads.  One
    metadata bucket keeps the tree descent off the engine, so every
    task counted is a gather vector.
    """
    data = b"s" * (max(blocks, 2) * block_size)

    def gather(**fields) -> dict:
        with _store(
            data_providers=providers,
            metadata_providers=1,
            block_size=block_size,
            provider_latency=latency,
            **fields,
        ) as store:
            blob = store.create()
            version = store.append(blob, data)
            touched = sum(1 for count in store.provider_block_counts().values() if count)
            engine = store.io_engine
            if engine is not None:
                engine.stats.reset()
            start = time.perf_counter()
            intact = store.read(blob, version=version) == data
            elapsed = time.perf_counter() - start
            stats = engine.stats.snapshot() if engine is not None else None
        return {
            "intact": intact,
            "mb_per_s": len(data) / elapsed / MB,
            "providers_touched": touched,
            "stats": stats,
        }

    inline = gather(io_workers=0)
    # A gather never submits, so one helper thread is plenty.
    engine = gather(io_workers=1, max_in_flight=max_in_flight)
    stats = engine["stats"]
    return ScenarioReport(
        title=(
            f"gather of {len(data) // block_size} x {block_size:,}B blocks over "
            f"{providers} providers at {latency * 1e3:.1f}ms/request:"
        ),
        header=("run", "MB/s", "threads", "tasks", "in-flight hwm", "queue wait"),
        rows=(
            ("inline (io_workers=0)", f"{inline['mb_per_s']:.2f}", "-", "-", "-", "-"),
            (
                f"engine (max_in_flight={max_in_flight})",
                f"{engine['mb_per_s']:.2f}",
                stats["threads_started"],
                stats["tasks_started"],
                stats["in_flight_hwm"],
                f"{stats['queue_wait_total']:.3f}s",
            ),
        ),
        measurements={"inline": inline, "engine": engine},
        checks=(
            check("both gathers returned the stored bytes", inline["intact"] and engine["intact"]),
            check(
                "engine gather tasks vs providers touched (one vector each)",
                stats["tasks_started"],
                "==",
                engine["providers_touched"],
            ),
            # Past the budget it is a thread pool wearing a coroutine costume.
            check(
                "OS threads the engine grew",
                stats["threads_started"],
                "<=",
                _ENGINE_THREAD_BUDGET,
            ),
        ),
        summary=(
            f"{len(data) // block_size} blocks in {stats['tasks_started']} "
            f"provider vectors on {stats['threads_started']} OS thread(s) "
            f"({engine['mb_per_s'] / inline['mb_per_s']:.1f}x the inline "
            f"gather's throughput)"
        ),
    )
