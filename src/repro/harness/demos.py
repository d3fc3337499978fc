"""Self-checking A/B scenarios over real stores (DESIGN.md §8–§13).

Each scenario takes plain keyword sizes (``repro.cli`` holds the demo
defaults), drives the functional layer end to end and returns one
:class:`~repro.harness.report.ScenarioReport`, which the CLI renders.
It reports counts and checks counts and invariants only — no scenario
reads a clock; ``perf/`` is where speed is measured.

The baselines are not forks of the store.  The metadata descent is
held to at most one batched round trip per tree level; the per-writer
publish baseline is that protocol's exact model — two serialized
version-manager interactions per append.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, Optional, Sequence

from repro.blob import LocalBlobStore, NodeKey, StoreConfig
from repro.blob.segment_tree import RUN_SPAN, build_tombstone_patch, root_span
from repro.errors import ProviderError, ReplicationError
from repro.gateway import Gateway, TenantPolicy
from repro.harness.report import ScenarioReport, check
from repro.util.bytesize import KB

__all__ = [
    "run_clients",
    "run_pool",
    "scrub_heal",
    "metadata_descent",
    "publish_pipeline_appends",
    "zero_copy_round_trip",
    "gateway_fairness",
]


def run_clients(body: Callable[[int], None], clients: int) -> None:
    """Run ``body(tid)`` on *clients* threads released together by a
    barrier; re-raises the first error."""
    barrier = threading.Barrier(clients)

    def client(tid: int) -> None:
        barrier.wait()
        body(tid)

    with ThreadPoolExecutor(clients) as pool:
        list(pool.map(client, range(clients)))


def run_pool(jobs: Sequence[Callable[[], None]], workers: int) -> None:
    """Drain *jobs* over *workers* threads (a few OS threads multiplexing
    many client sessions); re-raises the first error."""
    with ThreadPoolExecutor(workers) as pool:
        for done in [pool.submit(job) for job in jobs]:
            done.result()


def _config(**fields) -> StoreConfig:
    """An 8-provider, 4-bucket store's config with *fields* on top."""
    return StoreConfig(**{"data_providers": 8, "metadata_providers": 4, **fields})


def _store(**fields) -> LocalBlobStore:
    return LocalBlobStore(config=_config(**fields))


def _whole_reads(
    store: LocalBlobStore, blob: str, size: int, clients: int, rounds: int
) -> None:
    """*clients* threads read the whole BLOB *rounds* times each."""

    def reader(_tid: int) -> None:
        for _ in range(rounds):
            if len(store.read(blob)) != size:
                raise AssertionError("short read")

    run_clients(reader, clients)


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
    cost at most one batched round trip per level of the tree over runs
    (DESIGN.md §4) and fetch about one node per run, not two per block.
    Below a covered reference it enters the runs directly, so a read of
    a BLOB one append wrote whole costs the root's round and the runs',
    and the append publishes no node between (at most one per level).
    *clients* threads then re-read the BLOB *reads* times each for the
    node cache's hit rate.
    """
    if latency <= 0:
        raise ValueError("latency must be > 0: it is what the batched descent saves")
    nblocks, reads = max(blocks, 2), max(reads, 1)
    depth = _tree_depth(nblocks)
    runs = -(-nblocks // RUN_SPAN)
    # One node per run plus the inner nodes above them: at most two per
    # level on the last block's path.
    node_bound = runs + 2 * depth
    data = b"m" * (nblocks * block_size)
    store = _store(
        metadata_providers=buckets,
        block_size=block_size,
        io_workers=io_workers,
        metadata_latency=latency,
    )
    with store:
        blob = store.create()
        stats = store.metadata.store.stats
        stats.reset()
        store.append(blob, data)
        published = stats.snapshot()["keys_stored"]  # once per key, not replica
        stats.reset()
        intact = store.read(blob) == data
        cold = stats.snapshot()
        cold_trips, cold_keys = cold["round_trips"], cold["keys_fetched"]
        _whole_reads(store, blob, len(data), clients, reads)
        hit_rate = store.metadata.cache.hit_rate
    return ScenarioReport(
        title=(
            f"{clients} client(s) reading {nblocks} blocks over {buckets} buckets "
            f"at {latency * 1e3:.1f}ms/request (tree depth {depth} over runs):"
        ),
        header=("op", "round trips", "nodes", "hit rate"),
        rows=(
            ("append (bound)", "-", f"<= {runs + depth}", "-"),
            ("append", "-", published, "-"),
            ("cold read (bound)", f"<= {depth}", f"<= {node_bound}", "-"),
            ("cold read", cold_trips, cold_keys, "-"),
            (f"{clients * reads} warm re-read(s)", "-", "-", f"{hit_rate:.0%}"),
        ),
        measurements={
            "published_nodes": published,
            "cold_round_trips": cold_trips,
            "cold_nodes": cold_keys,
            "cache_hit_rate": round(hit_rate, 4),
        },
        checks=(
            check("append nodes vs runs + depth", published, "<=", runs + depth),
            check("the cold read returned every byte", intact),
            check("cold-read round trips vs tree depth over runs", cold_trips, "<=", depth),
            check("cold-read nodes vs runs + 2 per level", cold_keys, "<=", node_bound),
        ),
        summary=(
            f"the append published {published} nodes; "
            f"{cold_trips} metadata round trips and {cold_keys} nodes per cold read "
            f"of {nblocks} blocks (tree depth {depth}); warm re-reads hit the node "
            f"cache {hit_rate:.0%} of the time"
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
    manager, so ``2·ops`` round trips.  The pipeline (DESIGN.md §10)
    must need at most half the round trips and coalesce writers into
    batches.
    """
    if vman_latency <= 0:
        raise ValueError(
            "vman_latency must be > 0: writers queue for a batch only while a flush is in service"
        )
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

        run_clients(appender, writers)
        stats = store.vman_stats.snapshot()
        final = store.latest_version(blob), store.snapshot(blob).size
    trips, max_batch = stats["vman_round_trips"], stats["vman_max_commit_batch"]
    return ScenarioReport(
        title=(
            f"{writers} writers x{rounds} appends of {payload_len // block_size} "
            f"blocks at {vman_latency * 1e3:.1f}ms/vman interaction:"
        ),
        header=("publish path", "vman round trips", "max batch"),
        rows=(
            ("per-writer (model)", 2 * ops, 1),
            ("group-commit pipeline", trips, max_batch),
        ),
        measurements={
            "per_writer_round_trips": 2 * ops,
            "vman_round_trips": trips,
            "max_commit_batch": max_batch,
        },
        checks=(
            check("final (version, size)", final, "==", (ops, ops * payload_len)),
            check(f"vman round trips for {ops} appends", trips, "<=", ops),
            check("largest commit batch", max_batch, ">=", 2),
        ),
        summary=(
            f"O(writers)={2 * ops} -> O(batches)={trips} vman round trips "
            f"(largest batch {max_batch})"
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
        _whole_reads(store, blob, size, clients, rounds)
        layers["read"], read = stats.layers(), stats.snapshot()
        intact = store.read(blob) == data
    return ScenarioReport(
        title=(
            f"append + {reads} read(s) of {size // block_size} x {block_size:,}B "
            f"blocks over 8 providers:"
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

    ``tenants − 1`` polite tenants and a greedy one each write
    ``clients × ops`` files at once.  Only the greedy tenant is capped:
    a bytes/s token bucket whose burst is half a payload can never hold
    a whole write's tokens, so every greedy admission is parked.
    Checks that every tenant moved its full share and that the greedy
    tenant was parked.  The time bound the bucket keeps (bytes ≤ burst
    + rate × elapsed) is checked on a virtual clock by the gateway's
    tests, where it holds exactly.
    """
    # Two blocks per payload: every op exercises scatter + publish.
    config = _config(block_size=max(1024, payload // 2), io_workers=8, seed=seed)
    data = b"g" * payload
    polite = [f"polite-{i}" for i in range(tenants - 1)]
    greedy_policy = TenantPolicy(
        bytes_per_sec=greedy_bps, burst_seconds=payload / 2 / greedy_bps
    )

    def writes(gw: Gateway, tenant: str, policy: Optional[TenantPolicy] = None) -> list:
        """One ``write_file`` job per (session, op) of a new tenant."""
        token = gw.register_tenant(tenant, policy)
        sessions = [gw.connect(tenant, token) for _ in range(clients)]
        return [
            partial(client.write_file, f"/f{c}o{o}", data)
            for c, client in enumerate(sessions)
            for o in range(ops)
        ]

    with Gateway(config=config) as gw:
        polite_jobs = [job for tid in polite for job in writes(gw, tid)]
        greedy_jobs = writes(gw, "greedy", greedy_policy)
        # The greedy tenant writes from its own threads, so its parked
        # admissions hold none of the polite pool's workers.
        with ThreadPoolExecutor(1) as side:
            greedy_done = side.submit(run_pool, greedy_jobs, max(2, workers // 2))
            run_pool(polite_jobs, workers)
            greedy_done.result()
        stats = gw.tenant_stats()

    everyone = [*polite, "greedy"]
    moved = {tid: (stats[tid]["ops"]["append"], stats[tid]["bytes_in"]) for tid in everyone}
    share = (clients * ops, clients * ops * payload)
    parked = {tid: stats[tid]["throttle_wait_s"] > 0 for tid in everyone}
    return ScenarioReport(
        title=(
            f"multi-tenant gateway: {tenants} tenants x {clients} clients x {ops} "
            f"writes of {payload:,}B, greedy tenant capped at {greedy_bps / KB:.0f} KB/s"
        ),
        header=("tenant", "appends", "KB", "parked", "rejected"),
        rows=tuple(
            (
                tid,
                moved[tid][0],
                f"{moved[tid][1] / KB:g}",
                "yes" if parked[tid] else "no",
                stats[tid]["admission_rejections"],
            )
            for tid in everyone
        ),
        measurements={"stats": stats},
        checks=(
            check(
                "(appends, bytes) per polite tenant",
                {tid: moved[tid] for tid in polite},
                "==",
                dict.fromkeys(polite, share),
            ),
            check("greedy (appends, bytes) admitted", moved["greedy"], "==", share),
            check("greedy tenant was parked in its bucket", parked["greedy"]),
        ),
        summary=(
            f"every tenant moved its {share[0]} writes of {payload:,}B; the greedy "
            f"tenant's waited in its bucket"
        ),
    )
