"""The I/O engine against inline I/O: fig4/fig5-style aggregate throughput.

The paper's core claim is throughput under heavy concurrency: many
clients striping blocks over many data providers at once, with the
version manager as the only serialization point.  This bench gives
every data provider a simulated per-operation service latency (so
transfer time, not Python loop overhead, dominates — as in the real
deployment) and measures aggregate client throughput for concurrent
whole-file reads (fig 4) and concurrent appends (fig 5), inline
(``io_workers=0``: each op sends its provider vectors one after
another) and on the I/O engine (the vectors in flight together).
Expectation: the engine moves at least ``ENGINE_GAIN`` times the bytes.

The high-fan-out case runs one gather of thousands of latency-bound
block reads, inline and on the engine.  The blocks travel as one vector
per provider (DESIGN.md §13), so the gate is deterministic: the engine
runs one task per provider touched, never grows past a handful of OS
threads, and returns the stored bytes.  Its MB/s lands in the benchmark
JSON via ``extra_info``.
"""

from conftest import emit

from repro.blob import LocalBlobStore, StoreConfig
from repro.harness import render_report
from repro.harness.demos import engine_fanout, run_clients

BLOCK = 4 * 1024
BLOCKS_PER_OP = 12
CLIENTS = 2
ROUNDS = 4
# 3 ms simulated provider service time per vector: an inline op pays it
# once per provider touched (8), an engine op about once, so the gap is
# tens of milliseconds per op and scheduler jitter on a loaded CI runner
# cannot close it.
LATENCY = 0.003
#: ``io_workers`` of the engine side; it sizes only the helper pool.
ENGINE_WORKERS = 4
#: Required engine ÷ inline throughput (measured 4.4-5.1x for both).
ENGINE_GAIN = 3.0


def _make_store(io_workers: int) -> LocalBlobStore:
    return LocalBlobStore(config=StoreConfig(
        data_providers=8,
        metadata_providers=3,
        block_size=BLOCK,
        io_workers=io_workers,
        provider_latency=LATENCY,
    ))


def _append_throughput(io_workers: int) -> float:
    """Aggregate MB/s of CLIENTS threads appending concurrently."""
    with _make_store(io_workers) as store:
        blob = store.create()
        payload = b"a" * (BLOCKS_PER_OP * BLOCK)

        def appender(tid):
            for _ in range(ROUNDS):
                store.append(blob, payload)

        elapsed = run_clients(appender, CLIENTS)
        total = CLIENTS * ROUNDS * len(payload)
        assert store.latest_version(blob) == CLIENTS * ROUNDS
    return total / elapsed / 2**20


def _read_throughput(io_workers: int) -> float:
    """Aggregate MB/s of CLIENTS threads reading the same file."""
    with _make_store(io_workers) as store:
        blob = store.create()
        data = b"r" * (BLOCKS_PER_OP * BLOCK)
        store.append(blob, data)
        version = store.latest_version(blob)

        def reader(tid):
            for _ in range(ROUNDS):
                assert len(store.read(blob, version=version)) == len(data)

        elapsed = run_clients(reader, CLIENTS)
        total = CLIENTS * ROUNDS * len(data)
    return total / elapsed / 2**20


def _measure(measure) -> dict[str, float]:
    """Inline vs engine MB/s; re-measured once if a scheduler hiccup on
    a loaded CI runner closed the gap (a genuine regression fails both
    attempts)."""
    for _ in range(2):
        rates = {"inline": measure(0), "engine": measure(ENGINE_WORKERS)}
        if rates["engine"] >= ENGINE_GAIN * rates["inline"]:
            break
    return rates


def _check(title: str, rates: dict[str, float]) -> None:
    emit(
        f"{title} (providers=8, latency={LATENCY * 1e3:.0f}ms/op, "
        f"clients={CLIENTS}, {BLOCKS_PER_OP} blocks/op)\n"
        f"  inline (io_workers=0)   {rates['inline']:8.2f} MB/s\n"
        f"  engine (io_workers={ENGINE_WORKERS})   {rates['engine']:8.2f} MB/s"
    )
    assert rates["engine"] >= ENGINE_GAIN * rates["inline"], (
        f"the engine must move >= {ENGINE_GAIN:g}x the inline throughput: "
        f"{rates['engine']:.2f} vs {rates['inline']:.2f} MB/s"
    )


def test_parallel_io_concurrent_appends_engine_beats_inline():
    _check("fig5-style concurrent appends", _measure(_append_throughput))


def test_parallel_io_concurrent_reads_engine_beats_inline():
    _check("fig4-style concurrent reads", _measure(_read_throughput))


# --- fig4-style high fan-out: one gather, inline vs the engine ------

FANOUT_BLOCKS = 4096
FANOUT_BLOCK = 2048
FANOUT_PROVIDERS = 16
# 2 ms per provider request: 4096 blocks are 16 vectors of 256.
FANOUT_LATENCY = 0.002


def test_fig4_async_high_fanout_gather(benchmark):
    report = benchmark.pedantic(
        engine_fanout,
        kwargs=dict(
            blocks=FANOUT_BLOCKS,
            block_size=FANOUT_BLOCK,
            latency=FANOUT_LATENCY,
            providers=FANOUT_PROVIDERS,
            max_in_flight=2 * FANOUT_BLOCKS,
        ),
        rounds=1,
        iterations=1,
    )
    inline, engine = report.measurements["inline"], report.measurements["engine"]
    stats = engine["stats"]
    benchmark.extra_info["inline_mb_per_s"] = round(inline["mb_per_s"], 2)
    benchmark.extra_info["async_mb_per_s"] = round(engine["mb_per_s"], 2)
    benchmark.extra_info["async_threads_started"] = stats["threads_started"]
    benchmark.extra_info["async_tasks"] = stats["tasks_started"]
    benchmark.extra_info["async_in_flight_hwm"] = stats["in_flight_hwm"]
    emit("fig4-style high-fan-out " + render_report(report))
    # The engine's acceptance bar, checked by the scenario: thousands of
    # block reads as one task per provider, on a handful of OS threads,
    # bytes intact.
    assert report.ok, report.failures
    assert stats["tasks_started"] == engine["providers_touched"] == FANOUT_PROVIDERS
