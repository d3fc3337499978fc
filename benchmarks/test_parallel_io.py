"""Parallel I/O engine scaling: fig4/fig5-style aggregate throughput.

The paper's core claim is throughput under heavy concurrency: many
clients striping blocks over many data providers at once, with the
version manager as the only serialization point.  This bench gives
every data provider a simulated per-operation service latency (so
transfer time, not Python loop overhead, dominates — as in the real
deployment) and measures aggregate client throughput for concurrent
whole-file reads (fig 4) and concurrent appends (fig 5) as the store's
``io_workers`` grows.  Expectation: monotonic scaling from inline
(``io_workers=0``) to 8 workers.

The high-fan-out case pits the two schedulers against each other where
thread pools stop scaling: one gather of thousands of latency-bound
block reads.  The coroutine engine (DESIGN.md §13) must match or beat
the 8-worker pool while its :class:`~repro.blob.io_engine.EngineStats`
prove it never grew past a handful of OS threads — both numbers land
in the benchmark JSON via ``extra_info``.
"""

from conftest import emit

from repro.blob import LocalBlobStore, StoreConfig
from repro.harness.demos import engine_fanout, run_clients

BLOCK = 4 * 1024
BLOCKS_PER_OP = 12
CLIENTS = 2
ROUNDS = 4
# 3 ms simulated provider service time per block op: large enough that
# each worker step changes aggregate wall time by tens of milliseconds,
# so scheduler jitter on a loaded CI runner cannot invert the ordering.
LATENCY = 0.003
WORKER_SWEEP = (0, 2, 4, 8)


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


def _render(title: str, rates: dict[int, float]) -> str:
    lines = [f"{title} (providers=8, latency={LATENCY * 1e3:.0f}ms/op, "
             f"clients={CLIENTS}, {BLOCKS_PER_OP} blocks/op)"]
    for workers, rate in rates.items():
        lines.append(f"  io_workers={workers:<2d}  {rate:8.2f} MB/s")
    return "\n".join(lines)


def _is_monotonic(rates: dict[int, float]) -> bool:
    sweep = list(rates)
    return all(rates[hi] > rates[lo] for lo, hi in zip(sweep, sweep[1:]))


def _assert_monotonic(rates: dict[int, float]) -> None:
    sweep = list(rates)
    for lo, hi in zip(sweep, sweep[1:]):
        assert rates[hi] > rates[lo], (
            f"throughput must scale with io_workers: "
            f"{rates[hi]:.2f} MB/s @ {hi} workers <= {rates[lo]:.2f} MB/s @ {lo}"
        )


def _measure_sweep(measure) -> dict[int, float]:
    """One throughput sweep; re-measured once if a scheduler hiccup on
    a loaded CI runner inverted an adjacent step (the expected per-step
    gap is ~1.5x, so a genuine regression fails both attempts)."""
    rates = {w: measure(w) for w in WORKER_SWEEP}
    if not _is_monotonic(rates):
        rates = {w: measure(w) for w in WORKER_SWEEP}
    return rates


def test_parallel_io_concurrent_appends_scale_with_workers():
    rates = _measure_sweep(_append_throughput)
    emit(_render("fig5-style concurrent appends", rates))
    _assert_monotonic(rates)


def test_parallel_io_concurrent_reads_scale_with_workers():
    rates = _measure_sweep(_read_throughput)
    emit(_render("fig4-style concurrent reads", rates))
    _assert_monotonic(rates)


# --- fig4-style high fan-out: the coroutine scheduler vs the pool ----

FANOUT_BLOCKS = 4096
FANOUT_BLOCK = 2048
FANOUT_PROVIDERS = 16
# 2 ms per block op: a 4096-block gather is ~8 s of provider service
# time, so whichever scheduler overlaps more of it wins by seconds,
# not by jitter.
FANOUT_LATENCY = 0.002


def _measure_fanout() -> dict:
    def measure() -> dict:
        report = engine_fanout(
            blocks=FANOUT_BLOCKS,
            block_size=FANOUT_BLOCK,
            latency=FANOUT_LATENCY,
            providers=FANOUT_PROVIDERS,
            io_workers=8,
            max_in_flight=2 * FANOUT_BLOCKS,
        )
        assert report.ok, report.failures
        return report.measurements

    out = measure()
    if out["async"]["mb_per_s"] < out["threads"]["mb_per_s"]:
        # One re-measure: a scheduler hiccup on a loaded CI runner can
        # dent one run, but a genuine regression fails both attempts.
        out = measure()
    return out


def test_fig4_async_high_fanout_gather(benchmark):
    out = benchmark.pedantic(_measure_fanout, rounds=1, iterations=1)
    pool, coro = out["threads"], out["async"]
    benchmark.extra_info["threads_mb_per_s"] = round(pool["mb_per_s"], 2)
    benchmark.extra_info["async_mb_per_s"] = round(coro["mb_per_s"], 2)
    benchmark.extra_info["async_threads_started"] = coro["stats"]["threads_started"]
    benchmark.extra_info["async_in_flight_hwm"] = coro["stats"]["in_flight_hwm"]
    benchmark.extra_info["threads_in_flight_hwm"] = pool["stats"]["in_flight_hwm"]
    lines = [
        f"fig4-style high-fan-out gather ({FANOUT_BLOCKS} x "
        f"{FANOUT_BLOCK}B blocks, {FANOUT_PROVIDERS} providers, "
        f"{FANOUT_LATENCY * 1e3:.0f}ms/op)",
        f"  {'backend':<24}{'MB/s':>9}{'threads':>9}{'in-flight hwm':>15}",
    ]
    for label, side in (("threads io_workers=8", pool), ("async coroutines", coro)):
        lines.append(
            f"  {label:<24}{side['mb_per_s']:>9.2f}"
            f"{side['stats']['threads_started']:>9}"
            f"{side['stats']['in_flight_hwm']:>15}"
        )
    emit("\n".join(lines))
    # The scheduler's acceptance bar: thousands of concurrent block
    # reads on a handful of OS threads, at >= thread-pool throughput.
    assert coro["stats"]["threads_started"] <= 8, (
        f"async gather grew {coro['stats']['threads_started']} OS threads"
    )
    assert coro["stats"]["in_flight_hwm"] > 8, (
        "async gather never went wider than a thread pool"
    )
    assert coro["mb_per_s"] >= pool["mb_per_s"], (
        f"coroutines {coro['mb_per_s']:.2f} MB/s under the 8-worker pool's "
        f"{pool['mb_per_s']:.2f} MB/s"
    )
