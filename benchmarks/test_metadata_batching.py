"""Batched metadata pipeline: fig5-style read scaling (DESIGN.md §9).

The paper's read path sends its metadata requests "asynchronously",
processed "in parallel by the metadata providers" (§III-C) — the
pre-refactor reproduction instead descended the segment tree with one
blocking round trip per node, so with any simulated metadata service
latency the metadata layer (not the data layer) capped read
throughput.  This bench gives every metadata bucket a per-request
service latency, counts the round trips of that reference descent
(kept in ``segment_tree.collect_blocks``) on a cache-less store, and
measures aggregate concurrent-read throughput through the store's
batched descent (O(tree depth) round trips, level fan-out over the I/O
engine, immutable node cache).  Expectation: the batched pipeline beats
the sequential readers' analytic ceiling — no read finishes before its
``round trips × latency`` descent does — by a wide margin.

The per-pipeline round-trip counts and the cache hit rate land in the
benchmark JSON artifact via ``extra_info``, so CI records the batching
win alongside the wall-clock numbers.
"""

from conftest import emit

from repro.harness import render_report
from repro.harness.demos import metadata_descent

BLOCK = 4 * 1024
BLOCKS = 48
CLIENTS = 4
ROUNDS = 3
#: 1.5 ms simulated metadata service time per bucket request: the
#: sequential descent pays it ~2N times per read, the batched pipeline
#: ~tree-depth times — a gap scheduler jitter cannot invert.
META_LATENCY = 0.0015


def test_meta_batching_read_throughput(benchmark):
    report = benchmark.pedantic(
        metadata_descent,
        kwargs=dict(
            blocks=BLOCKS,
            buckets=6,
            latency=META_LATENCY,
            io_workers=8,
            reads=ROUNDS,
            clients=CLIENTS,
            block_size=BLOCK,
        ),
        rounds=1,
        iterations=1,
    )
    m = report.measurements
    speedup = m["mb_per_s"] / m["reference_mb_per_s"]
    benchmark.extra_info["sequential_cold_round_trips"] = m["reference_round_trips"]
    benchmark.extra_info["batched_cold_round_trips"] = m["cold_round_trips"]
    benchmark.extra_info["batched_cache_hit_rate"] = m["cache_hit_rate"]
    benchmark.extra_info["speedup"] = round(speedup, 2)
    emit("fig5-style concurrent reads vs metadata pipeline: " + render_report(report))
    assert report.ok, report.failures
    # The acceptance bound: O(tree depth) vs O(nodes visited) ...
    assert m["cold_round_trips"] < m["reference_round_trips"] / 4
    # ... and the throughput win it buys under metadata latency.
    assert speedup > 2, (
        f"batched pipeline must clearly beat the sequential ceiling: "
        f"{m['mb_per_s']:.2f} vs {m['reference_mb_per_s']:.2f} MB/s"
    )
