"""Multi-tenant gateway under a thousands-of-clients load (DESIGN.md §12).

The gateway's pitch is that one BlobSeer store can serve many tenants
*as a service* without giving up the paper's throughput-under-heavy-
concurrency headline.  This bench drives four phases over identically
configured stores and proves the two halves of that claim:

1. **overhead** — 1024 client sessions across 8 tenants pushing fresh
   files through the gateway sustain >= 0.8x the aggregate append
   throughput of the same op mix against a bare BSFS (fig5-style
   grouped store: group commit + overlapped publish + parallel I/O);
2. **fairness** — with one *greedy* tenant hammering the store under a
   bytes/s cap, the greedy tenant is actually held to its token-bucket
   rate while the polite cohort's pooled p99 latency stays within 2x
   of its solo run.

The deterministic halves (per-tenant op/byte counts, the greedy cap,
its bucket wait) are asserted on every attempt.  The two wall-clock
*ratios* are single-shot measurements on a box with ±35 % noise, so
each is the best of up to three attempts of its own two phases; every
attempt lands in ``extra_info`` next to the per-tenant counters (ops,
bytes, throttle waits, rejections).
"""

from conftest import emit

from repro.bsfs.filesystem import BSFSFileSystem
from repro.gateway import Gateway
from repro.harness import render_report
from repro.harness.demos import gateway_fairness, gateway_store_config, run_pool

BLOCK = 4 * 1024
#: Two blocks per client file: every op exercises scatter + publish.
PAYLOAD = 2 * BLOCK
TENANTS = 8
CLIENTS_PER_TENANT = 128
SESSIONS = TENANTS * CLIENTS_PER_TENANT  # 1024 simulated clients
WORKERS = 32
#: The greedy tenant's data-plane cap.
GREEDY_BPS = 256 * 1024
#: Same store recipe as the fig5 grouped pipeline, scaled-down vman
#: latency so the phases stay inside a CI-friendly wall clock.
VMAN_LATENCY = 0.002
ATTEMPTS = 3


def _direct_baseline() -> float:
    """Aggregate MB/s of the same op mix against a bare BSFS."""
    fs = BSFSFileSystem(config=gateway_store_config(PAYLOAD, VMAN_LATENCY))
    try:
        payload = b"d" * PAYLOAD

        def one_write(i):
            return lambda: fs.write_file(f"/c{i:04d}", payload)

        elapsed = run_pool([one_write(i) for i in range(SESSIONS)], WORKERS)
        return SESSIONS * PAYLOAD / elapsed / 2**20
    finally:
        fs.store.close()


def _gateway_aggregate() -> float:
    """Aggregate MB/s of 1024 gateway sessions across 8 uncapped tenants."""
    with Gateway(config=gateway_store_config(PAYLOAD, VMAN_LATENCY)) as gw:
        sessions = []
        for t in range(TENANTS):
            token = gw.register_tenant(f"tenant-{t}")
            sessions += [
                (gw.connect(f"tenant-{t}", token), c)
                for c in range(CLIENTS_PER_TENANT)
            ]
        payload = b"g" * PAYLOAD

        def one_write(client, c):
            return lambda: client.write_file(f"/f{c:04d}", payload)

        elapsed = run_pool([one_write(cl, c) for cl, c in sessions], WORKERS)
        # Every tenant moved its full share through the uncapped run.
        for tid, s in gw.tenant_stats().items():
            assert s["ops"]["append"] == CLIENTS_PER_TENANT, (tid, s)
            assert s["bytes_in"] == CLIENTS_PER_TENANT * PAYLOAD
        return SESSIONS * PAYLOAD / elapsed / 2**20


def _overhead() -> dict:
    direct, gateway = _direct_baseline(), _gateway_aggregate()
    return {"direct_mb_s": direct, "gateway_mb_s": gateway, "ratio": gateway / direct}


def _fairness() -> dict:
    """Solo reference, then 7 polite tenants + 1 capped greedy one."""
    report = gateway_fairness(
        tenants=TENANTS,
        clients=CLIENTS_PER_TENANT,
        ops=1,
        payload=PAYLOAD,
        greedy_bps=GREEDY_BPS,
        workers=WORKERS,
        seed=0,
        vman_latency=VMAN_LATENCY,
        p99_slack=2.0,
    )
    m = report.measurements
    ratio = m["polite_p99_s"] / m["solo_p99_s"]
    # Only the wall-clock ratio may fail an attempt.  The other checks
    # are deterministic: admission control held the greedy tenant to its
    # bucket (rate <= cap plus the one-time burst allowance, time
    # actually spent parked in the bucket) while every polite tenant
    # moved its full share.
    assert report.ok or (ratio > 2.0 and len(report.failures) == 1), report.failures
    return {**m, "ratio": ratio, "text": render_report(report)}


def _attempts(first: dict, measure, good) -> list[dict]:
    """Re-measure (untimed, so the regression gate always sees exactly
    one attempt) until *good*; the last attempt is the one reported."""
    runs = [first]
    while len(runs) < ATTEMPTS and not good(runs[-1]):
        runs.append(measure())
    return runs


def test_fig5_multitenant_gateway_load(benchmark):
    first = benchmark.pedantic(
        lambda: (_overhead(), _fairness()), rounds=1, iterations=1
    )
    out = {
        "overhead": _attempts(first[0], _overhead, lambda r: r["ratio"] >= 0.8),
        "fairness": _attempts(first[1], _fairness, lambda r: r["ratio"] <= 2.0),
    }
    overhead, mixed = out["overhead"][-1], out["fairness"][-1]
    direct, gateway_mb_s = overhead["direct_mb_s"], overhead["gateway_mb_s"]
    solo_p99 = mixed["solo_p99_s"]
    overhead_ratios = [round(r["ratio"], 3) for r in out["overhead"]]
    fairness_ratios = [round(r["ratio"], 3) for r in out["fairness"]]

    benchmark.extra_info["tenants"] = TENANTS
    benchmark.extra_info["client_sessions"] = SESSIONS
    benchmark.extra_info["direct_mb_s"] = round(direct, 2)
    benchmark.extra_info["gateway_mb_s"] = round(gateway_mb_s, 2)
    benchmark.extra_info["gateway_vs_direct"] = round(overhead["ratio"], 3)
    benchmark.extra_info["solo_p99_ms"] = round(solo_p99 * 1e3, 2)
    benchmark.extra_info["mixed_polite_p99_ms"] = round(
        mixed["polite_p99_s"] * 1e3, 2
    )
    benchmark.extra_info["greedy_cap_bps"] = GREEDY_BPS
    benchmark.extra_info["greedy_observed_bps"] = round(mixed["greedy_bps"])
    benchmark.extra_info["greedy_throttle_wait_s"] = round(
        mixed["greedy_wait_s"], 3
    )
    benchmark.extra_info["per_tenant"] = {
        tid: {
            "appends": s["ops"]["append"],
            "bytes_in": s["bytes_in"],
            "throttle_wait_s": s["throttle_wait_s"],
            "rejections": s["admission_rejections"],
        }
        for tid, s in mixed["stats"].items()
    }
    benchmark.extra_info["gateway_vs_direct_attempts"] = overhead_ratios
    benchmark.extra_info["polite_p99_vs_solo_attempts"] = fairness_ratios

    emit(
        f"fig5-style multi-tenant gateway load ({SESSIONS} client sessions):\n"
        f"  direct-store aggregate   {direct:8.2f} MB/s\n"
        f"  gateway aggregate        {gateway_mb_s:8.2f} MB/s  "
        f"({overhead['ratio']:.2f}x direct, attempts {overhead_ratios})\n"
        f"polite p99 / solo attempts {fairness_ratios}; the last one:\n{mixed['text']}"
    )

    # The front door costs <= 20% of the direct-store aggregate rate.
    assert overhead["ratio"] >= 0.8, (
        f"gateway aggregate {gateway_mb_s:.2f} MB/s fell below 0.8x the "
        f"direct-store baseline {direct:.2f} MB/s in all of {overhead_ratios}"
    )
    # The greedy tenant's backlog stayed its own: the polite cohort's
    # pooled p99 is within 2x of its solo run.
    assert mixed["ratio"] <= 2.0, (
        f"polite p99 degraded {mixed['ratio']:.2f}x (solo "
        f"{solo_p99 * 1e3:.2f} ms, mixed {mixed['polite_p99_s'] * 1e3:.2f} ms) "
        f"in all of {fairness_ratios}"
    )
