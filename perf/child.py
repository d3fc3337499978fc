"""One workload in one fresh interpreter (spawned by perf/run.py).

Prints one JSON object as its last line of standard output.

Modes: ``setup`` stops after the first op (fresh interpreter -> first
op possible); ``measure`` goes on to one discarded warm-up repetition
and then timed repetitions; ``trace`` does the same with spans recorded
at every wrap point (perf/trace.py is imported in this mode only).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: Percentiles a tail may be reported at; the highest with at least
#: TAIL_BEYOND samples beyond it is used.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10
MIN_REPS = 3


def percentile(sorted_values, pct):
    index = min(len(sorted_values) - 1, int(len(sorted_values) * pct / 100.0))
    return sorted_values[index]


def estimate(reps, nbytes, mixed):
    """End-to-end numbers from the ops of several repetitions.

    Every repetition runs the same seeded ops, so each op is measured
    once per repetition; interference on a shared machine only ever
    adds time, and the op's latency is taken as its best repetition
    (README, "Estimator").  The median latency is the median over the
    ops of one repetition; a phase's wall time is the sum of its ops'
    latencies on the client thread that takes longest.
    """
    kinds = [[kind for kind, _ in client] for client in reps[0]]
    best = [
        [min(rep[c][i][1] for rep in reps) for i in range(len(kinds[c]))]
        for c in range(len(kinds))
    ]

    def wall(kind):
        return max(
            sum(t for t, k in zip(best[c], kinds[c]) if mixed or k == kind)
            for c in range(len(kinds))
        )

    def p50_ms(kind):
        return 1e3 * statistics.median(
            t for c in range(len(kinds)) for t, k in zip(best[c], kinds[c]) if k == kind
        )

    return {
        "write_mb_per_s": nbytes["write"] / 1e6 / wall("write"),
        "read_mb_per_s": nbytes["read"] / 1e6 / wall("read"),
        "write_p50_ms": p50_ms("write"),
        "read_p50_ms": p50_ms("read"),
        "client_op_s": sum(sum(client) for client in best),
    }


def tails(reps):
    """Tail latency per kind over the ops of all repetitions, at the
    highest percentile with TAIL_BEYOND samples beyond it."""
    pooled = {"write": [], "read": []}
    for rep in reps:
        for client in rep:
            for kind, seconds in client:
                pooled[kind].append(seconds)
    n = min(len(v) for v in pooled.values())
    pct = max((p for p in TAIL_LADDER if n * (1 - p / 100.0) >= TAIL_BEYOND), default=TAIL_LADDER[0])
    return {
        "client.write_tail_ms": 1e3 * percentile(sorted(pooled["write"]), pct),
        "client.read_tail_ms": 1e3 * percentile(sorted(pooled["read"]), pct),
        "client.tail_pct": pct,
    }


def fold_layers(per_rep):
    """Per-layer numbers over the traced repetitions: times take their
    best repetition (like the end-to-end estimator), counts and ratios
    the median; None when the layer never did any work."""
    out = {}
    for name in per_rep[0]:
        values = [m[name] for m in per_rep if m[name] is not None]
        if not values:
            out[name] = None
        elif name.endswith("_s") or name.endswith("_us_per_block"):
            out[name] = min(values)
        else:
            out[name] = statistics.median(values)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spawned", type=float, required=True, help="time.time() at spawn")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from workloads import WORKLOADS, Recorder

    workload = WORKLOADS[args.workload](args.seed, quick=args.quick)

    # Set-up: import, build, first op of each kind.
    workload.build()
    first = Recorder()
    workload.run(first, ops=1)
    workload.close()
    out = {
        "workload": workload.name,
        "mode": args.mode,
        "setup_s": time.time() - args.spawned,
        "attempted": first.attempted,
        "failed": first.failed,
        "wrong": first.wrong,
        "errors": first.errors[:5],
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "trace":
        import trace as spans

        tracer = spans.Tracer()
        if workload.name == "sim_figures":
            tracer.attach_simulation()

    def repetition():
        gc.collect()  # every repetition starts from the same collector state
        targets = workload.build()
        if tracer is not None:
            tracer.attach(targets)
        rec = Recorder(tracer)
        cpu0 = time.process_time()
        workload.run(rec)
        rec.cpu_s = time.process_time() - cpu0
        workload.close()
        return rec

    if not args.quick:
        repetition()  # warm-up, discarded
        if tracer is not None:
            tracer.take()
    recs, layers, last_spans = [], [], []
    min_reps, seconds = (1, 0.0) if args.quick else (MIN_REPS, args.seconds)
    deadline = time.perf_counter() + seconds
    while len(recs) < min_reps or time.perf_counter() < deadline:
        rec = repetition()
        recs.append(rec)
        if tracer is not None:
            last_spans, in_flight_max = tracer.take()
            moved = rec.bytes["write"] + rec.bytes["read"]
            layers.append(spans.layer_metrics(last_spans, in_flight_max, moved))

    reps = [rec.clients or [rec.ops] for rec in recs]
    nbytes = recs[0].bytes
    mixed = workload.client_threads > 1
    estimates = estimate(reps, nbytes, mixed)
    ops_per_rep = sum(len(client) for client in reps[0])
    ceiling = statistics.median(rec.ceiling for rec in recs)
    out.update(
        attempted=out["attempted"] + sum(rec.attempted for rec in recs),
        failed=out["failed"] + sum(rec.failed for rec in recs),
        wrong=out["wrong"] + sum(rec.wrong for rec in recs),
        errors=(out["errors"] + [e for rec in recs for e in rec.errors])[:5],
        sizes=workload.sizes,
        client_threads=workload.client_threads,
        dropped_config_fields=sorted(workload.dropped),
        repetitions=len(recs),
        ops_per_repetition=ops_per_rep,
        bytes_per_repetition=nbytes,
        estimates=estimates,
        # The same estimator on four interleaved quarters of the
        # repetitions: what this run alone resolves.
        quarter_estimates=(
            [estimate(reps[q::4], nbytes, mixed) for q in range(4)] if len(reps) >= 8 else []
        ),
        raw_repetition_seconds={
            "write": [rec.phase["write"] for rec in recs],
            "read": [rec.phase["read"] for rec in recs],
        },
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        diagnostics={
            **tails(reps),
            "client.cpu_ms_per_op": 1e3 * min(rec.cpu_s for rec in recs) / ops_per_rep,
            "client.efficiency": ceiling / estimates["client_op_s"] if ceiling else None,
        },
    )
    if tracer is not None:
        per_layer = fold_layers(layers)
        out["per_layer"] = per_layer
        out["missing_probes"] = sorted(set(tracer.missing))
        if args.trace_out:
            os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
            spans.write_trace(args.trace_out, workload.name, last_spans, per_layer)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
