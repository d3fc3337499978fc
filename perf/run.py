"""The repo's benchmark: one command, every metric by name with its unit.

    python3 perf/run.py [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
                        [--sets K] [--out F] [--quick] [--regen-expected]

Every workload runs in fresh child interpreters (perf/child.py): one
that measures, and SETUP_CHILDREN more that only set up.  With --trace
the measuring time is split between an untraced child (end-to-end
numbers) and a traced one (per-layer numbers).  Every byte read is
verified; the exit code is nonzero on any failed op or wrong output.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer ones).  See perf/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Set-up-only children per workload and set; with the measuring child
#: that makes five fresh interpreters behind every setup_s.
SETUP_CHILDREN = 4


def load_spec() -> dict:
    """BENCHMARK.json names every workload and metric once."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def spawn(workload: str, mode: str, args, seconds: float, trace_out=None) -> dict:
    """Run one child to its end and return the object it printed."""
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--mode", mode, "--seed", str(args.seed),
        "--seconds", str(seconds), "--spawned", repr(time.time()),
    ]
    if args.quick:
        cmd.append("--quick")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    done = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, timeout=3 * seconds + 120, cwd=ROOT
    )
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"{workload} child ({mode}) exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_set(workload: str, args) -> dict:
    """One set of one workload: its children's reports, merged."""
    seconds = args.seconds / 2 if args.trace else args.seconds
    measured = spawn(workload, "measure", args, seconds)
    setups = [measured] + [
        spawn(workload, "setup", args, 0) for _ in range(0 if args.quick else SETUP_CHILDREN)
    ]
    end_to_end = {k: v for k, v in measured["estimates"].items() if k != "client_op_s"}
    samples = {k: [q[k] for q in measured["quarter_estimates"]] for k in end_to_end}
    samples["setup_s"] = [s["setup_s"] for s in setups]
    end_to_end["setup_s"] = statistics.median(samples["setup_s"])
    end_to_end["peak_rss_mb"] = measured["peak_rss_mb"]
    per_layer = dict(measured["diagnostics"])
    one = {
        "end_to_end": end_to_end,
        "samples": samples,
        "measured": measured,
        "attempted": sum(s["attempted"] for s in setups),
        "failed": sum(s["failed"] for s in setups),
        "wrong": sum(s["wrong"] for s in setups),
        "errors": [e for s in setups for e in s["errors"]][:5],
    }
    if args.trace:
        trace_out = os.path.join(HERE, "out", f"trace-{workload}.json")
        traced = spawn(workload, "trace", args, seconds, trace_out=trace_out)
        per_layer.update(traced["per_layer"])
        per_layer["trace.overhead_frac"] = (
            traced["estimates"]["client_op_s"] / measured["estimates"]["client_op_s"] - 1
        )
        one["traced"] = {k: v for k, v in traced.items() if k != "per_layer"}
        for key in ("attempted", "failed", "wrong"):
            one[key] += traced[key]
        one["errors"] = (one["errors"] + traced["errors"])[:5]
    one["per_layer"] = per_layer
    return one


def summarize(workload: str, sets: list[dict], spec: dict) -> dict:
    """Median across sets of every metric, with its unit."""
    def across(section, name):
        values = [s[section][name] for s in sets if s[section].get(name) is not None]
        return statistics.median(values) if values else None

    last = sets[-1]["measured"]
    return {
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
        "sizes": last["sizes"],
        "client_threads": last["client_threads"],
        "dropped_config_fields": last["dropped_config_fields"],
        "missing_probes": sets[-1].get("traced", {}).get("missing_probes", []),
        "attempted": sum(s["attempted"] for s in sets),
        "failed": sum(s["failed"] for s in sets),
        "correct": all(s["wrong"] == 0 for s in sets),
        "errors": [e for s in sets for e in s["errors"]][:5],
        "end_to_end": {
            m["name"]: {
                "value": across("end_to_end", m["name"]),
                "unit": m["unit"],
                "set_values": [s["end_to_end"][m["name"]] for s in sets],
                "samples": [v for s in sets for v in s["samples"].get(m["name"], [])],
            }
            for m in spec["end_to_end"]
        },
        "per_layer": {
            m["name"]: {"value": across("per_layer", m["name"]), "unit": m["unit"]}
            for m in spec["per_layer"]
        },
        "sets": sets,
    }


def commit_hash():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def show(name: str, result: dict, traced: bool) -> None:
    print(f"{name}: {result['attempted']} ops, {result['failed']} failed, "
          f"outputs {'verified' if result['correct'] else 'WRONG'}")
    for error in result["errors"]:
        print(f"    ! {error}")
    if result["dropped_config_fields"]:
        print(f"    StoreConfig no longer declares: {result['dropped_config_fields']}")
    if result["missing_probes"]:
        print(f"    missing probes: {result['missing_probes']}")
    sections = [result["end_to_end"]] + ([result["per_layer"]] if traced else [])
    for section in sections:
        for metric, entry in section.items():
            if entry["value"] is not None:
                print(f"    {metric:32s} {entry['value']:>14.6g} {entry['unit']}")
    idle = [m for m, entry in result["per_layer"].items() if entry["value"] is None]
    if traced and idle:
        print(f"    null (the layer did no work here): {' '.join(idle)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per workload and set")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="also run a traced child for the per-layer metrics")
    parser.add_argument("--sets", type=int, default=1, help="repeat everything K times")
    parser.add_argument("--out", default=None, help="write the full document here")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, one repetition (the selfcheck's pass)")
    parser.add_argument("--regen-expected", action="store_true",
                        help="recompute perf/expected_sim.json and exit")
    args = parser.parse_args(argv)

    if args.regen_expected:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from workloads import EXPECTED_SIM, regenerate_expected_sim

        with open(EXPECTED_SIM, "w") as fh:
            json.dump(regenerate_expected_sim(), fh, indent=1)
            fh.write("\n")
        return 0

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {names}")
        names = [args.workload]

    sets: dict[str, list] = {name: [] for name in names}
    try:
        for _ in range(args.sets):
            for name in names:
                sets[name].append(run_set(name, args))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perf/run.py: {exc}", file=sys.stderr)
        return 2
    results = {name: summarize(name, sets[name], spec) for name in names}

    for name in names:
        show(name, results[name], bool(args.trace))
    document = {
        "schema": 1,
        "commit": commit_hash(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "sets": args.sets,
        "trace": bool(args.trace),
        "quick": args.quick,
        "end_to_end": spec["end_to_end"],
        "workloads": results,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(document, fh, indent=1)
            fh.write("\n")

    section = "per_layer" if args.trace else "end_to_end"

    def flat(result):
        # The last line carries numbers only: a layer that did no work reads 0.
        return {
            metric: {"value": entry["value"] or 0, "unit": entry["unit"]}
            for metric, entry in result[section].items()
        }

    correct = all(r["correct"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": (
            flat(results[names[0]]) if len(names) == 1
            else {name: flat(results[name]) for name in names}
        ),
    }))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
