"""Compare two documents written by ``perf/run.py --out``.

    python3 perf/compare.py A.json B.json [--layers]

One row per (workload, end-to-end metric): both medians, the ratio B/A
with its base, and a verdict against the metric's bound (taken from A):

  same        B is within the bound of A and both sides repeat within it
  improved    B is better than A by more than the bound and the spread
  regressed   B is worse than A by more than the bound and the spread,
              or its share of failed ops rose, or an output was wrong
  unresolved  a side's own spread exceeds the bound and the difference
              does not clear it

A side's spread is the interquartile range over its sets (four or more),
else over the samples inside its sets, as a share of their median.
``--layers`` adds the per-layer numbers (no verdict: they have no bound).
Exit code 1 on any regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def spread(entry: dict) -> float:
    """Interquartile range / median of a metric's own repeats."""
    values = entry.get("set_values", [])
    if len(values) < 4:
        values = entry.get("samples", [])
    if len(values) < 4:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float, float]:
    """(verdict, ratio B/A, wider spread of the two sides)."""
    ratio = b["value"] / a["value"]
    worse_by = ratio - 1 if better == "lower" else 1 - ratio
    noise = max(spread(a), spread(b))
    if abs(worse_by) > bound:
        if abs(worse_by) <= noise:
            return "unresolved", ratio, noise
        return ("regressed" if worse_by > 0 else "improved"), ratio, noise
    return ("same" if noise <= bound else "unresolved"), ratio, noise


def failed_share(workload: dict) -> float:
    return workload["failed"] / max(1, workload["attempted"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--layers", action="store_true", help="also list per-layer metrics")
    args = parser.parse_args(argv)
    with open(args.a) as fh:
        doc_a = json.load(fh)
    with open(args.b) as fh:
        doc_b = json.load(fh)

    regressed = False
    print(f"{'workload':18s} {'metric':18s} {'A':>12s} {'B':>12s} {'B/A':>8s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    for name, a in doc_a["workloads"].items():
        b = doc_b["workloads"].get(name)
        if b is None:
            print(f"{name:18s} missing from B")
            continue
        for metric in doc_a["end_to_end"]:
            ea, eb = a["end_to_end"][metric["name"]], b["end_to_end"][metric["name"]]
            word, ratio, noise = verdict(ea, eb, metric["better"], metric["bound"])
            regressed |= word == "regressed"
            print(
                f"{name:18s} {metric['name']:18s} {ea['value']:12.5g} {eb['value']:12.5g} "
                f"{ratio:8.3f} {noise:7.3f} {metric['bound']:6.2f}  {word} "
                f"(base A = {ea['value']:.5g} {metric['unit']})"
            )
        if failed_share(b) > failed_share(a) or (a["correct"] and not b["correct"]):
            regressed = True
            print(
                f"{name:18s} {'failed ops':18s} {a['failed']:>12d} {b['failed']:>12d} "
                f"of {a['attempted']}/{b['attempted']} attempted, outputs "
                f"{'verified' if b['correct'] else 'WRONG'} in B  regressed"
            )
        if args.layers:
            for metric, ea in a["per_layer"].items():
                eb = b["per_layer"].get(metric, {"value": None})
                if ea["value"] is None and eb["value"] is None:
                    continue
                both = ea["value"] and eb["value"] is not None
                ratio = f"{eb['value'] / ea['value']:8.3f}" if both else f"{'-':>8s}"
                print(f"{name:18s} {metric:32s} {ea['value']!s:>14.12s} {eb['value']!s:>14.12s} "
                      f"{ratio} {ea['unit']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
