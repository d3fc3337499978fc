"""Command-line interface.

Regenerate any figure of the paper's evaluation::

    repro figure 3a            # quick scale (small cluster, seconds)
    repro figure 4 --full      # the paper's 270-node deployment
    repro figure all --full
    repro calibration          # dump the platform constants

Exercise the anti-entropy maintenance pass (DESIGN.md §8)::

    repro scrub                # chaos demo: outage + abort, then heal
    repro scrub --buckets 16 --replication 2 --writes 8

Demonstrate the batched metadata pipeline (DESIGN.md §9)::

    repro metadata             # cold and warm batched descents, with stats
    repro metadata --blocks 96 --latency 0.002

Demonstrate the group-commit publish pipeline (DESIGN.md §10)::

    repro append               # per-writer vs batched vman round trips
    repro append --writers 32 --vman-latency 0.005

Demonstrate the zero-copy data plane (DESIGN.md §11)::

    repro zerocopy             # per-layer bytes copied vs transferred
    repro zerocopy --blocks 128 --block-size 1m

Demonstrate the multi-tenant gateway (DESIGN.md §12)::

    repro gateway              # N tenants, one greedy; fairness table
    repro gateway --tenants 8 --clients 64 --greedy-kbps 128

Each demo prints counts, never a timing, and exits 1 if a check
fails.  Speed is measured by ``perf/run.py``.

``python -m repro.cli ...`` works identically.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

from repro.deploy.platform import DEFAULT_CALIBRATION
from repro.harness import ALL_FIGURES, FULL, QUICK, demos, render_figure, render_report
from repro.util.bytesize import parse_size

__all__ = ["main", "build_parser", "COMMANDS"]


def _figures(which: str, full: bool, seed: int, no_chart: bool) -> None:
    scale = FULL if full else QUICK
    for figure_id in sorted(ALL_FIGURES) if which == "all" else [which]:
        result = ALL_FIGURES[figure_id](scale, seed=seed)
        print(render_figure(result, chart=not no_chart))
        print(f"[{scale.name} scale]\n")


def _calibration() -> None:
    for field in dataclasses.fields(DEFAULT_CALIBRATION):
        print(f"{field.name} = {getattr(DEFAULT_CALIBRATION, field.name)!r}")


def _kbps(text: str) -> float:
    return float(text) * 1024


def _arg(type_, default, help_, **extra) -> dict:
    return dict(type=type_, default=default, help=help_, **extra)


_IO_WORKERS = _arg(int, 8, "I/O engine helper threads (0 = inline I/O, no engine)")

#: ``{subcommand: (run, help, {flag: add_argument keywords})}`` — the one
#: table behind both the parser and the dispatch.  Every parsed value is
#: passed to ``run`` as the keyword named after its flag (or ``dest``);
#: a returned :class:`~repro.harness.report.ScenarioReport` is rendered
#: and decides the exit code.
COMMANDS: dict = {
    "figure": (
        _figures,
        "regenerate one figure (or 'all')",
        {
            "which": dict(
                choices=sorted(ALL_FIGURES) + ["all"], help="figure id from the paper"
            ),
            "--full": dict(
                action="store_true",
                help="use the paper's full deployment sizes (slower)",
            ),
            "--seed": _arg(int, 0, "experiment seed"),
            "--no-chart": dict(action="store_true", help="table only, no ASCII chart"),
        },
    ),
    "calibration": (_calibration, "print the platform calibration constants", {}),
    "scrub": (
        demos.scrub_heal,
        "anti-entropy demo: metadata outage + write abort, then one scrub pass heals it",
        {
            "--buckets": _arg(int, 12, "metadata buckets"),
            "--providers": _arg(int, 6, "data providers"),
            "--replication": _arg(int, 2, "data-block replica count"),
            "--metadata-replication": _arg(
                int, 2, "metadata replica count (>= 2 exercises replica reconciliation)"
            ),
            "--writes": _arg(int, 6, "healthy appends before the outage"),
            "--seed": _arg(int, 0, "scenario seed"),
            "--ops-per-sec": _arg(
                float, None, "throttle the scrub pass (default: unpaced)"
            ),
        },
    ),
    "metadata": (
        demos.metadata_descent,
        "batched-metadata demo: one read workload through the batched "
        "descent over run leaves, with round-trip and node counts against "
        "the tree depth, and cache hit rates",
        {
            "--blocks": _arg(int, 48, "blocks written before reading"),
            "--buckets": _arg(int, 8, "metadata buckets"),
            "--latency": _arg(
                float, 2e-3, "simulated metadata service time per bucket request (s)"
            ),
            "--io-workers": _IO_WORKERS,
            "--reads": _arg(int, 3, "whole-BLOB reads after the cold one"),
        },
    ),
    "append": (
        demos.publish_pipeline_appends,
        "group-commit demo: one concurrent-append workload through the "
        "batched publish pipeline vs the per-writer protocol's model, with "
        "vman round-trip counts and batch sizes",
        {
            "--writers": _arg(int, 16, "concurrent appender threads"),
            "--rounds": _arg(int, 2, "appends per writer"),
            "--blocks": _arg(int, 4, "blocks per append"),
            "--vman-latency": _arg(
                float,
                3e-3,
                "simulated network round trip per version-manager interaction (s)",
            ),
            "--io-workers": _IO_WORKERS,
        },
    ),
    "zerocopy": (
        demos.zero_copy_round_trip,
        "zero-copy data-plane demo: one large append and read with the "
        "per-layer CopyStats byte accounting (bytes copied vs transferred)",
        {
            "--blocks": _arg(int, 64, "blocks appended then read back"),
            "--block-size": _arg(parse_size, "64k", "block size (e.g. 64k, 1m)"),
            "--io-workers": _IO_WORKERS,
        },
    ),
    "gateway": (
        demos.gateway_fairness,
        "multi-tenant front-door demo: N tenants share one store, one turns "
        "greedy under a bytes/s cap; prints the per-tenant fairness table "
        "and fails if anyone was starved",
        {
            "--tenants": _arg(int, 6, "tenants sharing the store"),
            "--clients": _arg(int, 32, "client sessions per tenant"),
            "--ops": _arg(int, 2, "file writes per client session"),
            "--payload": _arg(parse_size, "8k", "bytes per write (e.g. 8k)"),
            "--greedy-kbps": _arg(
                _kbps,
                "256",
                "the greedy tenant's bytes/s cap, in KB/s",
                dest="greedy_bps",
            ),
            "--workers": _arg(int, 16, "OS threads multiplexing clients"),
            "--seed": _arg(int, 0, "store RNG seed"),
        },
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "BlobSeer reproduction (IPDPS 2010): regenerate the paper's "
            "evaluation figures on the simulated Grid'5000 platform."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_, arguments) in COMMANDS.items():
        command = sub.add_parser(name, help=help_)
        for flag, keywords in arguments.items():
            command.add_argument(flag, **keywords)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    options = vars(build_parser().parse_args(argv))
    report = COMMANDS[options.pop("command")][0](**options)
    if report is None:
        return 0
    print(render_report(report))
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
