"""One experiment per figure of the paper's evaluation (§V).

Each ``figure_*`` function returns a :class:`FigureResult` holding the
same series the paper plots, at either ``quick`` scale (small cluster,
few points — used by tests) or ``full`` scale (the paper's 270-node
deployments and full sweeps — ``repro figure --full``).

Application-level calibration (see EXPERIMENTS.md for the discussion):

* RandomTextWriter mappers generate text at ~26.5 MB/s — fixed by the
  paper's Figure 6(a) completion times (~240 s for 6.4 GB through one
  mapper including I/O).
* grep mappers scan at ~50 MB/s — grep is I/O-sensitive ("note the
  high impact of I/O in such applications", §V-G), so the scan rate
  sits near the storage read rate rather than far below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.deploy.deployment import deploy_mapreduce
from repro.deploy.hadoop import JobProfile
from repro.deploy.platform import DEFAULT_CALIBRATION, Calibration
from repro.harness.scenarios import (
    concurrent_appenders,
    concurrent_readers,
    single_writer,
)
from repro.util.bytesize import GB, MB

__all__ = [
    "Scale",
    "QUICK",
    "FULL",
    "FigureResult",
    "figure_3a",
    "figure_3b",
    "figure_4",
    "figure_5",
    "figure_6a",
    "figure_6b",
    "ALL_FIGURES",
    "RTW_GENERATE_RATE",
    "GREP_SCAN_RATE",
]

#: RandomTextWriter per-mapper text generation rate (calibrated).
RTW_GENERATE_RATE = 26.5 * MB
#: Distributed-grep per-mapper scan rate (calibrated).
GREP_SCAN_RATE = 50 * MB


@dataclass(frozen=True)
class Scale:
    """Sweep sizes for one run of the experiment suite."""

    name: str
    total_nodes: int
    fig3_blocks: tuple[int, ...]
    fig4_clients: tuple[int, ...]
    fig5_clients: tuple[int, ...]
    fig6a_mapper_mb: tuple[int, ...]
    fig6a_total_mb: int
    fig6a_workers: int
    fig6b_input_gb: tuple[float, ...]
    fig6b_workers: int


#: Small deployments and sparse sweeps — seconds, for tests/smoke runs.
QUICK = Scale(
    name="quick",
    total_nodes=64,
    fig3_blocks=(4, 16, 32),
    fig4_clients=(1, 10, 25),
    fig5_clients=(1, 10, 25),
    fig6a_mapper_mb=(128, 320, 1600),
    fig6a_total_mb=1600,
    fig6a_workers=12,
    fig6b_input_gb=(1.6, 3.2),
    fig6b_workers=40,
)

#: The paper's deployments and sweeps.
FULL = Scale(
    name="full",
    total_nodes=270,
    fig3_blocks=(16, 48, 96, 160, 246),
    fig4_clients=(1, 50, 100, 150, 200, 250),
    fig5_clients=(1, 50, 100, 150, 200, 250),
    fig6a_mapper_mb=(128, 256, 640, 1280, 3200, 6400),
    fig6a_total_mb=6400,
    fig6a_workers=50,
    fig6b_input_gb=(6.4, 8.0, 9.6, 11.2, 12.8),
    fig6b_workers=150,
)


@dataclass
class FigureResult:
    """Series for one regenerated figure."""

    figure: str
    title: str
    x_label: str
    y_label: str
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    notes: str = ""

    def add(self, series_name: str, x: float, y: float) -> None:
        """Append one point to a named series."""
        self.series.setdefault(series_name, []).append((x, y))

    def ys(self, series_name: str) -> list[float]:
        """Y values of one series, in x order."""
        return [y for _, y in sorted(self.series[series_name])]


def _fig3_runs(scale: Scale, calibration: Calibration, seed: int):
    """Shared sweep for Figures 3(a) and 3(b): the same write runs."""
    runs = {}
    for backend in ("hdfs", "bsfs"):
        runs[backend] = [
            single_writer(
                backend,
                n_blocks=blocks,
                total_nodes=scale.total_nodes,
                calibration=calibration,
                seed=seed,
            )
            for blocks in scale.fig3_blocks
        ]
    return runs


def figure_3a(
    scale: Scale = QUICK,
    calibration: Calibration = DEFAULT_CALIBRATION,
    seed: int = 0,
    _runs: Optional[dict] = None,
) -> FigureResult:
    """Figure 3(a): single-writer throughput vs. file size."""
    runs = _runs if _runs is not None else _fig3_runs(scale, calibration, seed)
    result = FigureResult(
        figure="3a",
        title="Single writer, single file: throughput vs file size",
        x_label="File size (GB)",
        y_label="Throughput (MB/s)",
        notes="Paper: BSFS ~60-70 MB/s sustained; HDFS ~40-47 MB/s.",
    )
    for backend, records in runs.items():
        name = backend.upper()
        for record in records:
            result.add(name, record.file_bytes / GB, record.throughput / MB)
    return result


def figure_3b(
    scale: Scale = QUICK,
    calibration: Calibration = DEFAULT_CALIBRATION,
    seed: int = 0,
    _runs: Optional[dict] = None,
) -> FigureResult:
    """Figure 3(b): layout unbalance vs. file size (same runs as 3(a))."""
    runs = _runs if _runs is not None else _fig3_runs(scale, calibration, seed)
    result = FigureResult(
        figure="3b",
        title="Load-balancing: Manhattan distance to the ideal layout",
        x_label="File size (GB)",
        y_label="Degree of unbalance",
        notes=(
            "Paper: HDFS grows to ~450 at 16 GB; BSFS stays < 50. "
            "HDFS placement is calibrated on this very figure "
            "(target_reuse=3, see deploy/platform.py)."
        ),
    )
    for backend, records in runs.items():
        name = backend.upper()
        for record in records:
            result.add(name, record.file_bytes / GB, record.unbalance)
    return result


def figure_4(
    scale: Scale = QUICK,
    calibration: Calibration = DEFAULT_CALIBRATION,
    seed: int = 0,
) -> FigureResult:
    """Figure 4: per-client read throughput vs. number of readers."""
    result = FigureResult(
        figure="4",
        title="Concurrent readers of a shared file",
        x_label="Number of clients",
        y_label="Average throughput (MB/s)",
        notes="Paper: BSFS flat near its single-client rate; HDFS degrades.",
    )
    for backend in ("hdfs", "bsfs"):
        for clients in scale.fig4_clients:
            record = concurrent_readers(
                backend,
                n_clients=clients,
                total_nodes=scale.total_nodes,
                calibration=calibration,
                seed=seed,
            )
            result.add(backend.upper(), clients, record.mean_client_throughput / MB)
    return result


def figure_5(
    scale: Scale = QUICK,
    calibration: Calibration = DEFAULT_CALIBRATION,
    seed: int = 0,
) -> FigureResult:
    """Figure 5: aggregate append throughput vs. number of appenders."""
    result = FigureResult(
        figure="5",
        title="Concurrent appenders to a shared file (BSFS only)",
        x_label="Number of clients",
        y_label="Aggregated throughput (MB/s)",
        notes=(
            "Paper: near-linear scaling to ~10000 MB/s at 250 clients. "
            "HDFS cannot run this scenario (no append)."
        ),
    )
    for clients in scale.fig5_clients:
        record = concurrent_appenders(
            "bsfs",
            n_clients=clients,
            total_nodes=scale.total_nodes,
            calibration=calibration,
            seed=seed,
        )
        result.add("BSFS", clients, record.aggregate_throughput / MB)
    return result


def figure_6a(
    scale: Scale = QUICK,
    calibration: Calibration = DEFAULT_CALIBRATION,
    seed: int = 0,
    profile: Optional[JobProfile] = None,
) -> FigureResult:
    """Figure 6(a): RandomTextWriter job completion time.

    Total output fixed; the per-mapper share sweeps from many small
    mappers to one big mapper (the paper: 6.4 GB total, 128 MB → 6.4 GB
    per mapper on 50 co-deployed machines).
    """
    result = FigureResult(
        figure="6a",
        title="RandomTextWriter: job completion time",
        x_label="Data per mapper (GB)",
        y_label="Job completion time (s)",
        notes="Paper: BSFS 7-11% faster; the gap grows as mappers get fewer.",
    )
    for backend in ("hdfs", "bsfs"):
        for mapper_mb in scale.fig6a_mapper_mb:
            mappers = max(1, scale.fig6a_total_mb // mapper_mb)
            deployment = deploy_mapreduce(
                backend,
                workers=scale.fig6a_workers,
                metadata_providers=10,
                calibration=calibration,
                profile=profile,
                seed=seed,
            )
            engine = deployment.cluster.engine

            def job():
                elapsed = yield from deployment.hadoop.run_write_job(
                    "/rtw",
                    num_mappers=mappers,
                    bytes_per_mapper=mapper_mb * MB,
                    generate_rate=RTW_GENERATE_RATE,
                )
                return elapsed

            elapsed = engine.run(engine.process(job()))
            result.add(backend.upper(), mapper_mb / 1024.0, elapsed)
    return result


def figure_6b(
    scale: Scale = QUICK,
    calibration: Calibration = DEFAULT_CALIBRATION,
    seed: int = 0,
    profile: Optional[JobProfile] = None,
) -> FigureResult:
    """Figure 6(b): distributed grep job completion time.

    The input file is written in a boot-up phase from a dedicated node
    (so HDFS spreads chunks remotely), then one map per 64 MB block
    scans it — concurrent reads from a shared file at job scale.
    """
    result = FigureResult(
        figure="6b",
        title="Distributed grep: job completion time",
        x_label="Input size (GB)",
        y_label="Job completion time (s)",
        notes="Paper: BSFS 35-38% faster, gap steady-to-growing with input size.",
    )
    for backend in ("hdfs", "bsfs"):
        for input_gb in scale.fig6b_input_gb:
            n_blocks = max(1, round(input_gb * GB / calibration.block_size))
            deployment = deploy_mapreduce(
                backend,
                workers=scale.fig6b_workers,
                metadata_providers=20,
                calibration=calibration,
                profile=profile,
                seed=seed,
            )
            engine = deployment.cluster.engine
            client = deployment.dedicated_client
            storage = deployment.storage

            def boot_and_run():
                if backend == "bsfs":
                    yield from storage.create(client, "grep-input")
                    for _ in range(n_blocks):
                        yield from storage.append(
                            client,
                            "grep-input",
                            calibration.block_size,
                            produce_rate=calibration.client_stream_cap,
                        )
                    handle = "grep-input"
                else:
                    yield from storage.write_file(
                        client,
                        "/grep-input",
                        n_blocks * calibration.block_size,
                        produce_rate=calibration.client_stream_cap,
                    )
                    handle = "/grep-input"
                elapsed = yield from deployment.hadoop.run_scan_job(
                    handle, scan_rate=GREP_SCAN_RATE
                )
                return elapsed

            elapsed = engine.run(engine.process(boot_and_run()))
            result.add(backend.upper(), input_gb, elapsed)
    return result


#: Figure id → experiment function (used by the CLI).
ALL_FIGURES = {
    "3a": figure_3a,
    "3b": figure_3b,
    "4": figure_4,
    "5": figure_5,
    "6a": figure_6a,
    "6b": figure_6b,
}
