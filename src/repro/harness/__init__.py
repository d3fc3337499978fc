"""Experiment harness: scenario drivers, per-figure experiments, reports."""

from repro.harness.experiments import (
    ALL_FIGURES,
    FULL,
    GREP_SCAN_RATE,
    QUICK,
    RTW_GENERATE_RATE,
    FigureResult,
    Scale,
    figure_3a,
    figure_3b,
    figure_4,
    figure_5,
    figure_6a,
    figure_6b,
)
from repro.harness.report import (
    ScenarioReport,
    render_chart,
    render_figure,
    render_report,
    render_table,
)
from repro.harness.scenarios import (
    AppendResult,
    ReadResult,
    WriteResult,
    concurrent_appenders,
    concurrent_readers,
    single_writer,
)

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
    "render_table",
    "render_chart",
    "render_figure",
    "render_report",
    "ScenarioReport",
    "single_writer",
    "concurrent_readers",
    "concurrent_appenders",
    "WriteResult",
    "ReadResult",
    "AppendResult",
]
