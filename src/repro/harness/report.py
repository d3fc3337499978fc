"""Text rendering of regenerated figures and scenario reports.

The benchmark harness and the CLI print each figure as an aligned table
(one row per x value, one column per series) plus a crude ASCII chart —
enough to eyeball the shapes the paper plots.  The self-checking
scenarios of :mod:`repro.harness.demos` all return one
:class:`ScenarioReport`, rendered by :func:`render_report`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.harness.experiments import FigureResult

__all__ = [
    "ScenarioReport",
    "check",
    "render_table",
    "render_chart",
    "render_figure",
    "render_report",
]


@dataclass(frozen=True)
class ScenarioReport:
    """What one self-checking scenario measured and concluded.

    ``rows`` (under ``header``) is the table a human reads,
    ``measurements`` the same facts as plain numbers for benchmarks to
    record and assert on, ``checks`` pairs every condition the scenario
    verified with the message reported when it does not hold, and
    ``summary`` is the one-line verdict printed after ``OK:``.
    """

    title: str
    header: tuple[str, ...]
    rows: tuple[tuple, ...]
    measurements: Mapping[str, Any]
    checks: tuple[tuple[bool, str], ...]
    summary: str

    @property
    def failures(self) -> tuple[str, ...]:
        """Messages of the checks that did not hold (empty = passed)."""
        return tuple(message for held, message in self.checks if not held)

    @property
    def ok(self) -> bool:
        """True when every check held."""
        return not self.failures


_HOLDS = {
    "==": operator.eq,
    "<=": operator.le,
    "<": operator.lt,
    ">=": operator.ge,
    ">": operator.gt,
}


def check(what: str, value: Any, op: str = "==", bound: Any = True) -> tuple[bool, str]:
    """One entry of :attr:`ScenarioReport.checks`: whether ``value op
    bound`` holds, and the message reported when it does not."""
    return _HOLDS[op](value, bound), f"{what}: {value!r} is not {op} {bound!r}"


def _aligned(header: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    """Right-aligned columns under a dashed header rule."""
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))
    ]
    return [
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        for row in (header, ["-" * w for w in widths], *rows)
    ]


def render_table(result: FigureResult) -> str:
    """Aligned table: x column plus one column per series."""
    names = sorted(result.series)
    xs = sorted({x for points in result.series.values() for x, _ in points})
    by_series = {
        name: {x: y for x, y in result.series[name]} for name in names
    }
    header = [result.x_label] + names
    rows = []
    for x in xs:
        row = [f"{x:g}"]
        for name in names:
            y = by_series[name].get(x)
            row.append("-" if y is None else f"{y:.2f}")
        rows.append(row)
    return "\n".join(_aligned(header, rows))


def render_chart(result: FigureResult, width: int = 60, height: int = 12) -> str:
    """Crude ASCII scatter of every series (one glyph per series)."""
    glyphs = "ox+*#@"
    points = [
        (x, y, glyphs[i % len(glyphs)])
        for i, name in enumerate(sorted(result.series))
        for x, y in result.series[name]
    ]
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y, glyph in points:
        col = min(width - 1, int((x - x_lo) / x_span * (width - 1)))
        row = min(height - 1, int((y - y_lo) / y_span * (height - 1)))
        grid[height - 1 - row][col] = glyph
    legend = "  ".join(
        f"{glyphs[i % len(glyphs)]}={name}" for i, name in enumerate(sorted(result.series))
    )
    body = "\n".join(f"|{''.join(row)}|" for row in grid)
    return (
        f"{result.y_label}: {y_lo:.1f} .. {y_hi:.1f}   "
        f"{result.x_label}: {x_lo:g} .. {x_hi:g}\n{body}\n{legend}"
    )


def render_figure(result: FigureResult, chart: bool = True) -> str:
    """Full text report for one figure."""
    parts = [
        f"=== Figure {result.figure}: {result.title} ===",
        render_table(result),
    ]
    if chart:
        parts.append(render_chart(result))
    if result.notes:
        parts.append(f"paper: {result.notes}")
    return "\n\n".join(parts) + "\n"


def render_report(report: ScenarioReport) -> str:
    """Title, the aligned table, then the ``OK:``/``FAIL:`` verdict."""
    rows = [[str(cell) for cell in row] for row in report.rows]
    failed = "; ".join(report.failures)
    verdict = f"FAIL: {failed}" if failed else f"OK: {report.summary}"
    return "\n".join([report.title, *_aligned(report.header, rows), "", verdict])
