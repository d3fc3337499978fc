"""Tests for figure and scenario-report rendering."""

from repro.harness import (
    FigureResult,
    ScenarioReport,
    render_chart,
    render_figure,
    render_report,
    render_table,
)
from repro.harness.report import check


def sample_result():
    result = FigureResult(
        figure="4",
        title="Concurrent readers",
        x_label="Clients",
        y_label="MB/s",
        notes="flat vs degrading",
    )
    for x, y in [(1, 70.0), (10, 69.5), (25, 69.0)]:
        result.add("BSFS", x, y)
    for x, y in [(1, 69.0), (10, 42.0), (25, 40.0)]:
        result.add("HDFS", x, y)
    return result


class TestTable:
    def test_columns_and_rows(self):
        table = render_table(sample_result())
        lines = table.splitlines()
        assert "BSFS" in lines[0] and "HDFS" in lines[0]
        assert len(lines) == 2 + 3  # header + rule + 3 x-values

    def test_values_formatted(self):
        table = render_table(sample_result())
        assert "69.50" in table and "42.00" in table

    def test_missing_points_dashed(self):
        result = sample_result()
        result.add("BSFS", 50, 68.0)  # no HDFS point at x=50
        table = render_table(result)
        row = [l for l in table.splitlines() if l.lstrip().startswith("50")][0]
        assert "-" in row.split()[-1]

    def test_ys_sorted_by_x(self):
        result = FigureResult(figure="x", title="t", x_label="x", y_label="y")
        result.add("S", 3, 30.0)
        result.add("S", 1, 10.0)
        assert result.ys("S") == [10.0, 30.0]


class TestChart:
    def test_contains_glyphs_and_legend(self):
        chart = render_chart(sample_result())
        assert "o=BSFS" in chart and "x=HDFS" in chart
        assert "|" in chart

    def test_empty(self):
        empty = FigureResult(figure="z", title="t", x_label="x", y_label="y")
        assert render_chart(empty) == "(no data)"

    def test_single_point(self):
        result = FigureResult(figure="z", title="t", x_label="x", y_label="y")
        result.add("S", 1, 1.0)
        assert "o" in render_chart(result)


class TestFullFigure:
    def test_render_figure_structure(self):
        text = render_figure(sample_result())
        assert text.startswith("=== Figure 4")
        assert "paper: flat vs degrading" in text

    def test_render_without_chart(self):
        text = render_figure(sample_result(), chart=False)
        assert "o=BSFS" not in text


class TestScenarioReport:
    def report(self, *checks):
        return ScenarioReport(
            title="two things:",
            header=("thing", "value"),
            rows=(("a", 1), ("longer", 22)),
            measurements={"a": 1},
            checks=checks,
            summary="all good",
        )

    def test_check_pairs_a_condition_with_its_failure_message(self):
        assert check("flag set", True) == (True, "flag set: True is not == True")
        assert check("trips", 12, "<=", 9) == (False, "trips: 12 is not <= 9")
        assert check("wall, s", 0.5, "<", 2.0)[0]

    def test_passing_report_renders_ok_verdict(self):
        report = self.report((True, "never shown"))
        assert report.ok and report.failures == ()
        lines = render_report(report).splitlines()
        assert lines[0] == "two things:"
        assert lines[1].split() == ["thing", "value"]
        assert lines[-1] == "OK: all good"
        assert len({len(line) for line in lines[1:5]}) == 1  # aligned columns

    def test_failed_checks_replace_the_summary(self):
        report = self.report((False, "x broke"), (True, "fine"), (False, "y broke"))
        assert not report.ok and report.failures == ("x broke", "y broke")
        assert render_report(report).splitlines()[-1] == "FAIL: x broke; y broke"
