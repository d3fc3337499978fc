"""Shape tests for the regenerated figures (quick scale).

These encode the pass criteria from DESIGN.md §4: who wins, whether
curves are flat or degrade, how gaps trend.  Every figure runs on the
simulator's virtual clock, so the criteria are deterministic.  The one
criterion that needs larger inputs than the quick sweep has (the
Figure 6(b) gain) runs at the mid-size ``BENCH`` scale.
"""

import dataclasses

import pytest

from repro.harness import (
    QUICK,
    figure_3a,
    figure_3b,
    figure_4,
    figure_5,
    figure_6a,
    figure_6b,
)

#: Mid-size grep sweep: 75 workers, inputs to 6.4 GB, about a second.
BENCH = dataclasses.replace(
    QUICK, name="bench", fig6b_input_gb=(3.2, 4.8, 6.4), fig6b_workers=75
)


@pytest.fixture(scope="module")
def fig3a():
    return figure_3a(QUICK)


@pytest.fixture(scope="module")
def fig3b():
    return figure_3b(QUICK)


@pytest.fixture(scope="module")
def fig4():
    return figure_4(QUICK)


@pytest.fixture(scope="module")
def fig5():
    return figure_5(QUICK)


@pytest.fixture(scope="module")
def fig6a():
    return figure_6a(QUICK)


@pytest.fixture(scope="module")
def fig6b():
    return figure_6b(QUICK)


class TestFigure3a:
    def test_bsfs_wins_everywhere(self, fig3a):
        for b, h in zip(fig3a.ys("BSFS"), fig3a.ys("HDFS")):
            assert b > h

    def test_factor_band(self, fig3a):
        for b, h in zip(fig3a.ys("BSFS"), fig3a.ys("HDFS")):
            assert 1.3 < b / h < 2.2  # paper: ~1.5-1.7x

    def test_bsfs_sustained(self, fig3a):
        ys = fig3a.ys("BSFS")
        assert min(ys) > 0.9 * max(ys)

    def test_hdfs_sustained(self, fig3a):
        ys = fig3a.ys("HDFS")
        assert min(ys) > 0.85 * max(ys)

    def test_absolute_bands(self, fig3a):
        # Calibrated: BSFS ~60-70 MB/s, HDFS ~40-47 MB/s.
        assert 55 < fig3a.ys("BSFS")[-1] < 75
        assert 35 < fig3a.ys("HDFS")[-1] < 50


class TestFigure3b:
    def test_hdfs_unbalance_grows(self, fig3b):
        ys = fig3b.ys("HDFS")
        assert ys[-1] > ys[0]

    def test_bsfs_much_more_balanced_at_size(self, fig3b):
        assert fig3b.ys("BSFS")[-1] < 0.5 * fig3b.ys("HDFS")[-1]

    def test_bsfs_unbalance_below_provider_count(self, fig3b):
        # Round-robin keeps per-provider spread within one block.
        assert all(b <= QUICK.total_nodes for b in fig3b.ys("BSFS"))


class TestFigure4:
    def test_bsfs_flat(self, fig4):
        ys = fig4.ys("BSFS")
        assert min(ys) > 0.9 * max(ys)

    def test_hdfs_degrades(self, fig4):
        ys = fig4.ys("HDFS")
        assert ys[-1] < 0.8 * ys[0]

    def test_bsfs_wins_under_concurrency(self, fig4):
        assert fig4.ys("BSFS")[-1] > 1.4 * fig4.ys("HDFS")[-1]

    def test_single_client_parity(self, fig4):
        # The gap is a concurrency phenomenon, not a constant offset.
        bsfs, hdfs = fig4.ys("BSFS")[0], fig4.ys("HDFS")[0]
        assert abs(bsfs - hdfs) / bsfs < 0.15


class TestFigure5:
    def test_near_linear_scaling(self, fig5):
        points = sorted(fig5.series["BSFS"])
        (x0, y0), (xn, yn) = points[0], points[-1]
        per_client_first = y0 / x0
        per_client_last = yn / xn
        assert per_client_last > 0.75 * per_client_first

    def test_aggregate_grows(self, fig5):
        ys = fig5.ys("BSFS")
        assert all(b > a for a, b in zip(ys, ys[1:]))


class TestFigure6a:
    def test_bsfs_faster_everywhere(self, fig6a):
        for b, h in zip(fig6a.ys("BSFS"), fig6a.ys("HDFS")):
            assert b < h

    def test_gain_band(self, fig6a):
        gains = [
            (h - b) / h for b, h in zip(fig6a.ys("BSFS"), fig6a.ys("HDFS"))
        ]
        assert all(0.02 < g < 0.20 for g in gains)  # paper: 7-11%

    def test_gain_grows_with_mapper_size(self, fig6a):
        gains = [
            (h - b) / h for b, h in zip(fig6a.ys("BSFS"), fig6a.ys("HDFS"))
        ]
        assert gains[-1] > gains[0]

    def test_completion_grows_with_mapper_size(self, fig6a):
        for name in ("BSFS", "HDFS"):
            ys = fig6a.ys(name)
            assert ys[-1] > ys[0]


class TestFigure6b:
    def test_bsfs_never_meaningfully_slower(self, fig6b):
        # At quick scale small inputs can tie within milliseconds; BSFS
        # must never lose by more than noise.
        for b, h in zip(fig6b.ys("BSFS"), fig6b.ys("HDFS")):
            assert b <= h * 1.01

    def test_bsfs_wins_at_largest_input(self, fig6b):
        bsfs, hdfs = fig6b.ys("BSFS")[-1], fig6b.ys("HDFS")[-1]
        assert (hdfs - bsfs) / hdfs > 0.02

    def test_completion_grows_with_input(self, fig6b):
        for name in ("BSFS", "HDFS"):
            ys = fig6b.ys(name)
            assert ys[-1] >= ys[0]

    def test_solid_win_somewhere_at_bench_scale(self):
        # The quick sweep's two inputs stop short of it (3.9 % at most).
        result = figure_6b(BENCH)
        gains = [(h - b) / h for b, h in zip(result.ys("BSFS"), result.ys("HDFS"))]
        assert max(gains) > 0.04
