"""Tests for the microbenchmark scenario drivers (quick deployments)."""

import pytest

from repro.deploy import deploy_microbench
from repro.errors import AppendNotSupported
from repro.harness import concurrent_appenders, concurrent_readers, single_writer
from repro.util.bytesize import MB

NODES = 40  # small but structurally complete deployment


class TestSingleWriter:
    def test_bsfs_beats_hdfs(self):
        bsfs = single_writer("bsfs", n_blocks=8, total_nodes=NODES)
        hdfs = single_writer("hdfs", n_blocks=8, total_nodes=NODES)
        assert bsfs.throughput > hdfs.throughput
        # Factor in the paper's band (~1.4-1.8x).
        assert 1.2 < bsfs.throughput / hdfs.throughput < 2.2

    def test_throughput_flat_with_size(self):
        small = single_writer("bsfs", n_blocks=4, total_nodes=NODES)
        large = single_writer("bsfs", n_blocks=16, total_nodes=NODES)
        assert large.throughput == pytest.approx(small.throughput, rel=0.10)

    def test_bsfs_layout_balanced(self):
        result = single_writer("bsfs", n_blocks=16, total_nodes=NODES)
        assert max(result.layout) - min(result.layout) <= 1

    @pytest.mark.parametrize("backend", ["bsfs", "hdfs"])
    def test_layout_lists_every_storage_node(self, backend):
        """Nodes that store nothing still appear, with 0: the paper saw
        HDFS datanodes holding no block at all (§V-D)."""
        result = single_writer(backend, n_blocks=4, total_nodes=NODES)
        deployment = deploy_microbench(backend, total_nodes=NODES)
        assert len(result.layout) == len(deployment.storage_nodes)
        assert sum(result.layout) == 4
        assert 0 in result.layout

    def test_hdfs_layout_more_skewed(self):
        bsfs = single_writer("bsfs", n_blocks=16, total_nodes=NODES)
        hdfs = single_writer("hdfs", n_blocks=16, total_nodes=NODES)
        assert hdfs.unbalance > bsfs.unbalance

    def test_throughput_in_plausible_band(self):
        bsfs = single_writer("bsfs", n_blocks=8, total_nodes=NODES)
        hdfs = single_writer("hdfs", n_blocks=8, total_nodes=NODES)
        assert 55 * MB < bsfs.throughput < 75 * MB  # paper: ~60-70
        assert 30 * MB < hdfs.throughput < 50 * MB  # paper: ~40-47

    def test_seed_determinism(self):
        a = single_writer("hdfs", n_blocks=8, total_nodes=NODES, seed=3)
        b = single_writer("hdfs", n_blocks=8, total_nodes=NODES, seed=3)
        assert a == b

    def test_seed_changes_hdfs_layout(self):
        a = single_writer("hdfs", n_blocks=12, total_nodes=NODES, seed=1)
        b = single_writer("hdfs", n_blocks=12, total_nodes=NODES, seed=2)
        assert a.layout != b.layout


class TestConcurrentReaders:
    def test_bsfs_flat_under_concurrency(self):
        one = concurrent_readers("bsfs", n_clients=1, total_nodes=NODES)
        many = concurrent_readers("bsfs", n_clients=16, total_nodes=NODES)
        assert many.mean_client_throughput == pytest.approx(
            one.mean_client_throughput, rel=0.10
        )

    def test_hdfs_degrades_under_concurrency(self):
        one = concurrent_readers("hdfs", n_clients=1, total_nodes=NODES)
        many = concurrent_readers("hdfs", n_clients=16, total_nodes=NODES)
        assert many.mean_client_throughput < 0.85 * one.mean_client_throughput

    def test_bsfs_beats_hdfs_at_scale(self):
        bsfs = concurrent_readers("bsfs", n_clients=16, total_nodes=NODES)
        hdfs = concurrent_readers("hdfs", n_clients=16, total_nodes=NODES)
        assert bsfs.mean_client_throughput > hdfs.mean_client_throughput

    def test_hotspot_slows_minimum_client(self):
        hdfs = concurrent_readers("hdfs", n_clients=16, total_nodes=NODES)
        assert hdfs.min_client_throughput < hdfs.mean_client_throughput


class TestConcurrentAppenders:
    def test_aggregate_scales_near_linearly(self):
        one = concurrent_appenders("bsfs", n_clients=1, total_nodes=NODES)
        many = concurrent_appenders("bsfs", n_clients=12, total_nodes=NODES)
        scaling = many.aggregate_throughput / one.aggregate_throughput
        assert scaling > 9.0  # >= 75% parallel efficiency at 12 clients

    def test_hdfs_refused(self):
        with pytest.raises(AppendNotSupported):
            concurrent_appenders("hdfs", n_clients=2, total_nodes=NODES)

    def test_makespan_close_to_single_append(self):
        result = concurrent_appenders("bsfs", n_clients=12, total_nodes=NODES)
        single = concurrent_appenders("bsfs", n_clients=1, total_nodes=NODES)
        assert result.makespan < 1.5 * single.makespan
