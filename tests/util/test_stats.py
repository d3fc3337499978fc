"""Unit tests for statistics helpers (incl. the Figure 3(b) metric)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import manhattan_unbalance, summarize


class TestManhattanUnbalance:
    def test_perfectly_balanced_is_zero(self):
        assert manhattan_unbalance([3, 3, 3, 3]) == 0.0

    def test_empty_is_zero(self):
        assert manhattan_unbalance([]) == 0.0

    def test_known_value(self):
        # ideal = 2 each; distances 2,0,2 -> 4
        assert manhattan_unbalance([4, 2, 0]) == 4.0

    def test_single_hot_node(self):
        # Paper: HDFS may store a whole file on one datanode.
        n_nodes, blocks = 10, 100
        vec = [blocks] + [0] * (n_nodes - 1)
        ideal = blocks / n_nodes
        expected = (blocks - ideal) + ideal * (n_nodes - 1)
        assert manhattan_unbalance(vec) == pytest.approx(expected)

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
    def test_property_nonnegative_and_shift_invariant(self, vec):
        d = manhattan_unbalance(vec)
        assert d >= 0
        # Adding the same constant to every element keeps the distance.
        assert manhattan_unbalance([v + 7 for v in vec]) == pytest.approx(d)

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=30))
    def test_property_balanced_is_minimum(self, vec):
        total = sum(vec)
        n = len(vec)
        balanced = [total // n] * n
        for i in range(total % n):
            balanced[i] += 1
        assert manhattan_unbalance(balanced) <= manhattan_unbalance(vec) + 1e-9


class TestSummaries:
    def test_summarize_basic(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.n == 3
        assert s.mean == pytest.approx(2.0)
        assert s.stdev == pytest.approx(1.0)
        assert (s.minimum, s.maximum) == (1.0, 3.0)

    def test_summarize_single(self):
        s = summarize([5.0])
        assert s.stdev == 0.0

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])
