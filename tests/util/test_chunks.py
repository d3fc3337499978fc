"""Unit + property tests for block/range arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import (
    align_down,
    block_count,
    split_range,
)


class TestSplitRange:
    def test_empty_range(self):
        assert split_range(10, 0, 64) == []

    def test_single_full_block(self):
        (s,) = split_range(0, 64, 64)
        assert (s.index, s.start, s.length, s.offset) == (0, 0, 64, 0)

    def test_unaligned_extremal_blocks(self):
        # Paper §III-C: first/last blocks may be fetched partially.
        slices = split_range(10, 150, 64)
        assert [s.index for s in slices] == [0, 1, 2]
        assert slices[0].start == 10 and slices[0].length == 54
        assert slices[1].start == 0 and slices[1].length == 64
        assert slices[2].start == 0 and slices[2].length == 150 - 54 - 64

    def test_interior_blocks_full(self):
        slices = split_range(1, 64 * 3, 64)
        for s in slices[1:-1]:
            assert s.start == 0 and s.length == 64

    def test_offsets_are_absolute(self):
        slices = split_range(100, 200, 64)
        assert slices[0].offset == 100
        assert slices[-1].end == 300

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            split_range(0, 10, 0)

    def test_negative_range(self):
        with pytest.raises(ValueError):
            split_range(-1, 10, 64)
        with pytest.raises(ValueError):
            split_range(0, -10, 64)

    @given(
        offset=st.integers(min_value=0, max_value=10**7),
        size=st.integers(min_value=0, max_value=10**5),
        block=st.integers(min_value=16, max_value=10**5),
    )
    def test_property_cover_exactly(self, offset, size, block):
        """Slices tile the range exactly: contiguous, in order, summing to size."""
        slices = split_range(offset, size, block)
        assert sum(s.length for s in slices) == size
        position = offset
        for s in slices:
            assert s.offset == position
            assert 0 <= s.start < block
            assert 0 < s.length <= block - s.start
            assert s.index == s.offset // block
            position += s.length
        if size:
            assert position == offset + size


class TestBlockMath:
    def test_block_count(self):
        assert block_count(0, 64) == 0
        assert block_count(1, 64) == 1
        assert block_count(64, 64) == 1
        assert block_count(65, 64) == 2

    def test_span_matches_split(self):
        slices = split_range(100, 999, 64)
        assert slices[0].index == 100 // 64
        assert slices[-1].index == (100 + 999 - 1) // 64

    def test_align(self):
        assert align_down(130, 64) == 128
        assert align_down(128, 64) == 128

    def test_align_bad_granularity(self):
        with pytest.raises(ValueError):
            align_down(1, 0)
        with pytest.raises(ValueError):
            align_down(1, -3)

    @given(
        value=st.integers(min_value=0, max_value=10**9),
        granularity=st.integers(min_value=1, max_value=10**6),
    )
    def test_property_align_bracket(self, value, granularity):
        low = align_down(value, granularity)
        assert low <= value < low + granularity
        assert low % granularity == 0
