"""Shared utilities: byte sizes, block math, stats, RNG, rate limiting."""

from repro.util.bytesize import GB, KB, MB, TB, format_size, parse_size
from repro.util.chunks import (
    BlockSlice,
    align_down,
    block_count,
    split_range,
)
from repro.util.rng import SeedFactory, derive_rng
from repro.util.throttle import TokenBucket
from repro.util.stats import (
    Summary,
    manhattan_unbalance,
    summarize,
)


__all__ = [
    "KB",
    "MB",
    "GB",
    "TB",
    "parse_size",
    "format_size",
    "BlockSlice",
    "split_range",
    "block_count",
    "align_down",
    "SeedFactory",
    "derive_rng",
    "TokenBucket",
    "Summary",
    "summarize",
    "manhattan_unbalance",
]
