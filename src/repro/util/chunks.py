"""Block/range arithmetic shared by BlobSeer, BSFS and HDFS.

Both storage systems stripe byte ranges over fixed-size blocks (64 MB in
the paper's evaluation).  Every layer needs the same little calculations:
which blocks does a byte range touch, which part of each block, is a
range block-aligned.  Centralising them here keeps the off-by-one zoo in
one tested place.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "BlockSlice",
    "split_range",
    "block_count",
    "align_down",
]


@dataclass(frozen=True)
class BlockSlice:
    """The portion of one block covered by a byte range.

    Attributes:
        index: zero-based block index within the object.
        start: first byte *within the block* covered by the range.
        length: number of bytes covered within this block.
        offset: absolute offset of the covered run (``index * block_size
            + start``) — convenient when issuing per-block I/O.
    """

    index: int
    start: int
    length: int
    offset: int

    @property
    def end(self) -> int:
        """Absolute offset one past the covered run."""
        return self.offset + self.length


def split_range(offset: int, size: int, block_size: int) -> list[BlockSlice]:
    """Split the byte range ``[offset, offset+size)`` into per-block slices.

    The first and last slice may be partial ("the client fetches only the
    required parts of the extremal blocks", paper §III-C); interior slices
    always cover whole blocks.

    >>> [s.index for s in split_range(10, 30, 16)]
    [0, 1, 2]
    """
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    if offset < 0 or size < 0:
        raise ValueError(f"negative range: offset={offset} size={size}")
    if size == 0:
        return []
    slices: list[BlockSlice] = []
    position = offset
    remaining = size
    while remaining > 0:
        index = position // block_size
        start = position - index * block_size
        length = min(block_size - start, remaining)
        slices.append(BlockSlice(index=index, start=start, length=length, offset=position))
        position += length
        remaining -= length
    return slices


def block_count(size: int, block_size: int) -> int:
    """Number of blocks needed to hold *size* bytes (ceiling division)."""
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    if size < 0:
        raise ValueError(f"negative size: {size}")
    return -(-size // block_size)


def align_down(value: int, granularity: int) -> int:
    """Largest multiple of *granularity* that is <= *value*."""
    if granularity <= 0:
        raise ValueError(f"granularity must be positive, got {granularity}")
    return (value // granularity) * granularity
