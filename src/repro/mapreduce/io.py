"""Input splits, record readers and output formats.

The split and record-reading rules follow Hadoop's ``TextInputFormat``:

* files are split at block boundaries and each split carries the hosts
  of its first block (the affinity data the jobtracker schedules by);
* a record reader at split offset > 0 skips the partial first line and
  reads past the split end to finish its last line, so every line of
  the file is processed exactly once across all splits.

Reads go through the file system's positioned reads in small steps
(Hadoop's few-KB accesses), which is exactly the access pattern the
§IV-B client cache exists to absorb.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union

from repro.fsapi import FileSystem, ReadStream

__all__ = [
    "FileSplit",
    "SyntheticSplit",
    "Split",
    "compute_file_splits",
    "iter_lines",
    "write_text_records",
    "IO_CHUNK",
]

#: Granularity of record-reader reads: "small chunks of a few KB
#: (usually, 4 KB) at a time" (paper §IV-B).
IO_CHUNK = 4 * 1024


@dataclass(frozen=True)
class FileSplit:
    """One map task's slice of an input file."""

    path: str
    offset: int
    length: int
    hosts: tuple[str, ...]

    @property
    def end(self) -> int:
        """One past the last byte of the split."""
        return self.offset + self.length


@dataclass(frozen=True)
class SyntheticSplit:
    """A generator map task (no input data)."""

    index: int
    hosts: tuple[str, ...] = field(default=())


Split = Union[FileSplit, SyntheticSplit]


def compute_file_splits(
    fs: FileSystem, paths: Sequence[str], split_size: int, engine=None
) -> list[FileSplit]:
    """Block-aligned splits for every file under *paths* (dirs recurse).

    "Usually Hadoop assigns a single mapper to process such a data
    block" — with ``split_size == block_size`` each block is one split,
    located on the hosts storing that block.

    *engine* (an :class:`~repro.blob.async_engine.AsyncIOEngine`, e.g.
    the file system's own ``io_engine``) resolves the per-file block
    locations concurrently — split planning over a many-file input is
    pure metadata fan-out, the kind of job-startup latency §IV-C's
    layout primitive exists to keep cheap.  Each file's descent blocks,
    so it runs via ``engine.submit`` on a helper thread, never on the
    engine's event loop, where it would stall every other transfer.
    """
    if split_size < 1:
        raise ValueError("split_size must be >= 1")
    files: list[str] = []
    for path in paths:
        status = fs.status(path)
        if status.is_dir:
            stack = [path]
            while stack:
                current = stack.pop()
                for child in fs.list_dir(current):
                    if fs.status(child).is_dir:
                        stack.append(child)
                    else:
                        files.append(child)
        else:
            files.append(path)

    def splits_of(file_path: str) -> list[FileSplit]:
        size = fs.status(file_path).size
        splits: list[FileSplit] = []
        offset = 0
        while offset < size:
            length = min(split_size, size - offset)
            locations = fs.block_locations(file_path, offset, length)
            hosts = locations[0].hosts if locations else ()
            splits.append(
                FileSplit(path=file_path, offset=offset, length=length, hosts=hosts)
            )
            offset += length
        return splits

    ordered = sorted(files)
    if engine is not None and len(ordered) > 1:
        futures = [engine.submit(splits_of, f) for f in ordered]
        per_file = [future.result() for future in futures]
    else:
        per_file = [splits_of(f) for f in ordered]
    return [split for file_splits in per_file for split in file_splits]


def _scan_to_newline(stream: ReadStream, position: int) -> int:
    """First position after the next newline at/after *position*."""
    size = stream.size
    while position < size:
        chunk = stream.pread(position, min(IO_CHUNK, size - position))
        newline = chunk.find(b"\n")
        if newline >= 0:
            return position + newline + 1
        position += len(chunk)
    return size


def iter_lines(stream: ReadStream, offset: int, length: int) -> Iterator[tuple[int, str]]:
    """Yield ``(byte_offset, line)`` records owned by the split.

    Hadoop's ownership rule: a split owns every line that *starts*
    within ``[offset, offset+length)``, where a line "starts" right
    after the previous newline.  The reader skips a partial first line
    (when ``offset > 0``) and runs past the end to complete its last.
    """
    size = stream.size
    end = min(offset + length, size)
    position = offset
    if offset > 0:
        # A line starts at `offset` only if the previous byte is '\n';
        # otherwise the line belongs to the previous split — skip it.
        if stream.pread(offset - 1, 1) != b"\n":
            position = _scan_to_newline(stream, offset)
    while position < end:
        line_start = position
        first = stream.pread(position, min(IO_CHUNK, size - position))
        newline = first.find(b"\n")
        if newline >= 0:
            # Fast path — the whole line sits in one chunk (almost
            # always, at few-KB chunks): decode the slice directly,
            # no accumulator.
            position += newline + 1
            yield (line_start, first[:newline].decode("utf-8", errors="replace"))
            continue
        # Long line spanning chunks: grow ONE bytearray in place and
        # decode it directly — no pieces list, no ``b"".join`` copy.
        pieces = bytearray(first)
        position += len(first)
        while True:
            chunk = stream.pread(position, min(IO_CHUNK, size - position))
            if not chunk:
                break
            newline = chunk.find(b"\n")
            if newline >= 0:
                pieces += memoryview(chunk)[:newline]
                position += newline + 1
                break
            pieces += chunk
            position += len(chunk)
        yield (line_start, pieces.decode("utf-8", errors="replace"))


def write_text_records(
    fs: FileSystem,
    path: str,
    pairs: Sequence[tuple[object, object]],
    client: str | None = None,
) -> int:
    """Write key/value pairs as text lines; returns bytes written.

    Hadoop's ``TextOutputFormat``: ``key \\t value``; a ``None`` key
    writes the bare value (RandomTextWriter's output shape).
    """
    written = 0
    with fs.create(path, client=client) as out:
        for key, value in pairs:
            if key is None:
                line = f"{value}\n"
            else:
                line = f"{key}\t{value}\n"
            encoded = line.encode("utf-8")
            out.write(encoded)
            written += len(encoded)
    return written
