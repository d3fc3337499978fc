"""Input splits, record readers and output formats.

The split and record-reading rules follow Hadoop's ``TextInputFormat``:

* files are split at block boundaries and each split carries the hosts
  of its first block (the affinity data the jobtracker schedules by);
* a record reader at split offset > 0 skips the partial first line and
  reads past the split end to finish its last line, so every line of
  the file is processed exactly once across all splits.

The record reader buffers 64 KB per positioned read, as Hadoop's
``LineReader`` does; the §IV-B client cache still absorbs the small
calls other clients make on the HDFS/BSFS streams.
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
    "READ_CHUNK",
]

#: Bytes per record-reader ``pread`` (and per output ``write``): the
#: buffer of Hadoop's ``LineReader``.
READ_CHUNK = 64 * 1024


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
    layout primitive exists to keep cheap.  Each file's descent blocks
    its thread for its metadata rounds, so the files run via
    ``engine.submit`` on the helper threads, side by side.
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


def iter_lines(stream: ReadStream, offset: int, length: int) -> Iterator[tuple[int, str]]:
    """Yield ``(byte_offset, line)`` records owned by the split.

    Hadoop's ownership rule: a split owns every line that *starts*
    within ``[offset, offset+length)``, where a line "starts" right
    after the previous newline.  The reader skips a partial first line
    (when ``offset > 0``) and runs past the end to complete its last.
    As Hadoop's ``LineReader``, it reads ``READ_CHUNK`` bytes at a time
    (clipped at the split end) and cuts each chunk by one ``split``; a
    chunk's partial last line carries into the next chunk.
    """
    size = stream.size
    end = min(offset + length, size)
    # A line starts at `offset` only if the previous byte is '\n';
    # otherwise the line belongs to the previous split — skip it.
    skip = offset > 0 and stream.pread(offset - 1, 1) != b"\n"
    start = position = offset  # start: where the carried line begins
    carry = bytearray()
    while start < end and position < size:
        limit = end if position < end else size
        chunk = stream.pread(position, min(READ_CHUNK, limit - position))
        position += len(chunk)
        lines = chunk.split(b"\n")
        tail = lines.pop()
        if not lines:
            carry += tail
            continue
        lines[0] = carry + lines[0]
        if position > end:  # past the split, only the carried line is ours
            del lines[1:]
        if skip:
            skip = False
            start += len(lines.pop(0)) + 1
        for line in lines:
            yield (start, line.decode("utf-8", "replace"))
            start += len(line) + 1
        carry = bytearray(tail)
    if start < end and not skip:  # an unterminated last line
        yield (start, carry.decode("utf-8", "replace"))


def write_text_records(
    fs: FileSystem,
    path: str,
    pairs: Sequence[tuple[object, object]],
    client: str | None = None,
) -> int:
    """Write key/value pairs as text lines; returns bytes written.

    Hadoop's ``TextOutputFormat``: ``key \\t value``; a ``None`` key
    writes the bare value (RandomTextWriter's output shape).  Lines are
    gathered until they hold ``READ_CHUNK`` characters or more, then
    joined, encoded and handed to the stream in one piece.
    """
    written, lines, chars = 0, [], 0
    with fs.create(path, client=client) as out:
        for key, value in pairs:
            lines.append(f"{value}\n" if key is None else f"{key}\t{value}\n")
            chars += len(lines[-1])
            if chars >= READ_CHUNK:
                data = "".join(lines).encode("utf-8")
                out.write(data)
                written, lines, chars = written + len(data), [], 0
        data = "".join(lines).encode("utf-8")
        out.write(data)
    return written + len(data)
