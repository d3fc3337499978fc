"""The Hadoop-style FileSystem API shared by BSFS and HDFS.

Hadoop accesses its storage backend "through a clean, specific Java API"
(paper §IV); BSFS exists precisely because that API can be implemented
on top of BlobSeer.  This module defines the Python rendition of that
contract — create/open/append streams, namespace operations, and the
``block_locations`` affinity primitive — plus the path utilities and the
directory tree both namespace services (BSFS namespace manager, HDFS
namenode) are built from.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

from repro.errors import (
    DirectoryNotEmpty,
    FileAlreadyExists,
    FileNotFound,
    IsADirectory,
    NotADirectory,
)

__all__ = [
    "normalize_path",
    "parent_path",
    "FileStatus",
    "RangeLocation",
    "DirectoryTree",
    "FileSystem",
    "WriteStream",
    "ReadStream",
]


# --------------------------------------------------------------------------
# Paths
# --------------------------------------------------------------------------


def normalize_path(path: str) -> str:
    """Canonical absolute form: single slashes, no trailing slash, no relatives.

    >>> normalize_path("/a//b/")
    '/a/b'
    """
    if not isinstance(path, str) or not path.startswith("/"):
        raise ValueError(f"paths must be absolute strings, got {path!r}")
    parts = [p for p in path.split("/") if p]
    for part in parts:
        if part in (".", ".."):
            raise ValueError(f"relative components not allowed: {path!r}")
    return "/" + "/".join(parts)


def parent_path(path: str) -> str:
    """Parent directory of a normalized path ('/' is its own parent)."""
    path = normalize_path(path)
    if path == "/":
        return "/"
    return path.rsplit("/", 1)[0] or "/"


# --------------------------------------------------------------------------
# Status and locations
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FileStatus:
    """What ``status(path)`` reports."""

    path: str
    is_dir: bool
    size: int

    @property
    def is_file(self) -> bool:
        """Convenience inverse of :attr:`is_dir`."""
        return not self.is_dir


@dataclass(frozen=True)
class RangeLocation:
    """One block of a file range and the hosts storing it (§IV-C)."""

    offset: int
    length: int
    hosts: tuple[str, ...]


# --------------------------------------------------------------------------
# Directory tree (shared by the BSFS namespace manager and the namenode)
# --------------------------------------------------------------------------


class DirectoryTree:
    """A hierarchical namespace mapping file paths to opaque handles.

    Directories are implicit containers; files carry a caller-supplied
    handle (a BLOB id for BSFS, a chunk list for HDFS).  All operations
    take normalized absolute paths.
    """

    def __init__(self) -> None:
        self._dirs: set[str] = {"/"}
        self._files: dict[str, object] = {}

    # -- queries ------------------------------------------------------------

    def is_dir(self, path: str) -> bool:
        """Whether *path* is an existing directory."""
        return normalize_path(path) in self._dirs

    def is_file(self, path: str) -> bool:
        """Whether *path* is an existing file."""
        return normalize_path(path) in self._files

    def exists(self, path: str) -> bool:
        """Whether *path* exists at all."""
        path = normalize_path(path)
        return path in self._dirs or path in self._files

    def handle(self, path: str) -> object:
        """The handle stored for a file path."""
        path = normalize_path(path)
        try:
            return self._files[path]
        except KeyError:
            if path in self._dirs:
                raise IsADirectory(path) from None
            raise FileNotFound(path) from None

    def list_dir(self, path: str) -> list[str]:
        """Immediate children of a directory (sorted full paths)."""
        path = normalize_path(path)
        if path in self._files:
            raise NotADirectory(path)
        if path not in self._dirs:
            raise FileNotFound(path)
        prefix = path if path.endswith("/") else path + "/"
        children = set()
        for candidate in list(self._dirs) + list(self._files):
            if candidate != path and candidate.startswith(prefix):
                rest = candidate[len(prefix):]
                children.add(prefix + rest.split("/", 1)[0])
        return sorted(children)

    # -- mutations -----------------------------------------------------------

    def make_dirs(self, path: str) -> None:
        """``mkdir -p``; error if a component is a file."""
        path = normalize_path(path)
        parts = [p for p in path.split("/") if p]
        current = ""
        for part in parts:
            current += "/" + part
            if current in self._files:
                raise NotADirectory(current)
            self._dirs.add(current)

    def add_file(self, path: str, handle: object) -> None:
        """Register a file (creating parents, Hadoop-style)."""
        path = normalize_path(path)
        if path in self._files or path in self._dirs:
            raise FileAlreadyExists(path)
        self.make_dirs(parent_path(path))
        self._files[path] = handle

    def remove(self, path: str, recursive: bool = False) -> list[object]:
        """Delete a file or directory; returns the removed file handles.

        Non-recursive deletion of a non-empty directory raises
        :class:`DirectoryNotEmpty`; deleting '/' is refused.
        """
        path = normalize_path(path)
        if path == "/":
            raise ValueError("refusing to delete the root directory")
        if path in self._files:
            return [self._files.pop(path)]
        if path not in self._dirs:
            raise FileNotFound(path)
        children = self.list_dir(path)
        if children and not recursive:
            raise DirectoryNotEmpty(path)
        removed: list[object] = []
        prefix = path + "/"
        for file_path in [f for f in self._files if f.startswith(prefix)]:
            removed.append(self._files.pop(file_path))
        for dir_path in [d for d in self._dirs if d == path or d.startswith(prefix)]:
            self._dirs.discard(dir_path)
        return removed


# --------------------------------------------------------------------------
# Streams and the FileSystem contract
# --------------------------------------------------------------------------


class WriteStream(abc.ABC):
    """Sequential writer returned by ``create``/``append``."""

    @abc.abstractmethod
    def write(self, data: bytes) -> None:
        """Append *data* to the stream buffer."""

    @abc.abstractmethod
    def close(self) -> None:
        """Flush buffered data and seal the stream."""

    def __enter__(self) -> "WriteStream":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class ReadStream(abc.ABC):
    """Positioned reader returned by ``open``."""

    @abc.abstractmethod
    def read(self, size: int = -1) -> bytes:
        """Read up to *size* bytes from the current position (-1 = rest)."""

    @abc.abstractmethod
    def pread(self, offset: int, size: int) -> bytes:
        """Positional read without moving the stream cursor."""

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Total size of the file as seen by this reader."""

    def close(self) -> None:
        """Release reader resources (default: nothing)."""

    def __enter__(self) -> "ReadStream":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class FileSystem(abc.ABC):
    """The Hadoop FileSystem contract both backends implement."""

    #: Striping/chunking unit exposed to the scheduler.
    block_size: int

    @abc.abstractmethod
    def create(self, path: str, client: Optional[str] = None) -> WriteStream:
        """Create *path* for writing (parents auto-created)."""

    @abc.abstractmethod
    def open(self, path: str, client: Optional[str] = None) -> ReadStream:
        """Open *path* for reading."""

    @abc.abstractmethod
    def append(self, path: str, client: Optional[str] = None) -> WriteStream:
        """Open *path* for appending (HDFS refuses, §V-F)."""

    @abc.abstractmethod
    def status(self, path: str) -> FileStatus:
        """Metadata for *path*."""

    @abc.abstractmethod
    def list_dir(self, path: str) -> list[str]:
        """Immediate children of a directory."""

    @abc.abstractmethod
    def make_dirs(self, path: str) -> None:
        """``mkdir -p``."""

    @abc.abstractmethod
    def delete(self, path: str, recursive: bool = False) -> None:
        """Remove a file or directory."""

    @abc.abstractmethod
    def exists(self, path: str) -> bool:
        """Existence check."""

    @abc.abstractmethod
    def block_locations(self, path: str, offset: int, size: int) -> list[RangeLocation]:
        """Data-layout exposure for affinity scheduling (§IV-C)."""

    # -- conveniences shared by all backends -----------------------------------

    def read_file(self, path: str) -> bytes:
        """Slurp a whole file."""
        with self.open(path) as stream:
            return stream.read()

    def write_file(self, path: str, data: bytes, client: Optional[str] = None) -> None:
        """Create *path* holding exactly *data*."""
        with self.create(path, client=client) as stream:
            if data:
                stream.write(data)
