"""BSFS namespace manager (paper §IV-A).

"The Hadoop framework expects a classical hierarchical directory
structure, whereas BlobSeer provides a flat structure for BLOBs.  For
this purpose, we had to design and implement a specialized namespace
manager, which is responsible for maintaining a file system namespace,
and for mapping files to BLOBs."

It is deliberately centralized (as in the paper), and deliberately
*minimal*: clients only talk to it for open/create/list/delete-style
operations; all data and data-layout traffic goes straight to BlobSeer,
preserving the decentralized metadata benefits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fsapi import DirectoryTree

__all__ = ["FileEntry", "NamespaceManager"]


@dataclass
class FileEntry:
    """Namespace record for one file: the BLOB that backs it."""

    blob_id: str


class NamespaceManager:
    """Path → BLOB mapping plus directory structure."""

    def __init__(self) -> None:
        self._tree = DirectoryTree()
        #: Served requests, to verify the "minimize interaction" goal.
        self.requests = 0

    # -- file mapping ------------------------------------------------------------

    def register_file(self, path: str, blob_id: str) -> FileEntry:
        """Bind a new file path to a BLOB id (parents auto-created)."""
        self.requests += 1
        entry = FileEntry(blob_id=blob_id)
        self._tree.add_file(path, entry)
        return entry

    def lookup(self, path: str) -> FileEntry:
        """Resolve a file path to its BLOB (the open-time interaction)."""
        self.requests += 1
        entry = self._tree.handle(path)
        assert isinstance(entry, FileEntry)
        return entry

    # -- namespace operations ------------------------------------------------------

    def exists(self, path: str) -> bool:
        """Existence check."""
        self.requests += 1
        return self._tree.exists(path)

    def is_file(self, path: str) -> bool:
        """Whether *path* is a file."""
        self.requests += 1
        return self._tree.is_file(path)

    def is_dir(self, path: str) -> bool:
        """Whether *path* is a directory."""
        self.requests += 1
        return self._tree.is_dir(path)

    def make_dirs(self, path: str) -> None:
        """``mkdir -p``."""
        self.requests += 1
        self._tree.make_dirs(path)

    def list_dir(self, path: str) -> list[str]:
        """Immediate children, sorted."""
        self.requests += 1
        return self._tree.list_dir(path)

    def delete(self, path: str, recursive: bool = False) -> list[str]:
        """Remove a file/directory; returns the BLOB ids to dispose of."""
        self.requests += 1
        removed = self._tree.remove(path, recursive=recursive)
        return [entry.blob_id for entry in removed]  # type: ignore[union-attr]
