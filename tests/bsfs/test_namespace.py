"""Tests for the BSFS namespace manager (§IV-A)."""

import pytest

from repro.bsfs import NamespaceManager
from repro.errors import FileAlreadyExists, FileNotFound


@pytest.fixture
def ns():
    return NamespaceManager()


class TestFileMapping:
    def test_register_and_lookup(self, ns):
        ns.register_file("/a/b", "blob-1")
        assert ns.lookup("/a/b").blob_id == "blob-1"

    def test_parents_autocreated(self, ns):
        ns.register_file("/deep/path/file", "b")
        assert ns.is_dir("/deep") and ns.is_dir("/deep/path")

    def test_duplicate_rejected(self, ns):
        ns.register_file("/f", "b1")
        with pytest.raises(FileAlreadyExists):
            ns.register_file("/f", "b2")

    def test_lookup_missing(self, ns):
        with pytest.raises(FileNotFound):
            ns.lookup("/ghost")

    def test_delete_returns_blob_ids(self, ns):
        ns.register_file("/d/1", "b1")
        ns.register_file("/d/2", "b2")
        assert sorted(ns.delete("/d", recursive=True)) == ["b1", "b2"]
        assert not ns.exists("/d")


class TestRequestAccounting:
    def test_every_operation_counted(self, ns):
        """The §IV-A design goal is *minimizing* traffic to this
        centralized entity — the counter is how tests observe it."""
        before = ns.requests
        ns.register_file("/f", "b")
        ns.lookup("/f")
        ns.exists("/f")
        ns.is_file("/f")
        ns.list_dir("/")
        assert ns.requests == before + 5

