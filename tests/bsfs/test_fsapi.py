"""Tests for paths and the shared directory tree."""

import pytest

from repro.errors import (
    DirectoryNotEmpty,
    FileAlreadyExists,
    FileNotFound,
    IsADirectory,
    NotADirectory,
)
from repro.fsapi import (
    DirectoryTree,
    normalize_path,
    parent_path,
)


class TestPaths:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("/", "/"),
            ("/a", "/a"),
            ("/a/", "/a"),
            ("//a//b//", "/a/b"),
            ("/a/b/c", "/a/b/c"),
        ],
    )
    def test_normalize(self, raw, expected):
        assert normalize_path(raw) == expected

    def test_relative_rejected(self):
        with pytest.raises(ValueError):
            normalize_path("a/b")
        with pytest.raises(ValueError):
            normalize_path("/a/../b")
        with pytest.raises(ValueError):
            normalize_path("/a/./b")

    def test_parent(self):
        assert parent_path("/a/b/c") == "/a/b"
        assert parent_path("/a") == "/"
        assert parent_path("/") == "/"


@pytest.fixture
def tree():
    return DirectoryTree()


class TestDirectoryTree:
    def test_root_exists(self, tree):
        assert tree.is_dir("/") and tree.exists("/")

    def test_add_file_creates_parents(self, tree):
        tree.add_file("/a/b/c.txt", "h1")
        assert tree.is_dir("/a") and tree.is_dir("/a/b")
        assert tree.is_file("/a/b/c.txt")
        assert tree.handle("/a/b/c.txt") == "h1"

    def test_duplicate_file_rejected(self, tree):
        tree.add_file("/x", "h")
        with pytest.raises(FileAlreadyExists):
            tree.add_file("/x", "h2")

    def test_file_over_dir_rejected(self, tree):
        tree.make_dirs("/d")
        with pytest.raises(FileAlreadyExists):
            tree.add_file("/d", "h")

    def test_dir_through_file_rejected(self, tree):
        tree.add_file("/f", "h")
        with pytest.raises(NotADirectory):
            tree.make_dirs("/f/sub")
        with pytest.raises(NotADirectory):
            tree.add_file("/f/child", "h2")

    def test_handle_of_dir_rejected(self, tree):
        tree.make_dirs("/d")
        with pytest.raises(IsADirectory):
            tree.handle("/d")

    def test_handle_missing(self, tree):
        with pytest.raises(FileNotFound):
            tree.handle("/ghost")

    def test_list_dir(self, tree):
        tree.add_file("/a/one", 1)
        tree.add_file("/a/two", 2)
        tree.make_dirs("/a/subdir")
        tree.add_file("/a/subdir/deep", 3)
        assert tree.list_dir("/a") == ["/a/one", "/a/subdir", "/a/two"]

    def test_list_file_rejected(self, tree):
        tree.add_file("/f", 1)
        with pytest.raises(NotADirectory):
            tree.list_dir("/f")

    def test_list_missing_rejected(self, tree):
        with pytest.raises(FileNotFound):
            tree.list_dir("/nope")

class TestRemove:
    def test_remove_file_returns_handle(self, tree):
        tree.add_file("/f", "h")
        assert tree.remove("/f") == ["h"]
        assert not tree.exists("/f")

    def test_remove_empty_dir(self, tree):
        tree.make_dirs("/d")
        assert tree.remove("/d") == []
        assert not tree.exists("/d")

    def test_remove_nonempty_needs_recursive(self, tree):
        tree.add_file("/d/f", "h")
        with pytest.raises(DirectoryNotEmpty):
            tree.remove("/d")
        assert sorted(tree.remove("/d", recursive=True)) == ["h"]
        assert not tree.exists("/d") and not tree.exists("/d/f")

    def test_recursive_remove_returns_every_nested_handle(self, tree):
        tree.add_file("/a/1", 1)
        tree.add_file("/a/b/2", 2)
        tree.add_file("/a/b/c/3", 3)
        tree.add_file("/z/4", 4)
        assert sorted(tree.remove("/a", recursive=True)) == [1, 2, 3]
        assert not tree.exists("/a/b/c/3")
        assert tree.handle("/z/4") == 4

    def test_remove_root_refused(self, tree):
        with pytest.raises(ValueError):
            tree.remove("/")

    def test_remove_missing(self, tree):
        with pytest.raises(FileNotFound):
            tree.remove("/ghost")
