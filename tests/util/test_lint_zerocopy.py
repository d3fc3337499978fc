"""The zero-copy hot-path lint must actually lint (tools/lint_zerocopy.py).

Pins the contract of the CI step guarding DESIGN.md §11: a stray
``.tobytes()``, ``b"".join`` or ``bytearray(`` inside
``src/repro/blob/`` fails, the
``# zerocopy: allow`` escape hatch and comment/docstring occurrences do
not, and the real tree is currently clean.
"""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "lint_zerocopy.py"
spec = importlib.util.spec_from_file_location("lint_zerocopy", TOOL)
lint_zerocopy = importlib.util.module_from_spec(spec)
sys.modules["lint_zerocopy"] = lint_zerocopy
spec.loader.exec_module(lint_zerocopy)


def write(tmp_path, name, text):
    (tmp_path / name).write_text(text)
    return tmp_path


def test_real_hot_path_is_clean():
    assert lint_zerocopy.lint() == []


def test_tobytes_violation_is_caught(tmp_path):
    write(tmp_path, "store.py", "data = payload.tobytes()\n")
    violations = lint_zerocopy.lint(tmp_path)
    assert len(violations) == 1
    assert "store.py:1" in violations[0]
    assert ".tobytes()" in violations[0]


def test_join_violation_is_caught(tmp_path):
    write(tmp_path, "store.py", 'out = b"".join(parts)\n')
    write(tmp_path, "other.py", "result = b'' . join(parts)\n")
    violations = lint_zerocopy.lint(tmp_path)
    assert len(violations) == 2


def test_bytearray_violation_is_caught(tmp_path):
    # A preallocated gather buffer brings the read's second copy back.
    write(tmp_path, "store.py", "buffer = bytearray(size)\n")
    write(tmp_path, "other.py", "scratch = bytearray (n)\nname = my_bytearray(n)\n")
    write(tmp_path, "block.py", "buffer = bytearray(size)\n")
    violations = lint_zerocopy.lint(tmp_path)
    assert len(violations) == 2
    assert "other.py:1" in violations[0]
    assert "store.py:1" in violations[1] and "bytearray(" in violations[1]


def test_allow_marker_and_comments_are_exempt(tmp_path):
    write(
        tmp_path,
        "store.py",
        "legacy = payload.tobytes()  # zerocopy: allow RPC boundary\n"
        "# dead = payload.tobytes()\n",
    )
    assert lint_zerocopy.lint(tmp_path) == []


def test_block_py_is_exempt(tmp_path):
    write(tmp_path, "block.py", "def tobytes(self): return bytes(self.data)\n")
    write(tmp_path, "block2.py", "x = p.tobytes()\n")
    violations = lint_zerocopy.lint(tmp_path)
    assert len(violations) == 1
    assert "block2.py" in violations[0]


def test_docstring_mentions_are_exempt(tmp_path):
    write(
        tmp_path,
        "store.py",
        '"""Module doc.\n\nNever call .tobytes() or b"".join here.\n"""\n'
        "x = 1\n",
    )
    assert lint_zerocopy.lint(tmp_path) == []
