"""Zero-copy lint: forbid re-materialization in the blob hot path.

The data-plane refactor (DESIGN.md §11) moved ``src/repro/blob/`` onto
buffer views end-to-end: slices are ``memoryview`` windows, a read's
ONE copy is :func:`repro.blob.block.concat`'s join straight into its
immutable result, and the only other sanctioned materialization is
:func:`repro.blob.block.materialize`.  A stray ``.tobytes()`` or
``b"".join`` creeping back in silently reintroduces per-byte copies
that the figure benchmarks then mis-measure, and so does a
``bytearray(`` — a preallocated gather buffer must be copied out again
to become an immutable result — so CI fails on any new occurrence::

    python tools/lint_zerocopy.py

Scope: every module under ``src/repro/blob/`` except ``block.py``
itself (payloads must implement ``tobytes`` and the join somewhere —
that is where ``materialize`` and ``concat`` live and where the copies
are *counted*).  A line that
genuinely needs an exception carries ``# zerocopy: allow`` with a
reason; comment-only occurrences (like the strings in this docstring)
are ignored.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
HOT_PATH = REPO / "src" / "repro" / "blob"
EXEMPT_FILES = {"block.py"}
ALLOW_MARKER = "# zerocopy: allow"

#: Each pattern re-materializes bytes the view plumbing already holds.
FORBIDDEN = [
    (re.compile(r"\.tobytes\s*\("), ".tobytes() call"),
    (re.compile(r"b(\"\"|'')\s*\.\s*join"), 'b"".join reassembly'),
    (re.compile(r"\bbytearray\s*\("), "bytearray( gather buffer"),
]


def strip_noncode(line: str) -> str:
    """Drop the comment tail so commented-out code cannot trip the lint."""
    return line.split("#", 1)[0]


def lint(root: Path = HOT_PATH) -> list[str]:
    violations: list[str] = []
    for path in sorted(root.glob("*.py")):
        if path.name in EXEMPT_FILES:
            continue
        in_docstring = False
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            quotes = line.count('"""') + line.count("'''")
            if in_docstring:
                if quotes % 2 == 1:
                    in_docstring = False
                continue
            if quotes % 2 == 1:
                in_docstring = True
            if ALLOW_MARKER in line:
                continue
            code = strip_noncode(line)
            shown = path.relative_to(REPO) if path.is_relative_to(REPO) else path
            for pattern, label in FORBIDDEN:
                if pattern.search(code):
                    violations.append(
                        f"{shown}:{lineno}: {label} in the "
                        f"zero-copy hot path: {line.strip()}"
                    )
    return violations


def main() -> int:
    violations = lint()
    if violations:
        print("zero-copy lint failed (DESIGN.md §11):", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        print(
            "\nUse repro.blob.block.materialize(payload, stats) for a "
            "sanctioned user-facing copy, or mark a justified exception "
            f"with '{ALLOW_MARKER} <reason>'.",
            file=sys.stderr,
        )
        return 1
    print(f"zero-copy lint OK: {HOT_PATH.relative_to(REPO)} is view-clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
