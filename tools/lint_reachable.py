"""Reachability lint: no ``src/`` definition that only tests reach.

Every top-level function and every method under ``src/repro/`` must be
reachable from the program itself — ``src/``, ``perf/``, ``examples/``
or ``tools/`` — not only from ``tests/``.  A definition only tests call
is a public name a reader must learn and a test must keep green while
it serves neither the paper, the benchmark nor an example, so CI fails
on any new one::

    python tools/lint_reachable.py

The scan is an AST walk and matches by name, which is what a dynamic
language allows without type inference:

* Roots are every name used outside a ``src/`` definition: module and
  class bodies under ``src/``, and whole files under ``perf/``,
  ``examples/`` and ``tools/`` (this lint excepted).
* A definition is reached when its name is used by a root or by the
  body of a reached definition (transitively).  A name is used when it
  appears as a variable, an attribute, or an identifier-shaped string
  (``getattr``/``setattr`` by name).  Imports, ``__all__`` entries and
  docstrings are not uses, so a package re-export reaches nothing.
* Dunder methods are always reached: Python calls them implicitly.

:data:`ALLOWLIST` names the definitions tests legitimately need — the
fault-injection hooks the chaos suites drive and the invariant probes
they read — one reason per entry.  An entry's name counts as reached,
and so does everything its definitions use.  An entry that no longer
names a definition, or names one the program reaches anyway, is itself
a violation, so the list cannot go stale.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFINITIONS = Path("src") / "repro"
CALLERS = ("src", "perf", "examples", "tools")

#: Definitions kept although only tests call them, keyed by qualified
#: name (``Class.method`` or ``function``): the fault-injection hooks
#: the chaos suites drive and the invariant probes the tests read.
ALLOWLIST = {
    "HDFSFileSystem.fail_datanode": "fault injection: an HDFS datanode dies",
    "FlowNetwork.set_node_rates": "fault injection: a straggler's NIC is "
    "throttled (the speculation test and ablation)",
    "ProviderManagerCore.block_counts": "invariant probe: allocator charges "
    "equal stored blocks after any rollback, scrub or GC",
    "MetadataService.load_by_provider": "invariant probe: tree nodes per "
    "metadata provider",
    "DhtStore.load_by_bucket": "invariant probe: keys per DHT bucket",
    "VersionManagerCore.history_upto": "invariant probe: the write-history "
    "hints the stateful version-manager machine checks against its model",
    "ScrubReport.clean": "invariant probe: a scrub pass healed nothing and "
    "recorded no error (the convergence property)",
    "MultiPutResult.clean": "invariant probe: a multi-put met no conflict "
    "and stored every key",
    "CachedReadStream.prefetches": "invariant probe: backend block fetches "
    "behind a BSFS read stream (read-ahead and cache tests)",
    "TokenBucket.available": "invariant probe: the token balance the "
    "pacing tests assert on",
}


@dataclass
class Definition:
    path: Path
    line: int
    qualname: str
    uses: set[str] = field(default_factory=set)

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


def _is_docstring(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _is_all(node: ast.AST) -> bool:
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def uses_of(node: ast.AST) -> set[str]:
    """Names *node* uses; imports, ``__all__`` and docstrings excluded."""
    found: set[str] = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.Import, ast.ImportFrom)) or _is_all(current):
            continue
        if isinstance(current, ast.Name):
            found.add(current.id)
        elif isinstance(current, ast.Attribute):
            found.add(current.attr)
        elif isinstance(current, ast.Constant) and isinstance(current.value, str):
            if current.value.isidentifier():
                found.add(current.value)
        for child in ast.iter_child_nodes(current):
            if not _is_docstring(child):
                stack.append(child)
    return found


def _scan_body(
    body: list[ast.stmt], prefix: str, path: Path, defs: list[Definition], roots: set[str]
) -> None:
    """Split a module or class body into definitions and root uses."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.append(Definition(path, node.lineno, prefix + node.name, uses_of(node)))
        elif isinstance(node, ast.ClassDef):
            for header in (*node.bases, *node.keywords, *node.decorator_list):
                roots |= uses_of(header)
            _scan_body(node.body, f"{prefix}{node.name}.", path, defs, roots)
        elif not _is_docstring(node):
            roots |= uses_of(node)


def _python_files(root: Path, subdir: str) -> list[Path]:
    this = Path(__file__).resolve()
    return sorted(p for p in (root / subdir).rglob("*.py") if p.resolve() != this)


def _reach(seeds: set[str], by_name: dict[str, list[Definition]]) -> set[str]:
    """Every name used from *seeds*, following definitions by name."""
    reached = set(seeds)
    frontier = list(seeds)
    while frontier:
        for definition in by_name.get(frontier.pop(), ()):
            fresh = definition.uses - reached
            reached |= fresh
            frontier.extend(fresh)
    return reached


def lint(root: Path = REPO, allowlist: dict[str, str] | None = None) -> list[str]:
    """Violations under *root* (default allowlist: ALLOWLIST)."""
    if allowlist is None:
        allowlist = ALLOWLIST
    definitions: list[Definition] = []
    roots: set[str] = set()
    for subdir in CALLERS:
        for path in _python_files(root, subdir):
            tree = ast.parse(path.read_text(), filename=str(path))
            if path.is_relative_to(root / DEFINITIONS):
                _scan_body(tree.body, "", path, definitions, roots)
            else:
                roots |= uses_of(tree)

    by_name: dict[str, list[Definition]] = {}
    for definition in definitions:
        by_name.setdefault(definition.name, []).append(definition)
    dunders = {name for name in by_name if _is_dunder(name)}
    by_program = _reach(roots | dunders, by_name)
    kept = {qualname.rsplit(".", 1)[-1] for qualname in allowlist}
    by_anyone = _reach(by_program | kept, by_name)

    violations: list[str] = []
    for definition in definitions:
        where = f"{definition.path.relative_to(root)}:{definition.line}"
        if definition.qualname in allowlist:
            if definition.name in by_program:
                violations.append(
                    f"{where}: {definition.qualname} is allowlisted but the "
                    "program reaches it: drop the entry"
                )
        elif definition.name not in by_anyone:
            violations.append(
                f"{where}: {definition.qualname} is reached only from "
                "tests/ (or from nothing)"
            )
    known = {d.qualname for d in definitions}
    for qualname in sorted(set(allowlist) - known):
        violations.append(f"allowlist entry {qualname} names no definition")
    return violations


def main() -> int:
    violations = lint()
    if violations:
        print("reachability lint failed:", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        print(
            "\nDelete a definition that only tests call, or add it to "
            "ALLOWLIST in tools/lint_reachable.py with the reason tests "
            "legitimately need it (fault injection or an invariant probe).",
            file=sys.stderr,
        )
        return 1
    print(f"reachability lint OK: every {DEFINITIONS} definition is reached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
