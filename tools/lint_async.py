"""Async-path lint: forbid blocking calls on the event loop.

The I/O engine (DESIGN.md §13) runs every in-flight block transfer as
a coroutine on ONE event loop, so a single blocking call on the loop
parks the whole store, not one transfer — and it does so silently: the
tests still pass, only the in-flight window collapses to 1.  This lint
walks every module under ``src/repro/`` with the ``ast`` module and
fails on the calls that block the loop::

    python tools/lint_async.py

Forbidden inside an ``async def`` (sync nested ``def``/``lambda``
bodies are fine — they run off-loop or are the sanctioned inline
segment):

* ``time.sleep(...)`` — latency must be ``await asyncio.sleep``;
* the sync vector ops ``get_many``/``put_many`` (a DHT bucket's
  fan-out or a data provider's transfer vector) and ``peek_many`` —
  coroutines await the ``a``-prefixed twins — and a bucket's
  ``delete_many``, which has no twin and runs off the loop;
* ``_service_delay(...)`` — the async twins defer the simulated
  latency, they never sleep it synchronously;
* ``.result(...)`` — a blocking future wait deadlocks the loop that
  is supposed to complete it.

Forbidden anywhere: an engine fan-out with no ``afn=`` keyword —
``*engine.map``, ``*engine.map_settle``, ``*engine.submit_each``,
``_map_io`` or ``_settle`` called with a task callable and items.
Without the coroutine twin the engine runs the blocking ``fn`` on the
loop thread.  Blocking work with no twin goes to ``engine.submit``,
which runs it on a helper thread.

The sanctioned exceptions — the delegation pattern itself (a DHT
bucket's async twin, which has already awaited the latency and calls
its own sync ``get_many``/``put_many`` under ``_defer_delay``), or a
fan-out whose ``fn`` never blocks — are marked ``# asynclint: allow``
with a reason.  A data provider's twins need no marker: they await the
latency and call the provider's private vector body, which never
sleeps.
Comment and docstring occurrences never trip the lint — this is an AST
walk, not a grep.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCOPE = REPO / "src" / "repro"
ALLOW_MARKER = "# asynclint: allow"

#: Method names that park the whole event loop when called from a
#: coroutine, with the await-able replacement the message points at.
BLOCKING_METHODS = {
    "get_many": "sync DHT fan-out or provider vector blocks the loop (await aget_many)",
    "put_many": "sync DHT fan-out or provider vector blocks the loop (await aput_many)",
    "peek_many": "sync DHT fan-out blocks the loop (await the async twin)",
    "delete_many": "sync DHT bucket request blocks the loop (it has no "
    "async twin: run it off the loop)",
    "_service_delay": "sync latency sleep blocks the loop (the async "
    "twin awaits asyncio.sleep and defers the sync one)",
    "result": "blocking future wait deadlocks the loop completing it",
}

#: Engine fan-out methods, checked when the receiver's name ends in
#: ``engine`` (``self.io_engine.map``, ``engine.submit_each``).
ENGINE_FANOUTS = {"map", "map_settle", "submit_each"}
#: The store's and the DHT's wrappers around them.
FANOUT_WRAPPERS = {"_map_io", "_settle"}
FANOUT_LABEL = (
    "without afn= — an engine fan-out runs its blocking fn on the event "
    "loop (pass the coroutine twin, or engine.submit the work to a helper "
    "thread)"
)


def _diagnose(node: ast.Call) -> str | None:
    """The violation message for *node* inside a coroutine, or None."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    if (
        func.attr == "sleep"
        and isinstance(func.value, ast.Name)
        and func.value.id == "time"
    ):
        return "time.sleep blocks the loop (use await asyncio.sleep)"
    return BLOCKING_METHODS.get(func.attr)


def _fanout_diagnose(node: ast.Call) -> str | None:
    """The violation message for an engine fan-out — a call handing a
    task callable and items to the engine — with no coroutine twin."""
    func = node.func
    if not isinstance(func, ast.Attribute) or len(node.args) < 2:
        return None  # a bare self._settle() is no fan-out
    if func.attr in ENGINE_FANOUTS:
        receiver = getattr(func.value, "attr", getattr(func.value, "id", ""))
        if not receiver.endswith("engine"):
            return None
    elif func.attr not in FANOUT_WRAPPERS:
        return None
    for keyword in node.keywords:
        if keyword.arg == "afn" and not (
            isinstance(keyword.value, ast.Constant) and keyword.value.value is None
        ):
            return None
    return FANOUT_LABEL


class _CoroutineCalls(ast.NodeVisitor):
    """Collects blocking calls whose nearest enclosing function is async,
    and engine fan-outs with no coroutine twin wherever they are."""

    def __init__(self) -> None:
        self.stack: list[bool] = []  # True = async frame
        self.hits: list[tuple[int, str, str]] = []  # (lineno, label, attr)

    def _visit_frame(self, node: ast.AST, is_async: bool) -> None:
        self.stack.append(is_async)
        self.generic_visit(node)
        self.stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_frame(node, is_async=False)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_frame(node, is_async=True)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_frame(node, is_async=False)

    def visit_Call(self, node: ast.Call) -> None:
        label = _fanout_diagnose(node)
        if label is None and self.stack and self.stack[-1]:
            blocking = _diagnose(node)
            if blocking is not None:
                label = f"in a coroutine — {blocking}"
        if label is not None:
            self.hits.append((node.lineno, label, ast.unparse(node.func)))
        self.generic_visit(node)


def lint(root: Path = SCOPE) -> list[str]:
    violations: list[str] = []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        finder = _CoroutineCalls()
        finder.visit(ast.parse(source, filename=str(path)))
        shown = path.relative_to(REPO) if path.is_relative_to(REPO) else path
        for lineno, label, call in finder.hits:
            if ALLOW_MARKER in lines[lineno - 1]:
                continue
            violations.append(f"{shown}:{lineno}: {call}() {label}")
    return violations


def main() -> int:
    violations = lint()
    if violations:
        print("async-path lint failed (DESIGN.md §13):", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        print(
            "\nAwait (or pass afn=) the async twin instead, or — for a "
            "bucket's sync delegation under _defer_delay, or a fan-out "
            f"that never blocks — mark the line '{ALLOW_MARKER} <reason>'.",
            file=sys.stderr,
        )
        return 1
    print(
        f"async-path lint OK: no blocking calls on the event loop in "
        f"{SCOPE.relative_to(REPO)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
