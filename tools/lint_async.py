"""I/O-path lint: program code does I/O only as requests.

The I/O engine (DESIGN.md §13) runs each fan-out as a deadline round on
the calling thread: it issues every request, sleeps once, then runs
each request's completion — the code after its ``yield``, ending in a
provider's or bucket's locked body — as its deadline passes.  A
completion that sleeps stalls every other request of its round, and a
loop over a sleeping sync entry point pays one latency per destination
instead of one per round; both do so silently: the tests still pass,
only the op gets slower.  This lint walks every module under
``src/repro/`` with the ``ast`` module::

    python tools/lint_async.py

A sleeping call is ``time.sleep(...)``, the engine's ``_sleep(...)``
and any ``._service_delay(...)``.  It fails:

* on any call of the sleeping sync entry points ``get_many``/
  ``put_many``/``delete_many``: program code sends a request instead
  (a bucket's ``get_many``/``put_many`` remain only as names
  ``perf/trace.py`` wraps, and ``delete_many`` is gone);
* on a sleeping call anywhere that is not marked: the marked sync
  entry points (a provider's one-block ``put``/``get``, a bucket's
  ``get_many``/``put_many`` and the version manager's round trip) and
  the round's own wait are the only places that sleep;
* inside an ``async def`` (the providers' and buckets' coroutine twins)
  on ``time.sleep``, the sync vector ops ``get_many``/``put_many``/
  ``peek_many``, ``_service_delay`` and ``.result()``: a coroutine
  must await, never block its loop.

A sleep whose nearest enclosing function is a completion body — a
generator function (a request) or a ``_put_vector``/``_get_vector``/
``_delete_vector`` body — is reported as one.  The escape hatch is
``# asynclint: allow <reason>`` on the call's line.

It also fails on a sleeping call lexically inside a ``with`` whose
context expression is a lock or a condition (a name ending in
``_lock`` or ``_cond``, or a ``Lock()``/``RLock()``/``Condition()``
call), within the same function: a latency slept there serializes
every caller behind it — the version manager's round trip is network
latency, paid before its lock is taken (DESIGN.md §10).  The marker
does not exempt this rule.  Comment and docstring occurrences never
trip the lint — this is an AST walk, not a grep.
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
    "_service_delay": "sync latency sleep blocks the loop (the async "
    "twin awaits asyncio.sleep)",
    "result": "blocking future wait deadlocks the loop completing it",
}

#: The sync entry points that sleep their service delay before their
#: body: program code sends the request instead, one round for every
#: destination.
SLEEPING_ENTRY_POINTS = {"get_many", "put_many", "delete_many"}

#: The locked bodies every request of a provider or a bucket completes in.
VECTOR_BODIES = {"_put_vector", "_get_vector", "_delete_vector"}

SLEEP_LABEL = (
    "sleeps outside the marked sync entry points and the round's own wait"
)
ENTRY_POINT_LABEL = (
    "calls a sleeping sync entry point — send the request instead, so a "
    "round pays one latency for every destination (DESIGN.md §13)"
)
LOCKED_LABEL = (
    "under a lock — every caller waits out its sleep in turn; pay the "
    "latency before taking the lock (no marker exempts this)"
)
#: Constructors whose ``with`` holds a lock.
LOCK_TYPES = {"Lock", "RLock", "Condition"}
COMPLETION_LABEL = (
    "in a completion — it sleeps, stalling every other request of its "
    "round (a request yields its delay; the round waits it out)"
)


def _sleeps(node: ast.Call) -> bool:
    """Whether *node* is a sleeping call."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "_sleep"
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr == "sleep":
        return isinstance(func.value, ast.Name) and func.value.id == "time"
    return func.attr == "_service_delay"


def _holds_lock(expr: ast.expr) -> bool:
    """Whether ``with expr:`` holds a lock or a condition."""
    if isinstance(expr, ast.Call):
        func = expr.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        return name in LOCK_TYPES
    name = expr.attr if isinstance(expr, ast.Attribute) else getattr(expr, "id", "")
    return name.endswith(("_lock", "_cond"))


def _coroutine_diagnose(node: ast.Call) -> str | None:
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


def _is_generator(node: ast.FunctionDef) -> bool:
    """Whether *node* itself yields (a nested function's yield is its own)."""
    stack = list(node.body)
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(child))
    return False


class _Calls(ast.NodeVisitor):
    """Collects sleeping calls, and the stricter hits inside completion
    bodies and coroutines (by the nearest enclosing function)."""

    def __init__(self) -> None:
        self.stack: list[str] = []  # per frame: "async", "completion" or "sync"
        self.locks: list[int] = [0]  # per frame: locks held by enclosing ``with``s
        self.hits: list[tuple[int, str, str]] = []  # (lineno, label, call)

    def _visit_frame(self, node: ast.AST, kind: str) -> None:
        self.stack.append(kind)
        self.locks.append(0)
        self.generic_visit(node)
        self.locks.pop()
        self.stack.pop()

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            self.visit(item)
        held = sum(_holds_lock(item.context_expr) for item in node.items)
        self.locks[-1] += held
        for statement in node.body:
            self.visit(statement)
        self.locks[-1] -= held

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        completion = node.name in VECTOR_BODIES or _is_generator(node)
        self._visit_frame(node, "completion" if completion else "sync")

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_frame(node, "async")

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_frame(node, "sync")

    def visit_Call(self, node: ast.Call) -> None:
        kind = self.stack[-1] if self.stack else "sync"
        label = None
        if kind == "async":
            blocking = _coroutine_diagnose(node)
            if blocking is not None:
                label = f"in a coroutine — {blocking}"
        if label is None and _sleeps(node):
            if self.locks[-1]:
                label = LOCKED_LABEL
            else:
                label = COMPLETION_LABEL if kind == "completion" else SLEEP_LABEL
        if label is None and getattr(node.func, "attr", None) in SLEEPING_ENTRY_POINTS:
            label = ENTRY_POINT_LABEL
        if label is not None:
            self.hits.append((node.lineno, label, ast.unparse(node.func)))
        self.generic_visit(node)


def lint(root: Path = SCOPE) -> list[str]:
    violations: list[str] = []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        finder = _Calls()
        finder.visit(ast.parse(source, filename=str(path)))
        shown = path.relative_to(REPO) if path.is_relative_to(REPO) else path
        for lineno, label, call in finder.hits:
            if ALLOW_MARKER in lines[lineno - 1] and label is not LOCKED_LABEL:
                continue
            violations.append(f"{shown}:{lineno}: {call}() {label}")
    return violations


def main() -> int:
    violations = lint()
    if violations:
        print("I/O-path lint failed (DESIGN.md §13):", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        print(
            "\nA request yields its service delay and the round waits it "
            "out; a coroutine awaits.  A sync entry point's own sleep, or "
            f"the round's wait, is marked '{ALLOW_MARKER} <reason>'; no "
            "sleep may run under a lock.",
            file=sys.stderr,
        )
        return 1
    print(
        f"I/O-path lint OK: nothing sleeps outside the marked places or "
        f"under a lock, and nothing calls a sleeping sync entry point in "
        f"{SCOPE.relative_to(REPO)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
