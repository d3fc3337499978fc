"""Reachability lint: no ``src/`` definition or config field that only
tests reach.

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
  (``getattr``/``setattr`` by name).  Imports, ``__all__`` entries,
  docstrings and the string arguments of ``.decode``/``.encode`` (codec
  and error-handler names such as ``"replace"``) are not uses, so a
  package re-export reaches nothing.
* Dunder methods are always reached: Python calls them implicitly.

:data:`ALLOWLIST` names the definitions tests legitimately need — the
fault-injection hooks the chaos suites drive and the invariant probes
they read — one reason per entry.  An entry's name counts as reached,
and so does everything its definitions use.  An entry that no longer
names a definition, or names one the program reaches anyway, is itself
a violation, so the list cannot go stale.

The same scan holds options to the same rule.  A defaulted field of a
``@dataclass`` under ``src/repro/`` (not underscored, not a
``ClassVar``, not a ``default_factory``) is a setting, and a setting
only tests change is an option no figure, benchmark or example uses:
one value in use is a constant.  Program code must set the field to
something other than its literal default, by any of

* a keyword argument of its name (``StoreConfig(io_workers=4)``);
* a positional argument of a call to its class that reaches it;
* an attribute assignment of its name (``self.name = ...``);
* an identifier-shaped string of its name (a dict key later splatted,
  as ``ScrubReport(**counters)``).

A ``**`` splat alone sets nothing, or ``make_config(**fields)`` would
hide every field.  :data:`FIELD_ALLOWLIST` keeps the fields no program
changes, one reason per entry; an entry naming a class keeps only its
``int`` and ``float`` fields (calibrated constants), so a ``bool`` or
``Optional`` switch is always checked.  Stale entries fail here too.
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
    "throttled (the simulated BlobSeer's publication-order rate-cap "
    "cases and the simulated Hadoop's heterogeneous-cluster scan)",
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

#: Dataclass fields kept although no program code sets them to anything
#: but their default, keyed by ``Class.field``, or by ``Class`` for a
#: class of calibrated constants (its ``int`` and ``float`` fields only).
FIELD_ALLOWLIST = {
    "Calibration": "calibrated service times and sizes of the simulated "
    "platform: one value each, named where the figures' model is tuned",
    "JobProfile": "calibrated Hadoop 0.20 framework times and budgets",
    "DiskSpec": "calibrated disk model of the simulated platform",
    "StoreConfig.io_scheduler": "perf/workloads.py passes it; it leaves "
    "with ROADMAP item 8",
}


#: A default or setter value that is not a literal.
_UNKNOWN = object()


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


#: Methods whose string arguments name codecs and error handlers
#: (``b.decode("utf-8", "replace")``), never a definition.
_CODEC_CALLS = ("decode", "encode")


def _codec_strings(node: ast.AST) -> list[ast.AST]:
    """The string arguments of a ``.decode(...)``/``.encode(...)`` call."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _CODEC_CALLS
    ):
        return []
    return [
        arg
        for arg in (*node.args, *(keyword.value for keyword in node.keywords))
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    ]


def _code(node: ast.AST):
    """*node* and what it contains; imports, ``__all__``, docstrings and
    codec names excluded."""
    stack = [node]
    codec_names: set[int] = set()
    while stack:
        current = stack.pop()
        if (
            isinstance(current, (ast.Import, ast.ImportFrom))
            or _is_all(current)
            or id(current) in codec_names
        ):
            continue
        yield current
        codec_names.update(id(arg) for arg in _codec_strings(current))
        for child in ast.iter_child_nodes(current):
            if not _is_docstring(child):
                stack.append(child)


def _identifier(node: ast.AST) -> str | None:
    """The text of an identifier-shaped string constant."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value.isidentifier():
            return node.value
    return None


def uses_of(node: ast.AST) -> set[str]:
    """Names *node* uses; imports, ``__all__`` and docstrings excluded."""
    found: set[str] = set()
    for current in _code(node):
        if isinstance(current, ast.Name):
            found.add(current.id)
        elif isinstance(current, ast.Attribute):
            found.add(current.attr)
        elif (text := _identifier(current)) is not None:
            found.add(text)
    return found


@dataclass
class Setting:
    """A defaulted dataclass field: a setting of its class."""

    path: Path
    line: int
    owner: str
    name: str
    #: Index among the class's fields, for positional construction.
    position: int
    #: The literal default, or ``_UNKNOWN``.
    default: object
    numeric: bool

    @property
    def qualname(self) -> str:
        return f"{self.owner}.{self.name}"


def _named(node: ast.AST, name: str) -> bool:
    """*node* is ``name`` or ``<anything>.name``."""
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def _literal(node: ast.expr) -> object:
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError):
        return _UNKNOWN


def _is_classvar(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return _named(annotation, "ClassVar")


def settings_of(tree: ast.Module, path: Path) -> list[Setting]:
    """The defaulted fields of every ``@dataclass`` in *tree*."""
    found: list[Setting] = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or not any(
            _named(d.func if isinstance(d, ast.Call) else d, "dataclass")
            for d in cls.decorator_list
        ):
            continue
        fields = [
            stmt
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and not _is_classvar(stmt.annotation)
        ]
        for position, stmt in enumerate(fields):
            default = stmt.value
            if isinstance(default, ast.Call) and _named(default.func, "field"):
                # ``field(default_factory=...)`` has no default to keep.
                default = {kw.arg: kw.value for kw in default.keywords}.get("default")
            if default is None or stmt.target.id.startswith("_"):
                continue
            found.append(
                Setting(
                    path,
                    stmt.lineno,
                    cls.name,
                    stmt.target.id,
                    position,
                    _literal(default),
                    _named(stmt.annotation, "int") or _named(stmt.annotation, "float"),
                )
            )
    return found


def record_setters(
    tree: ast.AST,
    named_values: dict[str, list[ast.expr | None]],
    call_args: dict[str, list[list[ast.expr]]],
) -> None:
    """Record each value *tree* gives a name (``None``: not known).

    Keyword arguments, attribute assignments and identifier strings go
    to *named_values*; the positional arguments of a call go to
    *call_args* under the called name.
    """
    for node in _code(tree):
        if isinstance(node, ast.keyword) and node.arg is not None:
            named_values.setdefault(node.arg, []).append(node.value)
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if callee is not None:
                call_args.setdefault(callee, []).append(node.args)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and node.value:
            value = None if isinstance(node, ast.AugAssign) else node.value
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute):
                    named_values.setdefault(target.attr, []).append(value)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for element in target.elts:
                        if isinstance(element, ast.Attribute):
                            named_values.setdefault(element.attr, []).append(None)
        elif (text := _identifier(node)) is not None:
            named_values.setdefault(text, []).append(None)


def _changed(
    setting: Setting,
    named_values: dict[str, list[ast.expr | None]],
    call_args: dict[str, list[list[ast.expr]]],
) -> bool:
    """Program code gives *setting* a value other than its default."""
    values = list(named_values.get(setting.name, ()))
    for args in call_args.get(setting.owner, ()):
        for index, arg in enumerate(args):
            if isinstance(arg, ast.Starred):  # reaches every later field
                values.append(None)
                break
            if index == setting.position:
                values.append(arg)
                break
    for value in values:
        literal = _UNKNOWN if value is None else _literal(value)
        if literal is _UNKNOWN or setting.default is _UNKNOWN:
            return True
        if literal != setting.default:
            return True
    return False


def field_violations(
    root: Path,
    settings: list[Setting],
    named_values: dict[str, list[ast.expr | None]],
    call_args: dict[str, list[list[ast.expr]]],
    allowlist: dict[str, str],
) -> list[str]:
    """The field rule's violations, stale *allowlist* entries included."""
    violations: list[str] = []
    kept_classes: set[str] = set()
    for setting in settings:
        where = f"{setting.path.relative_to(root)}:{setting.line}"
        changed = _changed(setting, named_values, call_args)
        if setting.qualname in allowlist:
            if changed:
                violations.append(
                    f"{where}: {setting.qualname} is allowlisted but the "
                    "program sets it: drop the entry"
                )
        elif changed:
            continue
        elif setting.numeric and setting.owner in allowlist:
            kept_classes.add(setting.owner)
        else:
            violations.append(
                f"{where}: {setting.qualname} is set by no program code to "
                "anything but its default"
            )
    known = {setting.qualname for setting in settings}
    for entry in sorted(allowlist):
        if "." in entry and entry not in known:
            violations.append(
                f"field allowlist entry {entry} names no defaulted dataclass field"
            )
        elif "." not in entry and entry not in kept_classes:
            violations.append(
                f"field allowlist entry {entry} keeps no int or float field "
                "the program leaves at its default"
            )
    return violations


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


def lint(
    root: Path = REPO,
    allowlist: dict[str, str] | None = None,
    field_allowlist: dict[str, str] | None = None,
) -> list[str]:
    """Violations under *root* (default allowlists: ALLOWLIST and
    FIELD_ALLOWLIST)."""
    if allowlist is None:
        allowlist = ALLOWLIST
    if field_allowlist is None:
        field_allowlist = FIELD_ALLOWLIST
    definitions: list[Definition] = []
    roots: set[str] = set()
    settings: list[Setting] = []
    named_values: dict[str, list[ast.expr | None]] = {}
    call_args: dict[str, list[list[ast.expr]]] = {}
    for subdir in CALLERS:
        for path in _python_files(root, subdir):
            tree = ast.parse(path.read_text(), filename=str(path))
            record_setters(tree, named_values, call_args)
            if path.is_relative_to(root / DEFINITIONS):
                _scan_body(tree.body, "", path, definitions, roots)
                settings += settings_of(tree, path)
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
    return violations + field_violations(
        root, settings, named_values, call_args, field_allowlist
    )


def main() -> int:
    violations = lint()
    if violations:
        print("reachability lint failed:", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        print(
            "\nDelete a definition that only tests call, or add it to "
            "ALLOWLIST in tools/lint_reachable.py with the reason tests "
            "legitimately need it (fault injection or an invariant probe).  "
            "Make a field no program sets a constant, or add it to "
            "FIELD_ALLOWLIST with the reason it stays.",
            file=sys.stderr,
        )
        return 1
    print(
        f"reachability lint OK: every {DEFINITIONS} definition is reached "
        "and every config field is set"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
