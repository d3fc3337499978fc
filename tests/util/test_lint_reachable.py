"""The reachability lint must actually lint (tools/lint_reachable.py).

Pins the contract of the CI step that keeps test-only code out of
``src/repro``: the real tree is clean, a definition only ``tests/``
calls fails, one reached from the program (directly or through another
reached definition) does not, and an allowlist entry passes only while
it is needed.  The field rule likewise: a dataclass field no program
code sets to anything but its default fails unless an entry keeps it,
and a class entry keeps only its ``int`` and ``float`` fields.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "lint_reachable.py"
spec = importlib.util.spec_from_file_location("lint_reachable", TOOL)
lint_reachable = importlib.util.module_from_spec(spec)
sys.modules["lint_reachable"] = lint_reachable
spec.loader.exec_module(lint_reachable)

MODULE = '''\
"""A module."""

__all__ = ["entry", "helper", "only_tests"]


def entry():
    return helper()


def helper():
    return 1


def only_tests():
    return 2


class Service:
    def __init__(self):
        self.state = 0

    def probe(self):
        return self.state
'''


def function_violations(tree, allowlist):
    """The function rule's violations alone: no field entries."""
    return lint_reachable.lint(tree, allowlist=allowlist, field_allowlist={})


def make_tree(tmp_path, module=MODULE, example="from repro.mod import entry\nentry()\n"):
    for name, text in {
        "src/repro/__init__.py": "from repro.mod import entry, helper, only_tests\n",
        "src/repro/mod.py": module,
        "examples/demo.py": example,
        "tests/test_mod.py": "from repro.mod import Service, only_tests\n"
        "only_tests()\nService().probe()\n",
    }.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


def test_real_tree_is_clean():
    assert lint_reachable.lint() == []


def test_test_only_definition_is_caught(tmp_path):
    # ``only_tests`` is re-exported by the package and listed in
    # ``__all__``; neither counts as a use.
    violations = function_violations(make_tree(tmp_path), allowlist={})
    assert len(violations) == 2
    assert "src/repro/mod.py:14: only_tests" in violations[0]
    assert "src/repro/mod.py:22: Service.probe" in violations[1]
    assert all("reached only from tests/" in v for v in violations)


def test_use_from_a_reached_definition_counts(tmp_path):
    # ``helper`` is called only by ``entry``, which an example calls.
    violations = function_violations(make_tree(tmp_path), allowlist={})
    assert not any("helper" in v or "entry" in v for v in violations)
    # With nothing calling ``entry``, both fall together.
    unused = function_violations(make_tree(tmp_path, example="x = 1\n"), allowlist={})
    assert any(": entry " in v for v in unused)
    assert any(": helper " in v for v in unused)


def test_allowlisted_name_passes(tmp_path):
    tree = make_tree(tmp_path)
    allowlist = {"only_tests": "probe", "Service.probe": "probe"}
    assert function_violations(tree, allowlist=allowlist) == []


def test_stale_allowlist_entries_are_caught(tmp_path):
    tree = make_tree(tmp_path)
    allowlist = {
        "only_tests": "probe",
        "Service.probe": "probe",
        "entry": "the example reaches it",
        "gone": "names nothing",
    }
    violations = function_violations(tree, allowlist=allowlist)
    assert len(violations) == 2
    assert "entry is allowlisted but the program reaches it" in violations[0]
    assert "allowlist entry gone names no definition" in violations[1]


def test_docstring_mention_is_not_a_use(tmp_path):
    example = (
        '"""Call only_tests() and Service.probe by hand."""\n'
        "from repro.mod import entry\nentry()\n"
    )
    violations = function_violations(make_tree(tmp_path, example=example), allowlist={})
    assert len(violations) == 2


def test_getattr_by_name_counts_as_a_use(tmp_path):
    example = (
        "from repro.mod import Service, entry, only_tests\n"
        "entry()\ngetattr(Service(), 'probe')()\nonly_tests()\n"
    )
    assert function_violations(make_tree(tmp_path, example=example), allowlist={}) == []


@pytest.mark.parametrize(
    "call",
    ['raw.decode("utf-8", "replace")', 'text.encode("ascii", errors="replace")'],
    ids=["decode", "encode-keyword"],
)
def test_codec_names_are_not_uses(tmp_path, call):
    # ``Service.replace`` shares its name with the error handler only.
    module = MODULE + "\n    def replace(self):\n        return self.state\n"
    example = f"from repro.mod import entry\nentry()\n{call}\n"
    violations = function_violations(
        make_tree(tmp_path, module=module, example=example), allowlist={}
    )
    assert any(": Service.replace " in v for v in violations)


def test_dunder_methods_are_always_reached(tmp_path):
    # ``Service.__init__`` is never called by name anywhere.
    violations = function_violations(make_tree(tmp_path), allowlist={})
    assert not any("__init__" in v for v in violations)


@pytest.mark.parametrize("caller", ["perf", "tools", "src/repro"])
def test_every_program_directory_is_a_caller(tmp_path, caller):
    tree = make_tree(tmp_path)
    runner = tmp_path / caller / "runner.py"
    runner.parent.mkdir(parents=True, exist_ok=True)
    runner.write_text(
        "from repro.mod import Service, only_tests\n"
        "only_tests()\nService().probe()\n"
    )
    assert function_violations(tree, allowlist={}) == []


def test_module_body_of_src_is_a_root(tmp_path):
    module = MODULE + "\n_DEFAULT = only_tests()\n"
    violations = function_violations(make_tree(tmp_path, module=module), allowlist={})
    assert [v for v in violations if "only_tests" in v] == []


def test_allowlisted_definition_reaches_what_it_uses(tmp_path):
    # ``helper`` is called only by ``only_tests``; allowlisting the
    # caller keeps the callee too, even with nothing calling ``entry``.
    module = MODULE.replace("return 2", "return helper() + 1")
    tree = make_tree(tmp_path, module=module, example="x = 1\n")
    violations = function_violations(
        tree, allowlist={"only_tests": "probe", "Service.probe": "probe"}
    )
    assert len(violations) == 1 and ": entry " in violations[0]


def test_every_allowlist_entry_gives_a_reason():
    entries = lint_reachable.ALLOWLIST
    assert all(isinstance(r, str) and r.strip() for r in entries.values())


def test_main_exits_zero_on_the_real_tree(capsys):
    assert lint_reachable.main() == 0
    assert "reachability lint OK" in capsys.readouterr().out


# -- the field rule ---------------------------------------------------------------

KNOBS = """\
from dataclasses import dataclass, field
from typing import ClassVar, Optional


@dataclass
class Knobs:
    required: int
    size: int = 4
    rate: float = 1.0
    mode: str = "fast"
    switch: bool = False
    limit: Optional[int] = None
    _private: int = 0
    table: dict = field(default_factory=dict)
    KIND: ClassVar[str] = "knobs"
"""

#: A program that sets every setting of ``Knobs`` by keyword.
EVERY = {"size": "8", "rate": "2.0", "mode": "'slow'", "switch": "True", "limit": "3"}


def knobs_program(**overrides):
    """``Knobs(...)`` setting each field of EVERY, as overridden; an
    override of ``None`` leaves that field out."""
    fields = {**EVERY, **overrides}
    given = ", ".join(f"{k}={v}" for k, v in fields.items() if v is not None)
    return f"from repro.knobs import Knobs\nKnobs(required=1, {given})\n"


def field_violations(tmp_path, program, tests="", field_allowlist=None):
    for name, text in {
        "src/repro/__init__.py": "",
        "src/repro/knobs.py": KNOBS,
        "examples/demo.py": program,
        "tests/test_knobs.py": "from repro.knobs import Knobs\n" + tests,
    }.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return lint_reachable.lint(tmp_path, allowlist={}, field_allowlist=field_allowlist or {})


def test_every_field_set_by_the_program_passes(tmp_path):
    # Underscored, default_factory, ClassVar and required fields are no
    # settings, so nothing need set them.
    assert field_violations(tmp_path, knobs_program()) == []


def test_field_only_tests_set_fails(tmp_path):
    violations = field_violations(
        tmp_path, knobs_program(switch=None), tests="Knobs(1, switch=True)\n"
    )
    assert violations == [
        "src/repro/knobs.py:11: Knobs.switch is set by no program code to "
        "anything but its default"
    ]


@pytest.mark.parametrize(("name", "default"), [("switch", "False"), ("limit", "None"), ("size", "4")])
def test_field_set_only_to_its_literal_default_fails(tmp_path, name, default):
    violations = field_violations(tmp_path, knobs_program(**{name: default}))
    assert len(violations) == 1 and f"Knobs.{name} is set by no program" in violations[0]


@pytest.mark.parametrize(
    "setter",
    [
        "Knobs(1, size=8)",
        "Knobs(1, 8)",
        "Knobs(*values)",
        "knobs.size = 8",
        "knobs.size, other = 8, 9",
        "knobs.size += 1",
        "fields = {'size': 8}\nKnobs(1, **fields)",
    ],
    ids=["keyword", "positional", "starred", "attribute", "unpacked", "augmented", "string-key"],
)
def test_each_way_of_setting_a_field_counts(tmp_path, setter):
    program = knobs_program(size=None) + setter + "\n"
    assert field_violations(tmp_path, program) == []


@pytest.mark.parametrize(
    "setter",
    ["Knobs(1)", "Knobs(1, **dict(zip(names, values)))", "knobs.size[0] = 8"],
    ids=["positional-short", "bare-splat", "item-of-attribute"],
)
def test_what_does_not_reach_a_field_does_not_set_it(tmp_path, setter):
    # A ``**`` splat names no field: exempting it would hide them all.
    program = knobs_program(size=None) + setter + "\n"
    violations = field_violations(tmp_path, program)
    assert len(violations) == 1 and "Knobs.size is set by no program" in violations[0]


def test_allowlisted_field_passes(tmp_path):
    program = knobs_program(switch=None, mode=None)
    allowlist = {"Knobs.switch": "a switch", "Knobs.mode": "a mode"}
    assert field_violations(tmp_path, program, field_allowlist=allowlist) == []


def test_class_entry_keeps_its_numeric_fields(tmp_path):
    program = knobs_program(size=None, rate=None)
    assert field_violations(tmp_path, program, field_allowlist={"Knobs": "calibrated"}) == []


def test_class_entry_does_not_keep_a_bool_or_optional_field(tmp_path):
    program = knobs_program(size=None, switch=None, limit=None)
    violations = field_violations(tmp_path, program, field_allowlist={"Knobs": "calibrated"})
    assert [v.split(": ")[1].split()[0] for v in violations] == ["Knobs.switch", "Knobs.limit"]


def test_stale_field_entries_fail(tmp_path):
    allowlist = {"Knobs.gone": "names nothing", "Knobs.size": "set anyway", "Knobs": "keeps nothing"}
    violations = field_violations(tmp_path, knobs_program(), field_allowlist=allowlist)
    assert violations == [
        "src/repro/knobs.py:8: Knobs.size is allowlisted but the program sets it: drop the entry",
        "field allowlist entry Knobs keeps no int or float field the program leaves at its default",
        "field allowlist entry Knobs.gone names no defaulted dataclass field",
    ]


def test_every_field_allowlist_entry_gives_a_reason():
    entries = lint_reachable.FIELD_ALLOWLIST
    assert all(isinstance(r, str) and r.strip() for r in entries.values())
