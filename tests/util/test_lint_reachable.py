"""The reachability lint must actually lint (tools/lint_reachable.py).

Pins the contract of the CI step that keeps test-only code out of
``src/repro``: the real tree is clean, a definition only ``tests/``
calls fails, one reached from the program (directly or through another
reached definition) does not, and an allowlist entry passes only while
it is needed.
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
    violations = lint_reachable.lint(make_tree(tmp_path), allowlist={})
    assert len(violations) == 2
    assert "src/repro/mod.py:14: only_tests" in violations[0]
    assert "src/repro/mod.py:22: Service.probe" in violations[1]
    assert all("reached only from tests/" in v for v in violations)


def test_use_from_a_reached_definition_counts(tmp_path):
    # ``helper`` is called only by ``entry``, which an example calls.
    violations = lint_reachable.lint(make_tree(tmp_path), allowlist={})
    assert not any("helper" in v or "entry" in v for v in violations)
    # With nothing calling ``entry``, both fall together.
    unused = lint_reachable.lint(make_tree(tmp_path, example="x = 1\n"), allowlist={})
    assert any(": entry " in v for v in unused)
    assert any(": helper " in v for v in unused)


def test_allowlisted_name_passes(tmp_path):
    tree = make_tree(tmp_path)
    allowlist = {"only_tests": "probe", "Service.probe": "probe"}
    assert lint_reachable.lint(tree, allowlist=allowlist) == []


def test_stale_allowlist_entries_are_caught(tmp_path):
    tree = make_tree(tmp_path)
    allowlist = {
        "only_tests": "probe",
        "Service.probe": "probe",
        "entry": "the example reaches it",
        "gone": "names nothing",
    }
    violations = lint_reachable.lint(tree, allowlist=allowlist)
    assert len(violations) == 2
    assert "entry is allowlisted but the program reaches it" in violations[0]
    assert "allowlist entry gone names no definition" in violations[1]


def test_docstring_mention_is_not_a_use(tmp_path):
    example = (
        '"""Call only_tests() and Service.probe by hand."""\n'
        "from repro.mod import entry\nentry()\n"
    )
    violations = lint_reachable.lint(make_tree(tmp_path, example=example), allowlist={})
    assert len(violations) == 2


def test_getattr_by_name_counts_as_a_use(tmp_path):
    example = (
        "from repro.mod import Service, entry, only_tests\n"
        "entry()\ngetattr(Service(), 'probe')()\nonly_tests()\n"
    )
    assert lint_reachable.lint(make_tree(tmp_path, example=example), allowlist={}) == []


def test_dunder_methods_are_always_reached(tmp_path):
    # ``Service.__init__`` is never called by name anywhere.
    violations = lint_reachable.lint(make_tree(tmp_path), allowlist={})
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
    assert lint_reachable.lint(tree, allowlist={}) == []


def test_module_body_of_src_is_a_root(tmp_path):
    module = MODULE + "\n_DEFAULT = only_tests()\n"
    violations = lint_reachable.lint(make_tree(tmp_path, module=module), allowlist={})
    assert [v for v in violations if "only_tests" in v] == []


def test_allowlisted_definition_reaches_what_it_uses(tmp_path):
    # ``helper`` is called only by ``only_tests``; allowlisting the
    # caller keeps the callee too, even with nothing calling ``entry``.
    module = MODULE.replace("return 2", "return helper() + 1")
    tree = make_tree(tmp_path, module=module, example="x = 1\n")
    violations = lint_reachable.lint(
        tree, allowlist={"only_tests": "probe", "Service.probe": "probe"}
    )
    assert len(violations) == 1 and ": entry " in violations[0]


def test_every_allowlist_entry_gives_a_reason():
    entries = lint_reachable.ALLOWLIST
    assert all(isinstance(r, str) and r.strip() for r in entries.values())


def test_main_exits_zero_on_the_real_tree(capsys):
    assert lint_reachable.main() == 0
    assert "reachability lint OK" in capsys.readouterr().out
