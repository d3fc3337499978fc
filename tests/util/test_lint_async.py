"""The async-path lint must actually lint (tools/lint_async.py).

Pins the contract of the CI step guarding DESIGN.md §13: a blocking
``time.sleep``, sync DHT fan-out, ``_service_delay``, or ``.result()``
inside an ``async def`` under ``src/repro/`` fails; the same call in a
sync function, a nested sync ``def``, a comment, or a docstring does
not; an engine fan-out with no ``afn=`` fails anywhere; the
``# asynclint: allow`` escape hatch works; and the real tree is
currently clean.
"""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "lint_async.py"
spec = importlib.util.spec_from_file_location("lint_async", TOOL)
lint_async = importlib.util.module_from_spec(spec)
sys.modules["lint_async"] = lint_async
spec.loader.exec_module(lint_async)


def write(tmp_path, name, text):
    (tmp_path / name).write_text(text)
    return tmp_path


def test_real_tree_is_clean():
    assert lint_async.lint() == []


def test_time_sleep_in_a_coroutine_is_caught(tmp_path):
    write(
        tmp_path,
        "engine.py",
        "import time\n"
        "async def fetch(block):\n"
        "    time.sleep(0.01)\n"
        "    return block\n",
    )
    violations = lint_async.lint(tmp_path)
    assert len(violations) == 1
    assert "engine.py:3" in violations[0]
    assert "time.sleep" in violations[0]
    assert "asyncio.sleep" in violations[0]


def test_sync_dht_fanout_and_result_are_caught(tmp_path):
    write(
        tmp_path,
        "store.py",
        "async def publish(bucket, items, future):\n"
        "    bucket.put_many(items)\n"
        "    bucket.get_many([1])\n"
        "    bucket._service_delay()\n"
        "    future.result()\n",
    )
    violations = lint_async.lint(tmp_path)
    assert len(violations) == 4
    assert "aput_many" in violations[0]
    assert "aget_many" in violations[1]


def test_bucket_delete_many_in_a_coroutine_is_caught(tmp_path):
    # A GC-style sweep request has no async twin: from a coroutine it
    # parks the loop for the bucket's service delay.
    write(
        tmp_path,
        "gc.py",
        "async def sweep(bucket, doomed):\n"
        "    bucket.delete_many(doomed)\n",
    )
    violations = lint_async.lint(tmp_path)
    assert len(violations) == 1
    assert "gc.py:2" in violations[0]
    assert "delete_many" in violations[0]


def test_sync_functions_are_not_linted(tmp_path):
    write(
        tmp_path,
        "store.py",
        "import time\n"
        "def blocking_is_fine_here(bucket, future):\n"
        "    time.sleep(0.01)\n"
        "    bucket.get_many([1])\n"
        "    return future.result()\n",
    )
    assert lint_async.lint(tmp_path) == []


def test_nested_sync_def_inside_a_coroutine_is_exempt(tmp_path):
    # The engine's sanctioned shape: the coroutine builds a sync
    # closure (run off-loop or as the inline segment) — only calls
    # whose NEAREST enclosing function is async can park the loop.
    write(
        tmp_path,
        "engine.py",
        "import time\n"
        "async def outer(bucket):\n"
        "    def helper():\n"
        "        time.sleep(0.01)\n"
        "        return bucket.get_many([1])\n"
        "    return helper\n",
    )
    assert lint_async.lint(tmp_path) == []


def test_allow_marker_is_the_escape_hatch(tmp_path):
    write(
        tmp_path,
        "store.py",
        "async def aget_many(self, keys):\n"
        "    return self.get_many(keys)  # asynclint: allow delegation\n",
    )
    assert lint_async.lint(tmp_path) == []


def test_provider_vector_twins(tmp_path):
    # A data provider's transfer vectors block like a bucket's fan-out:
    # a coroutine sending one through the sync op is caught, and the
    # message names provider vectors; the provider's own delegating
    # twin passes only with the marker.
    write(
        tmp_path,
        "scatter.py",
        "async def send(provider, items, landed):\n"
        "    provider.put_many(items, landed)\n"
        "    return provider.get_many([1])\n",
    )
    write(
        tmp_path,
        "data_provider.py",
        "class DataProviderCore:\n"
        "    async def aput_many(self, items, landed=None):\n"
        "        with self._delay_paid():\n"
        "            self.put_many(items, landed)  # asynclint: allow delegation\n"
        "    async def aget_many(self, block_ids):\n"
        "        with self._delay_paid():\n"
        "            return self.get_many(block_ids)\n",
    )
    violations = lint_async.lint(tmp_path)
    assert len(violations) == 3
    assert all("provider vector" in v for v in violations)
    assert "data_provider.py:7" in violations[0]
    assert "scatter.py:2" in violations[1] and "aput_many" in violations[1]
    assert "scatter.py:3" in violations[2] and "aget_many" in violations[2]


def test_engine_fanout_without_afn_is_caught_in_sync_code(tmp_path):
    # Without the coroutine twin the engine runs the blocking fn on its
    # loop thread, so the rule applies outside coroutines too.
    write(
        tmp_path,
        "planner.py",
        "def plan(self, store, engine, fn, items):\n"
        "    engine.map(fn, items)\n"
        "    self.io_engine.map_settle(fn, items, dest=None)\n"
        "    store.io_engine.submit_each(fn, items, afn=None)\n"
        "    store._map_io(fn, items)\n"
        "    self._settle(fn, items)\n",
    )
    violations = lint_async.lint(tmp_path)
    assert [v.split(":")[1] for v in violations] == ["2", "3", "4", "5", "6"]
    assert all("without afn=" in v and "event loop" in v for v in violations)


def test_engine_fanout_with_afn_or_marker_is_allowed(tmp_path):
    write(
        tmp_path,
        "planner.py",
        "def plan(self, store, engine, pool, fn, afn, items):\n"
        "    engine.map(fn, items, afn=afn)\n"
        "    store._map_io(fn, items, afn=afn, dest=lambda i: i)\n"
        "    self._settle(fn, items)  # asynclint: allow fn never blocks\n"
        "    pool.map(fn, items)\n"
        "    self._settle()\n"
        "    engine.submit(fn, items)\n",
    )
    assert lint_async.lint(tmp_path) == []


def test_comments_and_docstrings_never_trip_the_ast_walk(tmp_path):
    write(
        tmp_path,
        "store.py",
        "async def fetch(block):\n"
        '    """Never call time.sleep(0.1) or bucket.get_many(keys)."""\n'
        "    # time.sleep(0.1) would block the loop\n"
        "    return block\n",
    )
    assert lint_async.lint(tmp_path) == []


def test_subdirectories_are_walked(tmp_path):
    (tmp_path / "dht").mkdir()
    write(
        tmp_path / "dht",
        "store.py",
        "async def f(b):\n    b.peek_many([1])\n",
    )
    violations = lint_async.lint(tmp_path)
    assert len(violations) == 1
    assert "store.py:2" in violations[0]
