"""The I/O-path lint must actually lint (tools/lint_async.py).

Pins the contract of the CI step guarding DESIGN.md §13: a completion
body — a request generator or a ``_put_vector``/``_get_vector`` body —
that sleeps or calls a sleeping sync entry point fails, and so does a
sleep anywhere that is not marked (the sync entry points and the
round's own wait are); a blocking ``time.sleep``, sync DHT fan-out,
``_service_delay``, or ``.result()`` inside an ``async def`` under
``src/repro/`` fails, and the same non-sleeping call in a sync
function, a nested sync ``def``, a comment, or a docstring does not;
the ``# asynclint: allow`` escape hatch works; and the real tree is
currently clean, and fails once a sleeping completion is planted in it.
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
        "def blocking_is_fine_here(bucket, future):\n"
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
        "async def outer(bucket, future):\n"
        "    def helper():\n"
        "        future.result()\n"
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


def test_unmarked_sleep_anywhere_is_caught(tmp_path):
    # Only the sync entry points and the round's own wait may sleep,
    # and they are marked: an unmarked sleep fails in plain sync code.
    write(
        tmp_path,
        "planner.py",
        "import time\n"
        "def plan(self, provider, delay):\n"
        "    time.sleep(delay)\n"
        "    _sleep(delay)\n"
        "    provider._service_delay()\n",
    )
    violations = lint_async.lint(tmp_path)
    assert [v.split(":")[1] for v in violations] == ["3", "4", "5"]
    assert all("sleeps outside the marked" in v for v in violations)


def test_marked_entry_points_and_the_round_wait_pass(tmp_path):
    write(
        tmp_path,
        "data_provider.py",
        "import time\n"
        "class DataProviderCore:\n"
        "    def _service_delay(self):\n"
        "        time.sleep(self.latency)  # asynclint: allow sync entry point\n"
        "    def put_many(self, items, landed=None):\n"
        "        self._service_delay()  # asynclint: allow sync entry point\n"
        "        self._put_vector(items, landed)\n"
        "def complete_due(due, now):\n"
        "    _sleep(due - now)  # asynclint: allow the round's one wait\n",
    )
    assert lint_async.lint(tmp_path) == []


def test_a_sleeping_request_generator_is_caught(tmp_path):
    # The code after a request's yield is its completion: it runs
    # between other requests' deadlines, so a sleep there (or a sync
    # entry point, which sleeps inside) stalls the whole round.
    write(
        tmp_path,
        "scatter.py",
        "import time\n"
        "def send(provider, chunks, landed):\n"
        "    for chunk in chunks:\n"
        "        yield provider._issue()\n"
        "        provider._put_vector(chunk, landed)\n"
        "        time.sleep(0.001)\n"
        "def fetch(provider, ids):\n"
        "    yield provider._issue()\n"
        "    return provider.get_many(ids)\n",
    )
    violations = lint_async.lint(tmp_path)
    assert [v.split(":")[1] for v in violations] == ["6", "9"]
    assert all("in a completion" in v for v in violations)


def test_a_sleeping_vector_body_is_caught(tmp_path):
    write(
        tmp_path,
        "bucket.py",
        "class Bucket:\n"
        "    def _get_vector(self, keys):\n"
        "        self._service_delay()  # asynclint: allow reviewed\n"
        "        return self.get_many(keys)\n"
        "    def _put_vector(self, items, conditional):\n"
        "        self.delete_many([k for k, _ in items])\n",
    )
    violations = lint_async.lint(tmp_path)
    assert [v.split(":")[1] for v in violations] == ["4", "6"]
    assert all("in a completion" in v for v in violations)


def test_a_helper_defined_in_a_request_is_judged_on_its_own(tmp_path):
    # Only the nearest enclosing function counts: a plain helper nested
    # in a request may call a sync entry point (it is not a completion).
    write(
        tmp_path,
        "gather.py",
        "def fetch(provider, ids):\n"
        "    def fallback():\n"
        "        return provider.get_many(ids)\n"
        "    yield provider._issue()\n"
        "    return provider._get_vector(ids)\n",
    )
    assert lint_async.lint(tmp_path) == []


def test_a_sleeping_completion_planted_in_the_real_store_fails(tmp_path):
    real = lint_async.SCOPE / "blob" / "store.py"
    source = real.read_text()
    line = "                provider._put_vector(chunk, landed)\n"
    assert source.count(line) == 1
    planted = source.replace(line, line + "                time.sleep(0.001)\n")
    (tmp_path / "store.py").write_text(planted)
    violations = lint_async.lint(tmp_path)
    assert len(violations) == 1
    assert "store.py" in violations[0] and "in a completion" in violations[0]
    assert lint_async.main() == 0  # the real tree itself stays clean


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
