"""The I/O-path lint must actually lint (tools/lint_async.py).

Pins the contract of the CI step guarding DESIGN.md §13: any call of
a sleeping sync entry point (``get_many``/``put_many``/``delete_many``)
fails, wherever it is; a sleep that is not marked fails (the sync entry
points and the round's own wait are), and is reported as a completion's
inside a request generator or a ``_put_vector``/``_get_vector``/
``_delete_vector`` body; a blocking ``time.sleep``, sync DHT fan-out,
``_service_delay``, or ``.result()`` inside an ``async def`` under
``src/repro/`` fails, and the same non-sleeping call in a sync
function, a nested sync ``def``, a comment, or a docstring does not;
the ``# asynclint: allow`` escape hatch works, except for a sleep
under a lock or a condition, which fails marked or not; and the real
tree is currently clean, and fails once a sleeping completion, a
per-bucket loop of sync entry points or a version-manager round trip
slept under the store's lock is planted in it.
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
    # ``delete_many`` is gone: a call to it fails anywhere, in a
    # coroutine too.
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
        "    bucket.peek_many([1])\n"
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
        "        return bucket.peek_many([1])\n"
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
    # between other requests' deadlines, so a sleep there stalls the
    # whole round (and a sync entry point, which sleeps inside, fails
    # anywhere).
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
    assert "in a completion" in violations[0]
    assert "sleeping sync entry point" in violations[1]


def test_a_sleeping_vector_body_is_caught(tmp_path):
    write(
        tmp_path,
        "bucket.py",
        "class Bucket:\n"
        "    def _get_vector(self, keys):\n"
        "        self._service_delay()  # asynclint: allow reviewed\n"
        "        return self.get_many(keys)\n"
        "    def _put_vector(self, items, conditional):\n"
        "        self.delete_many([k for k, _ in items])\n"
        "    def _delete_vector(self, keys):\n"
        "        time.sleep(0.001)\n",
    )
    violations = lint_async.lint(tmp_path)
    assert [v.split(":")[1] for v in violations] == ["4", "6", "8"]
    assert all("sleeping sync entry point" in v for v in violations[:2])
    assert "in a completion" in violations[2]


def test_a_helper_defined_in_a_request_is_judged_on_its_own(tmp_path):
    # Only the nearest enclosing function counts: a plain helper nested
    # in a request is not a completion, so its sleep is a plain one.
    write(
        tmp_path,
        "gather.py",
        "import time\n"
        "def fetch(provider, ids):\n"
        "    def fallback():\n"
        "        time.sleep(0.001)\n"
        "    yield provider._issue()\n"
        "    return provider._get_vector(ids)\n",
    )
    violations = lint_async.lint(tmp_path)
    assert [v.split(":")[1] for v in violations] == ["4"]
    assert "sleeps outside the marked" in violations[0]


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


def test_sync_entry_points_fail_in_plain_sync_code(tmp_path):
    # The control plane's old shape: a loop that sleeps one service
    # delay per destination.  Program code sends requests instead.
    write(
        tmp_path,
        "sweep.py",
        "def sweep(buckets, doomed, providers, items):\n"
        "    for bucket in buckets:\n"
        "        bucket.delete_many(doomed)\n"
        "    providers[0].put_many(items, [])\n"
        "    return buckets[0].get_many(doomed)\n",
    )
    violations = lint_async.lint(tmp_path)
    assert [v.split(":")[1] for v in violations] == ["3", "4", "5"]
    assert all("sleeping sync entry point" in v for v in violations)


def test_a_per_bucket_put_many_loop_planted_in_the_real_metadata_fails(tmp_path):
    real = lint_async.SCOPE / "blob" / "metadata.py"
    source = real.read_text()
    line = "            return self.store.put_by_bucket(by_bucket)\n"
    assert source.count(line) == 1
    planted = source.replace(
        line,
        "            for name, pairs in by_bucket.items():\n"
        "                self.store.buckets[name].put_many(pairs)\n"
        "            return {}\n",
    )
    (tmp_path / "metadata.py").write_text(planted)
    violations = lint_async.lint(tmp_path)
    assert len(violations) == 1
    assert "metadata.py" in violations[0] and "put_many" in violations[0]
    assert "sleeping sync entry point" in violations[0]
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


def test_a_sleep_under_a_lock_fails_even_when_marked(tmp_path):
    write(
        tmp_path,
        "seam.py",
        "import threading, time\n"
        "def call(self, fn):\n"
        "    with self._lock:\n"
        "        time.sleep(self.latency)  # asynclint: allow round trip\n"
        "    with threading.Condition():\n"
        "        _sleep(0.001)\n"
        "    with self._writes_cond, open('x'):\n"
        "        self.provider._service_delay()\n"
        "    return fn()\n",
    )
    violations = lint_async.lint(tmp_path)
    assert [v.split(":")[1] for v in violations] == ["4", "6", "8"]
    assert all("under a lock" in v for v in violations)


def test_a_sleep_beside_a_lock_is_judged_as_any_sleep(tmp_path):
    # Before or after the ``with``, in a helper defined inside it, or
    # under a context that is no lock: only the marker rule applies.
    write(
        tmp_path,
        "seam.py",
        "import time\n"
        "def call(self, fn):\n"
        "    time.sleep(self.latency)  # asynclint: allow round trip\n"
        "    with self._lock:\n"
        "        def later():\n"
        "            time.sleep(0.001)  # asynclint: allow reviewed\n"
        "        result = fn()\n"
        "    with open('x'):\n"
        "        time.sleep(0.001)\n"
        "    return result, later\n",
    )
    violations = lint_async.lint(tmp_path)
    assert [v.split(":")[1] for v in violations] == ["9"]
    assert "sleeps outside the marked" in violations[0]


def test_a_round_trip_slept_under_the_real_store_lock_fails(tmp_path):
    real = lint_async.SCOPE / "blob" / "store.py"
    source = real.read_text()
    sleep = (
        "        if counters and self.vman_latency:\n"
        "            time.sleep(self.vman_latency)  # asynclint: allow the vman round trip\n"
    )
    locked = "        with self._lock:\n"
    assert source.count(sleep) == 1 and source.count(sleep + locked) == 1
    planted = source.replace(sleep + locked, locked + "    " + sleep.replace("\n", "\n    ", 1))
    (tmp_path / "store.py").write_text(planted)
    violations = lint_async.lint(tmp_path)
    assert len(violations) == 1
    assert "store.py" in violations[0] and "under a lock" in violations[0]
    assert lint_async.main() == 0  # the real tree itself stays clean
