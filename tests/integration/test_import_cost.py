"""No ``repro`` module imports numpy when it loads.

``import numpy`` alone adds about 13.7 MB of RSS and 155 ms on a
2-vCPU host; importing ``repro.cli`` and the harness costs 9.6 MB of
RSS without numpy and 22.4 MB with it.  Only two kinds of feature
compute with numpy: seeded draws (the simulator's seeded deployments,
the HDFS baseline's random placement and the store's ``random``
policy) and RandomTextWriter's bulk draws.  Each loads it on its first
draw.  A store, BSFS, gateway or grep session never draws a number, and
neither does the simulator's kernel (its rate solver is pure Python) or
a BlobSeer read point, so they must run where numpy is absent.

Every check runs in a fresh interpreter: this test process imported
numpy long ago.  The positive controls keep the blocked runs from
passing vacuously: each numpy feature does load it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

IMPORT_ALL = """
import importlib
import pkgutil
import sys

import repro

failed = []
for info in pkgutil.walk_packages(repro.__path__, "repro.", onerror=failed.append):
    try:
        importlib.import_module(info.name)
    except ImportError:
        failed.append(info.name)
assert not failed, f"modules that need numpy to import: {sorted(set(failed))}"
assert "repro.cli" in sys.modules
"""

ROUND_ROBIN = """
import sys
import repro
assert "numpy" not in sys.modules, "import repro imported numpy"
from repro.blob import LocalBlobStore, StoreConfig
with LocalBlobStore(config=StoreConfig(block_size=16)) as store:
    blob = store.create()
    store.append(blob, b"x" * 64)
    assert store.read(blob) == b"x" * 64
assert "numpy" not in sys.modules, "a round-robin store imported numpy"
"""

STORAGE_SESSIONS = """
from repro.blob import LocalBlobStore, StoreConfig
from repro.bsfs import BSFSFileSystem
from repro.gateway import Gateway
from repro.mapreduce import LocalJobRunner
from repro.mapreduce.apps import grep_job

with LocalBlobStore(config=StoreConfig(block_size=16)) as store:
    blob = store.create()
    store.append(blob, b"x" * 64)
    store.append(blob, b"y" * 40)
    assert store.read(blob) == b"x" * 64 + b"y" * 40

with LocalBlobStore(config=StoreConfig(block_size=64)) as store:
    fs = BSFSFileSystem(store=store)
    fs.write_file("/logs/events", b"event ok\\nevent FAIL\\n" * 50)
    result = LocalJobRunner(fs).run(grep_job(["/logs/events"], "/out", "FAIL"))
    assert fs.read_file(result.output_paths[0]) == b"matching-lines\\t50\\n"

with Gateway(config=StoreConfig(data_providers=4, block_size=64)) as gateway:
    client = gateway.connect("alice", gateway.register_tenant("alice"))
    client.write_file("/notes", bytes(range(256)) * 3)
    assert client.read_file("/notes") == bytes(range(256)) * 3
"""

SIMULATED_READS = """
from repro.harness import scenarios
result = scenarios.concurrent_readers("bsfs", 4, total_nodes=30)
assert result.clients == 4 and result.mean_client_throughput > 0
"""

#: Each feature that computes with numpy, run after every module was
#: imported without it.
NUMPY_FEATURES = {
    "random_text_job": """
from repro.blob import LocalBlobStore, StoreConfig
from repro.bsfs import BSFSFileSystem
from repro.mapreduce import LocalJobRunner
from repro.mapreduce.apps import random_text_job
fs = BSFSFileSystem(store=LocalBlobStore(config=StoreConfig(block_size=256)))
job = random_text_job("/rtw", num_mappers=1, bytes_per_mapper=500)
assert "numpy" not in sys.modules, "building the job imported numpy"
LocalJobRunner(fs).run(job)
""",
    "seed_factory": """
from repro.util import SeedFactory
SeedFactory(0).spawn()
""",
    "hdfs_write": """
from repro.hdfs import HDFSFileSystem
fs = HDFSFileSystem(datanodes=3, block_size=64)
assert "numpy" not in sys.modules, "an HDFS namenode imported numpy"
fs.write_file("/f", bytes(256), client="edge-node")
""",
    "random_placement": """
from repro.blob import LocalBlobStore, StoreConfig
with LocalBlobStore(config=StoreConfig(block_size=16, placement="random")) as store:
    blob = store.create()
    assert "numpy" not in sys.modules, "a random policy imported numpy before drawing"
    store.append(blob, b"x" * 64)
""",
}


def run(script: str) -> None:
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_import_repro_and_a_round_robin_store_skip_numpy():
    run(ROUND_ROBIN)


def test_every_module_and_the_storage_sessions_run_with_numpy_blocked():
    # None in sys.modules makes every `import numpy` raise ImportError.
    run('import sys\nsys.modules["numpy"] = None\n' + IMPORT_ALL + STORAGE_SESSIONS)


def test_a_simulated_blobseer_read_point_runs_with_numpy_blocked():
    run('import sys\nsys.modules["numpy"] = None\n' + SIMULATED_READS)


@pytest.mark.parametrize("feature", sorted(NUMPY_FEATURES))
def test_each_numpy_feature_loads_it_on_first_use(feature):
    run(
        IMPORT_ALL
        + 'assert "numpy" not in sys.modules, "importing repro loaded numpy"\n'
        + NUMPY_FEATURES[feature]
        + f'assert "numpy" in sys.modules, "{feature} never loaded numpy"\n'
    )
