"""Every example script must run clean (they are executable docs)."""

import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from repro.blob import LocalBlobStore, StoreConfig
from repro.blob.segment_tree import RUN_SPAN

EXAMPLES_DIR = Path(__file__).parents[2] / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "OK" in result.stdout or "identical" in result.stdout


def test_metadata_tree_renders_a_wide_append():
    """An append wider than 2 × RUN_SPAN published no node between its
    root and its runs; the rendering walks to the runs and asks for no
    missing key."""
    render_tree = runpy.run_path(str(EXAMPLES_DIR / "metadata_tree.py"))["render_tree"]
    config = StoreConfig(data_providers=2, metadata_providers=2, block_size=4)
    with LocalBlobStore(config=config) as store:
        blob = store.create()
        store.append(blob, b"w" * (4 * (2 * RUN_SPAN + 1)))
        assert render_tree(store, blob, 1) == [
            "* node[0, 256) v1",
            "    * run[0, 64) v1",
            "    * run[64, 128) v1",
            "    * node[128, 256) v1",
            "        * node[128, 192) v1",
            "            * node[128, 160) v1",
            "                * node[128, 144) v1",
            "                    * node[128, 136) v1",
            "                        * node[128, 132) v1",
            "                            * node[128, 130) v1",
            "                                * leaf[block 128] v1 -> provider-000",
        ]
