"""Selfcheck of the benchmark in perf/ (collected by the tier-1 run).

A ``--quick --trace`` pass of every workload checks the output schema
against BENCHMARK.json; two in-process runs show that verification is
live: a corrupted stored block and a perturbed expected_sim.json value
must each be reported as wrong output.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import workloads  # noqa: E402  (perf/ is not a package)
from repro.blob.block import BytesPayload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
END_TO_END = {
    "write_mb_per_s", "read_mb_per_s", "write_p50_ms", "read_p50_ms", "setup_s", "peak_rss_mb",
}
WORKLOADS = {"cpu_small_blocks", "mr_text_scan", "lat_fanout", "lat_gateway_mix", "sim_figures"}


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """One quick traced pass per workload, the five side by side."""
    out_dir = tmp_path_factory.mktemp("perf")
    procs = {
        name: subprocess.Popen(
            [
                sys.executable, os.path.join(HERE, "run.py"), "--quick", "--trace",
                "--workload", name, "--out", str(out_dir / f"{name}.json"),
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for name in sorted(WORKLOADS)
    }
    results = {}
    for name, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr[-2000:]
        with open(out_dir / f"{name}.json") as fh:
            document = json.load(fh)
        results[name] = (json.loads(stdout.strip().splitlines()[-1]), document)
    return results


def test_names_match_benchmark_json(spec, quick):
    assert {w["name"] for w in spec["workloads"]} == WORKLOADS == set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    layer_names = {m["name"] for m in spec["per_layer"]}
    for name in WORKLOADS | END_TO_END | layer_names:
        assert NAME.fullmatch(name), name
    for name, (_, document) in quick.items():
        result = document["workloads"][name]
        assert set(result["end_to_end"]) == END_TO_END
        assert set(result["per_layer"]) == layer_names
        assert set(result["sets"][0]["per_layer"]) == layer_names


def test_quick_pass_reports_every_metric(quick):
    for name, (last_line, document) in quick.items():
        result = document["workloads"][name]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert result["missing_probes"] == [], name
        assert result["dropped_config_fields"] == [], name
        for metric in END_TO_END:
            entry = result["end_to_end"][metric]
            assert isinstance(entry["value"], float) and entry["value"] > 0, (name, metric)
        # --trace 1: the last line carries every per-layer metric as a number.
        assert set(last_line) == {"correct", "attempted", "failed", "metrics"}
        assert last_line["correct"] is True and last_line["failed"] == 0
        assert set(last_line["metrics"]) == set(result["per_layer"])
        for entry in last_line["metrics"].values():
            assert isinstance(entry["value"], (int, float)) and entry["unit"]
        assert result["per_layer"]["trace.overhead_frac"]["value"] is not None
        assert result["per_layer"]["trace.spans"]["value"] > 0


def _one_repetition(workload):
    workload.build()
    rec = workloads.Recorder()
    try:
        workload.run(rec)
    finally:
        workload.close()
    return rec


def test_corrupted_block_is_reported():
    class Corrupting(workloads.CpuSmallBlocks):
        def read_phase(self, rec, ops):
            # Round-robin placement: every read of 64 blocks meets this provider.
            provider = next(iter(self.store.providers.values()))
            for block_id in list(provider.block_ids()):
                size = provider.get(block_id).size
                provider.delete(block_id)
                provider.put(block_id, BytesPayload(b"\xff" * size))
            super().read_phase(rec, ops)

    assert _one_repetition(workloads.CpuSmallBlocks(0, quick=True)).wrong == 0
    rec = _one_repetition(Corrupting(0, quick=True))
    assert rec.wrong > 0 and rec.failed == 0


def test_perturbed_expected_value_is_reported():
    with open(workloads.EXPECTED_SIM) as fh:
        expected = json.load(fh)
    assert _one_repetition(workloads.SimFigures(0, quick=True, expected=expected)).wrong == 0
    key = next(k for k in expected if k.startswith("readers/bsfs/") and "nodes=30" in k)
    expected[key]["aggregate_throughput"] *= 1 + 1e-6
    assert _one_repetition(workloads.SimFigures(0, quick=True, expected=expected)).wrong == 1
