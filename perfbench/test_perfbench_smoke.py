"""Smoke test of the benchmark's plumbing (collected by the tier-1 command).

Runs ``perfbench/run.py --quick --traced`` in a process of its own — the
benchmark pins its process to one CPU, which must not leak into the test
session — and checks names, units, the output check and the onion identity.
Numbers from a quick run mean nothing and are not looked at."""

import glob
import json
import os
import subprocess
import sys

import pytest

from perfbench.layers import PER_LAYER
from perfbench.workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(*args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seed", "7", "--quick", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=110,
    )


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_quick_run_emits_every_metric_and_passes_its_check(tmp_path, benchmark_json):
    out = tmp_path / "quick.json"
    done = _run("--traced", "--out", str(out))
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(out.read_text())

    assert [entry["name"] for entry in benchmark_json["workloads"]] == [w.name for w in WORKLOADS]
    assert {m["name"]: m["unit"] for m in benchmark_json["per_layer"]} == {
        name: unit for name, (unit, _module) in PER_LAYER.items()
    }
    for spec in WORKLOADS:
        workload = result["workloads"][spec.name]
        for kind in ("end_to_end", "per_layer"):
            for metric in benchmark_json[kind]:
                emitted = workload[kind][metric["name"]]
                assert emitted["unit"] == metric["unit"], (spec.name, metric["name"])
                assert isinstance(emitted["value"], float)
                assert f"  {metric['name']} " in done.stdout  # printed by name
        assert workload["end_to_end"]["error_share"]["value"] == 0
        assert workload["failed"] == 0

        # The budget: the self-times plus unattributed_us are L0, exactly.
        layer = {name: entry["value"] for name, entry in workload["per_layer"].items()}
        frontend = layer["frontend.self_us" if spec.multiplexed else "frontend.dedicated_self_us"]
        total = frontend + layer["scheduler.self_us"] + layer["replicas.path_us"] + layer["unattributed_us"]
        assert total == pytest.approx(layer["onion.l0_us"], abs=1e-6)

    # The harness's own spans were written out, one JSON object per line.
    with open(os.path.join(ROOT, result["span_dump"]), encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        first = json.loads(handle.readline())
    assert header["spans"] > 0 and {"name", "start", "end", "parent", "op_id"} <= set(first)


def test_corrupted_replica_row_fails_the_run():
    done = _run("--corrupt-check")
    assert done.returncode != 0
    assert "CHECK FAILED" in done.stderr and "differs from the acknowledged state" in done.stderr


def test_this_is_the_only_test_file_of_the_benchmark():
    assert [os.path.basename(path) for path in glob.glob(os.path.join(HERE, "test_*.py"))] == [
        "test_perfbench_smoke.py"
    ]
