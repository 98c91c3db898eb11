"""Smoke test of the benchmark itself, at tiny mesh sizes.

Run from the repository root:  python3 -m pytest bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the box-ring generator needs n >= 5 for its interior ring
SMOKE_N = {"torus3-beltrami": 4, "boxring-pipeline": 5}


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--n", str(SMOKE_N[workload]))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec}
    assert "failed_frac" in proc.stdout


def flip_betti(outdir, i):
    if i == 1:
        path = os.path.join(outdir, "betti.json")
        with open(path) as fh:
            doc = json.load(fh)
        doc["absolute"][0] += 1
        with open(path, "w") as fh:
            json.dump(doc, fh)


def touch_bytes(outdir, i):
    if i == 1:
        with open(os.path.join(outdir, "betti.json"), "a") as fh:
            fh.write(" ")


@pytest.mark.parametrize("tamper, problem", [
    (flip_betti, "absolute Betti numbers"),
    (touch_bytes, "not byte-identical"),
])
def test_wrong_output_fails_its_run(tmp_path, tamper, problem):
    b = bench.Bench(ROOT, WORKLOADS["boxring-pipeline"], 5, 3, str(tmp_path), tamper=tamper)
    for _ in range(3):
        b.run_once()
    assert b.failed == 1
    assert not b.runs[0].problems and not b.runs[2].problems
    assert any(problem in p for p in b.runs[1].problems)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path), "--workload", "boxring-pipeline", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
