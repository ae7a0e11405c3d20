"""Smoke test of the benchmark harness: every workload at n=64, traced and not.

    python3 -m pytest bench/test_bench.py -q

Kept out of the package's test suite (pytest collects only tests/ by
default); it takes about half a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(root: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_result_contract(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_tracer_binds_where_callers_look_up():
    # evolve imports riesz_gradient by name; numpy's fft is reached as np.fft.fft
    proc = run(ROOT, "stiff_density", 1)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    steps = metrics["evolve.step_density.calls"]["value"]
    assert steps > 0
    assert metrics["evolve.steps"]["value"] == steps
    assert metrics["operators.riesz_gradient.calls"]["value"] == 2 * steps
    assert metrics["operators.fft.calls"]["value"] >= 4 * steps
    assert metrics["operators.quad.calls"]["value"] == 0
    proc = run(ROOT, "verification_suite", 1)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["operators.quad.calls"]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
