"""Smoke test of the benchmark at its smallest size.

Run it from the root of the repository:

    python -m pytest perfbench/smoke_check.py

The file name does not match pytest's default ``test_*.py`` pattern, so the
repository's own test run does not collect it.  Each case runs the
benchmark in a subprocess with ``--smoke --seconds 1``, which keeps every
workload's model shape but uses the fewest documents and repetitions.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRIPT = SPEC["command"][1:]


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, *SCRIPT, *args], cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit_and_checks_pass(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *records, result = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    env = next(r["environment"] for r in records if "environment" in r)
    assert env["seed"] == 7
    assert {"python", "numpy", "blas", "blas_threads", "nproc", "cpu"} <= set(env)
    if not trace:
        unscaled = next(r["unscaled"] for r in records if "unscaled" in r)
        assert unscaled["reference_model_s"] > 0 and unscaled["reference_text_s"] > 0

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1

    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]


def test_fails_without_the_program_sources(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        for src in (ROOT / rel).rglob("*"):
            if src.is_file() and not {".work", "traces", "__pycache__"} & set(src.relative_to(ROOT).parts):
                dst = tmp_path / src.relative_to(ROOT)
                dst.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy(src, dst)
    proc = run_bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
