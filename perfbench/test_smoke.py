"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a corrupted output or an output that changes between passes is counted
as failed, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, wanted: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_emitted(workload):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", "0", "--size", "tiny")
    result = result_of(proc)
    assert_metrics(result, SPEC["end_to_end"])
    assert all(result["metrics"][name]["value"] > 0 for name in ("wall_s", "setup_s", "peak_rss_mb"))


def test_per_layer_metrics_emitted():
    proc = run_bench(ROOT, "--workload", "coefficients", "--seed", "3", "--seconds", "0.5",
                     "--trace", "1", "--size", "tiny")
    result = result_of(proc)
    assert_metrics(result, SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["acceptance.passed"] == 11
    assert metrics["kolmogorov.series_calls"] > 0 and metrics["series.kernel_flops"] > 0
    assert metrics["oracle.uniformize_calls"] > 0 and 0.0 < metrics["oracle.leaked_mass"] < 1.0
    assert metrics["cli.calls"] == 1 and metrics["cli.csv_bytes"] > 0
    assert metrics["montecarlo.simulate_calls"] == 0


@pytest.fixture(scope="module")
def harness():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import worker
    import workloads

    laws = workloads.build_laws("coefficients")
    return worker, workloads, laws


def test_perturbed_coefficient_counts_as_failed(harness, tmp_path):
    worker, workloads, laws = harness
    ops = workloads.build_ops("coefficients", laws, 3, "tiny", tmp_path)
    (op,) = [op for op in ops if op.name.startswith("series.power")]
    original = op.call

    def corrupted():
        out = original()
        c = out.coeffs.copy()
        c[5] *= 1.0 + 1e-6
        return type(out)(c)

    op.call = corrupted
    tally = worker.Tally()
    op_times, _ = worker.run_passes([op], 0.0, tally)
    assert tally.attempted == len(op_times[0]) == worker.MIN_PASSES
    assert tally.failed == tally.attempted
    assert "power vs Cauchy reference" in tally.failures[0]


def test_output_changing_between_passes_counts_as_failed(harness, tmp_path):
    worker, workloads, laws = harness
    (op,) = [op for op in workloads.build_ops("coefficients", laws, 3, "tiny", tmp_path)
             if op.name.startswith("series.compose")]
    original = op.call
    calls = []

    def drifting():
        out = original()
        calls.append(1)
        if len(calls) == 1:
            return out
        c = out.coeffs.copy()
        c[-1] = np.nextafter(c[-1], np.inf)  # one ulp: far below the check tolerance
        return type(out)(c)

    op.call = drifting
    tally = worker.Tally()
    worker.run_passes([op], 0.0, tally)
    assert tally.failed == 1
    assert "differs from the first pass" in tally.failures[0]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "mc-bulk", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
