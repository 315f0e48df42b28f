"""Self-tests of the benchmark (under two minutes).  From the repository root:

    python3 -m pytest benchmarks/selftest.py

The file name keeps them out of the default test collection, since each one
runs the benchmark end to end.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

from oracles import SPACE, Fixtures  # noqa: E402
from pmu_prospector.corpus import DEFAULT_POOL  # noqa: E402

WORKLOADS = ("scan", "scan-records", "exploit", "native-probe")


def run(workload: str, seed: int, trace: int, cwd: str = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def fixtures() -> Fixtures:
    return Fixtures.load(os.path.join(ROOT, "tests", "data"), DEFAULT_POOL.supported_extensions)


@pytest.fixture(scope="module")
def traced_scans() -> list[dict]:
    runs = [run("scan", seed, trace=1) for seed in (5, 6)]
    assert [rc for rc, _ in runs] == [0, 0]
    return [result(out)["metrics"] for _, out in runs]


def test_oracles_reproduce_the_fixture_counts(fixtures):
    must, may = fixtures.hidden()
    kept, dropped = fixtures.channel_screen("alu", "memory-load")
    assert (len(must), may) == (702, set())
    assert len(kept) == 318 and {p & 0xFF for p in kept} == {0x6C, 0xD3}
    assert dropped and {p & 0xFF for p in dropped} == {0x08}
    assert (len(fixtures.scanned), fixtures.skipped, len(fixtures.executed)) == (9, [9], 8)


def test_traced_call_counts_repeat(traced_scans):
    first, second = ({k: v["value"] for k, v in m.items() if k.endswith(".calls")}
                     for m in traced_scans)
    assert first == second
    assert first["backend.program.calls"] > 0


def test_traced_scan_counts_match_closed_forms(traced_scans, fixtures):
    metrics = {k: v["value"] for k, v in traced_scans[0].items()}
    reps = 3
    batches = len(fixtures.scanned) * SPACE // 4 * reps
    assert metrics["backend.program.calls"] == len(fixtures.scanned) * SPACE * reps == 1_769_472
    assert metrics["backend.read.calls"] == metrics["backend.program.calls"]
    assert metrics["corpus.execute.calls"] == batches == 9 * 16_384 * 3
    assert metrics["backend.record_execution.calls"] == len(fixtures.executed) * SPACE // 4 * reps
    assert metrics["backend.record_execution.calls"] == 8 * 16_384 * 3
    assert metrics["collector.instructions_skipped"] == len(fixtures.skipped) == 1
    assert metrics["collector.batches_lost"] == 0
    assert metrics["trace.overhead_s"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_passes_every_oracle(workload):
    rc, out = run(workload, 20261017, trace=0)
    res = result(out)
    assert rc == 0 and res["correct"], out
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, out = run("scan", 1, trace=0, cwd=str(tmp_path))
    assert rc != 0 and '"metrics"' not in out
