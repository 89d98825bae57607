"""The benchmark's own tests: every workload at toy scale, untraced and
traced, with every output check passing and every named metric printed.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((BENCH / "spec.json").read_text())
# every workload run.py knows, including the one BENCHMARK.json leaves out
WORKLOADS = list(SPEC["test_acc_floor"])


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.splitlines()
    return json.loads(record_line), json.loads(result_line)


def test_benchmark_json_matches_spec():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    layer = [m["name"] for m in BENCHMARK["per_layer"]]
    assert e2e == list(SPEC["end_to_end"])
    assert layer == list(SPEC["per_layer"])
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for entry in SPEC["per_layer"].values():
        assert set(entry["measured_on"]) <= set(WORKLOADS)
        for workload, moves in entry["should_move"].items():
            assert workload in WORKLOADS and set(moves) <= set(e2e)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_passes_checks(workload, trace):
    record, result = result_of(run_bench(workload, seed=3, trace=trace))
    assert record["failures"] == []
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    facts = record["facts"]
    assert facts["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert {"nproc", "python", "numpy", "blas", "commit"} <= set(facts)
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        for name in ("rate.cholesky_per_layer", "rate.inv_per_layer",
                     "spectral.cholesky_per_layer", "spectral.inv_per_layer"):
            assert values[name] >= 1 and values[name] == int(values[name])
        # layers this workload does not drive are timed on a toy probe
        native = {n for n, e in SPEC["per_layer"].items() if workload in e["measured_on"]}
        assert set(record["probes"]).isdisjoint(native)


@pytest.mark.parametrize("seed", [5, 6])
def test_checks_hold_on_other_seeds(seed):
    for workload in WORKLOADS:
        _, result = result_of(run_bench(workload, seed=seed, trace=0))
        assert result["correct"] is True and result["failed"] == 0


def test_same_seed_same_inputs_and_outputs():
    res_a, res_b = (result_of(run_bench("dense-sphere", 7, 0))[1] for _ in range(2))
    for name in ("final_dR", "test_acc", "model_mb"):
        assert res_a["metrics"][name] == res_b["metrics"][name]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    proc = run_bench("dense-sphere", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
