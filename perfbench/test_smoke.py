"""Smoke test of the benchmark: each workload at the shortest length
(warm-up plus two requests), untraced and traced.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_bench(root, workload, trace):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "0",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=root,
    )


# sweep_design runs but is not gated in BENCHMARK.json (see NOTES.md).
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["sweep_design"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_with_unit(workload, trace):
    out = run_bench(HERE.parent, workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3

    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]

    printed = {line.split()[0]: line.split()[1:] for line in lines[:-1]}
    assert printed["error_rate"] == ["0.0", "ratio"]
    for m in spec:
        assert printed[m["name"]][-1] == m["unit"]
    if not trace:
        assert result["metrics"]["sim_cycles_per_block"]["value"] == 26
        energy = result["metrics"]["sim_energy_pj_per_block"]["value"]
        assert round(energy, 1) == 187905.6


def test_fails_without_the_program():
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    out = run_bench(bare, "block_latency", 0)
    assert out.returncode != 0
    assert "correct" not in out.stdout
