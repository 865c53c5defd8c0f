"""Smoke test: every workload end to end on tiny inputs, with every output check.

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: {"unit": v["unit"]} for m, v in result["metrics"].items()} == {
        m["name"]: {"unit": m["unit"]} for m in declared
    }
    if workload == "minimize-corpus" and trace:
        # the large-machine operations ran
        assert result["metrics"]["equivalence.product.states"]["value"] > 0, proc.stdout
    if workload == "letter-prefix" and trace:
        # the cold commands ran, and both known defects ran and failed
        assert result["metrics"]["cli.import_s"]["value"] > 0, proc.stdout
        assert result["metrics"]["cli.exit_codes"]["value"] == 2, proc.stdout


def test_refuses_to_run_without_the_library(tmp_path):
    """Without src/mooredual beside it the benchmark exits non-zero and prints no result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "letter-prefix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
