"""The benchmark runs end to end: one short run of each workload exits 0 with
every gate passed (grid-solve's include the belief scalars per sweep of each
relaxation, small-certify's the rank-certified diagram reductions) and
reports exactly the end-to-end metrics that ``BENCHMARK.json`` declares;
traced grid-solve and small-certify runs report exactly the per-layer
metrics."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_smoke(workload, trace=0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    return names


def test_grid_solve_smoke():
    run_smoke("grid-solve")


def test_cycles_pursuit_smoke():
    run_smoke("cycles-pursuit")


def test_small_certify_smoke():
    run_smoke("small-certify")


def test_grid_solve_traced_smoke():
    """The traced path carries the set-up layers (``io.load_model_s``,
    ``relaxations.build_s.*``) that end-to-end runs do not show."""
    names = run_smoke("grid-solve", trace=1)
    assert len(names) == 63
    assert "io.load_model_s" in names


def test_small_certify_traced_smoke():
    """The traced path carries the per-mode sweep times: belief mode's runs
    through the level steps, message mode's does not."""
    names = run_smoke("small-certify", trace=1)
    assert "engine.beliefs_sweep_ms" in names and "engine.messages_sweep_ms" in names
