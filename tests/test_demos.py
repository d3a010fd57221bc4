"""The demo scripts run to completion, and every reduction they certify holds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(path)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )


def test_all_three_demos_found():
    assert [p.name for p in DEMOS] == [
        "constraint_reduction.py", "grid_inference.py", "stealth_pursuit.py",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_cleanly(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    if path.name == "constraint_reduction.py":
        verdicts = [
            line.rsplit(None, 1)[-1]
            for line in proc.stdout.splitlines()
            if "certifies equality:" in line or "equal:" in line
        ]
        assert len(verdicts) == 5
        assert set(verdicts) == {"True"}
