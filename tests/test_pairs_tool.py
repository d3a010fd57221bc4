"""``tools/pairs.py`` runs end to end: one pair of 1 s small-certify runs,
with this checkout on both sides, reports every end-to-end metric that
``BENCHMARK.json`` declares and equal dual-trace digests."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_pair_on_small_certify():
    proc = subprocess.run(
        [sys.executable, "tools/pairs.py", "--base", str(ROOT), "--change", str(ROOT),
         "--workload", "small-certify", "--pairs", "1", "--seeds", "0", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("pair 1 seed 0 (base first): ")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rows = {line.split()[0]: line.split() for line in lines if line.split()}
    for m in declared:
        row = rows[m["name"]]
        assert row[3].endswith("/1") and row[4] in ("yes", "no")
    assert lines[-1] == "dual-trace digests equal in every pair: yes"
