"""Alternating parent/change pairs of the benchmark, and the gain rule.

Usage, from anywhere::

    python3 tools/pairs.py --base PARENT_ROOT --change CHANGE_ROOT \\
        --workload small-certify --pairs 10 --seeds 201,202,203 --seconds 40

Each root is a source checkout with ``perfbench/run.py``.  Pair ``i`` runs
``perfbench/run.py --trace 0`` once from each root on seed
``seeds[i % len(seeds)]``; even pairs run the base first, odd pairs the
change, so a drift of the host does not favour one side.  For each
end-to-end metric that ``BENCHMARK.json`` declares, it prints each side's
median and quartiles, the pairs the change won (ties count for neither
side) and whether a gain may be claimed: at least nine tenths of the pairs
won and a median gap, in the better direction, larger than the base's
interquartile range.  It also prints whether the dual-trace digests of the
two sides agreed in every pair.  Exits 1 when a run fails or reports
``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated linearly
    between order statistics (one value is its own quartiles)."""
    xs = sorted(values)

    def at(q: float) -> float:
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run from ``root``: its detail line and result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{root}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def verdict(metric: dict, base: list[float], change: list[float]) -> dict:
    """Medians, quartiles, wins and the gain rule for one metric."""
    lower = metric["better"] == "lower"
    wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
    (b25, b50, b75), (c25, c50, c75) = quartiles(base), quartiles(change)
    gap = b50 - c50 if lower else c50 - b50
    return {
        "base": (b25, b50, b75), "change": (c25, c50, c75), "wins": wins,
        "gain": wins >= 0.9 * len(base) and gap > b75 - b25,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", type=Path, required=True, help="parent checkout root")
    p.add_argument("--change", type=Path, required=True, help="changed checkout root")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seeds", required=True, help="comma-separated seeds, used in turn")
    p.add_argument("--seconds", type=float, required=True, help="run length of each run")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.pairs < 1 or not seeds:
        p.error("need at least one pair and one seed")
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]

    values = {"base": [], "change": []}
    same_digests = True
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        sides = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        details = {}
        for side in sides:
            try:
                details[side], result = run_once(getattr(args, side), args.workload,
                                                 seed, args.seconds)
            except RuntimeError as err:
                print(f"pair {i + 1}: {side} run failed: {err}", file=sys.stderr)
                return 1
            if not result["correct"]:
                print(f"pair {i + 1}: {side} run not correct: {details[side]['failures']}",
                      file=sys.stderr)
                return 1
            values[side].append({k: v["value"] for k, v in result["metrics"].items()})
        same_digests &= details["base"]["digests"] == details["change"]["digests"]
        shown = ", ".join(
            f"{m['name']} {values['base'][-1][m['name']]:.4g} -> "
            f"{values['change'][-1][m['name']]:.4g}" for m in metrics
        )
        print(f"pair {i + 1} seed {seed} ({sides[0]} first): {shown}", flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s, seeds {args.seeds}")
    print(f"{'metric':<14} {'base q1/med/q3':<28} {'change q1/med/q3':<28} "
          f"{'wins':<7} gain")
    for m in metrics:
        name = m["name"]
        v = verdict(m, [r[name] for r in values["base"]], [r[name] for r in values["change"]])
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
        print(f"{name:<14} {fmt(v['base']):<28} {fmt(v['change']):<28} "
              f"{v['wins']}/{args.pairs:<5} {'yes' if v['gain'] else 'no'}")
    print(f"dual-trace digests equal in every pair: {'yes' if same_digests else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
