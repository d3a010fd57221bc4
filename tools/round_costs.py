"""Wall time per phase of stealth pursuit on seeded frustrated 4-cycles.

Usage, from anywhere::

    python3 tools/round_costs.py --cycles 100 --seeds 3,11,21 --reps 20

For each seed it builds ``--cycles`` disjoint frustrated 4-cycles, as the
cycles-pursuit benchmark does, and runs ``run_with_pursuit`` under ``dd``
with the benchmark's parameters (500 sweeps, then 50 per round), once to
warm up and then ``--reps`` times in this process.  It prints, per seed,
the median over the reps of each phase's milliseconds per solve, the
whole solve's, and the solve's rounds and sweeps.  Phases are timed by
wrapping the engine's and the search's functions; a call made inside
another timed call counts for the outer one only, so the phases never sum
to more than the solve.  ``maplp`` is imported from ``src/`` of the
checkout this file sits in.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import maplp  # noqa: E402
import maplp.engine as engine  # noqa: E402
import maplp.pursuit as pursuit  # noqa: E402

PARAMS = dict(max_sweeps=500, pursuit_sweeps=50)

# Phase -> the (owner, attribute) pairs it times.
PHASES = {
    "candidate search": [(pursuit, "_candidates")],
    "index build": [(pursuit._SearchIndex, "__init__")],
    "index growth": [(pursuit._SearchIndex, "grow")],
    "first compile": [(engine._Sweep, "__init__")],
    "sweep growth": [(engine._Sweep, "grow")],
    # The steps, and the pass that takes each sweep's block drops from them.
    "level steps": [(engine._Level, "__call__"), (engine._Drops, "__call__")],
    "dual, decode, primal": [(engine._Store, "dual"), (engine._Store, "states"),
                             (engine._Primal, "__call__")],
}


def frustrated_cycle(seed: int) -> maplp.FactorGraph:
    """Four binary variables in a cycle; three edges reward disagreement and
    one rewards agreement, with seeded entry-wise perturbations."""
    rng = maplp.XorShift64Star(seed)
    agree = np.array([[1.0, 0.0], [0.0, 1.0]])
    disagree = np.array([[0.0, 1.0], [1.0, 0.0]])
    tables = [(agree if i == 3 else disagree) + rng.normals(4).reshape(2, 2) * 0.02
              for i in range(4)]
    return maplp.FactorGraph([2] * 4, [(0, 1), (1, 2), (2, 3), (0, 3)], tables)


def cycles_graph(cycles: int, seed: int) -> maplp.FactorGraph:
    """``cycles`` disjoint frustrated 4-cycles, seeded as the benchmark's."""
    master = maplp.XorShift64Star(seed)
    cards, clusters, tables = [], [], []
    for _ in range(cycles):
        g = frustrated_cycle(master.next_u64())
        for p in g.potentials:
            clusters.append(tuple(v + len(cards) for v in p.scope))
            tables.append(p.values)
        cards += g.cardinalities
    return maplp.FactorGraph(cards, clusters, tables)


class Timers:
    """Seconds per phase, counting only calls made outside a timed call."""

    def __init__(self):
        self.seconds = dict.fromkeys(PHASES, 0.0)
        self.active = False
        self.saved = []
        for phase, targets in PHASES.items():
            for owner, name in targets:
                original = getattr(owner, name)
                self.saved.append((owner, name, original))
                setattr(owner, name, self.wrap(phase, original))

    def wrap(self, phase, original):
        def timed(*args, **kwargs):
            if self.active:
                return original(*args, **kwargs)
            self.active = True
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds[phase] += time.perf_counter() - t0
                self.active = False
        return timed

    def restore(self):
        for owner, name, original in reversed(self.saved):
            setattr(owner, name, original)


def measure(cycles: int, seed: int, reps: int) -> list[dict]:
    """Per rep after one warm-up solve: seconds per phase, ``total`` for the
    solve, and its ``rounds`` and ``sweeps``."""
    graph = cycles_graph(cycles, seed)
    params = maplp.SolverParams(**PARAMS)
    runs = []
    for rep in range(reps + 1):
        spec = maplp.dd_spec(graph)
        timers = Timers()
        try:
            t0 = time.perf_counter()
            result = maplp.run_with_pursuit(graph, spec, params, label="dd")
            total = time.perf_counter() - t0
        finally:
            timers.restore()
        if rep:
            runs.append({**timers.seconds, "total": total,
                         "rounds": result.rounds, "sweeps": len(result.trace)})
    return runs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--cycles", type=int, default=100, help="frustrated 4-cycles per graph")
    p.add_argument("--seeds", default="3,11,21", help="comma-separated seeds")
    p.add_argument("--reps", type=int, default=20, help="timed solves per seed")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.cycles < 1 or args.reps < 1 or not seeds:
        p.error("need at least one cycle, one rep and one seed")
    table = {seed: measure(args.cycles, seed, args.reps) for seed in seeds}
    print(f"{'ms per solve (median)':<24}" + "".join(f"{'seed ' + str(s):>10}" for s in seeds))
    for phase in [*PHASES, "total"]:
        cells = [1e3 * statistics.median(r[phase] for r in table[s]) for s in seeds]
        print(f"{phase:<24}" + "".join(f"{c:>10.1f}" for c in cells))
    for count in ("rounds", "sweeps"):
        print(f"{count:<24}" + "".join(f"{table[s][0][count]:>10}" for s in seeds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
