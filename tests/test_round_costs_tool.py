"""``tools/round_costs.py`` runs end to end on 10 frustrated cycles: its
phases are nested in the solve it times, its counts are the solve's, and
it leaves the functions it wraps as it found them."""

import importlib.util
from pathlib import Path

from maplp import SolverParams, dd_spec, run_with_pursuit

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("round_costs", ROOT / "tools" / "round_costs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_phases_sum_to_no_more_than_the_solve(capsys):
    tool = load_tool()
    wrapped = [(owner, name, getattr(owner, name))
               for targets in tool.PHASES.values() for owner, name in targets]
    runs = tool.measure(10, seed=3, reps=2)
    assert all(getattr(owner, name) is original for owner, name, original in wrapped)

    graph = tool.cycles_graph(10, seed=3)
    direct = run_with_pursuit(graph, dd_spec(graph), SolverParams(**tool.PARAMS))
    assert len(runs) == 2 and direct.rounds >= 1
    for run in runs:
        phases = [run[phase] for phase in tool.PHASES]
        assert min(phases) >= 0 and sum(phases) <= run["total"]
        assert run["candidate search"] > 0 and run["level steps"] > 0
        assert (run["rounds"], run["sweeps"]) == (direct.rounds, len(direct.trace))

    assert tool.main(["--cycles", "10", "--seeds", "3,4", "--reps", "1"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    labels = [" ".join(row[:-2]) for row in rows[1:]]
    assert labels == [*tool.PHASES, "total", "rounds", "sweeps"]
