"""The primal LP of a diagram as ground truth for its objective.

The rank oracle compares equality subspaces only; this solves the LP itself:
the diagram's marginalisation rows, one normalisation row per table,
``mu >= 0``, and the original clusters' potentials as the objective.  Every
reduction must keep the LP optimum, and no dual the solver reaches may lie
below it (weak duality).
"""

import numpy as np
import pytest

from maplp import (
    all_subsets_spec,
    brute_force_map,
    constraint_system,
    cycle_spec,
    dd_spec,
    diagram_from_relaxation,
    gmplp_spec,
    max_intersection_spec,
    pi_system_spec,
    powerset_spec,
    random_grid,
    redundant_nodes,
    reduce_edges,
    relaxation_from_diagram,
    remove_node,
    run,
    SolverParams,
    table_cells,
)

from conftest import CHAIN_CLUSTERS, GRID_CLIQUES, build_graph

scipy = pytest.importorskip("scipy")
from scipy.optimize import linprog  # noqa: E402
from scipy.sparse import coo_array  # noqa: E402

BUILDERS = [gmplp_spec, dd_spec, cycle_spec, powerset_spec, pi_system_spec,
            max_intersection_spec, all_subsets_spec]
GRAPHS = {
    "chain": lambda: build_graph([2] * 5, CHAIN_CLUSTERS, seed=0),
    "clique-grid": lambda: build_graph([2] * 9, GRID_CLIQUES, seed=0),
    **{f"grid-3x3x2-s{s}": (lambda s=s: random_grid(3, 3, 2, s)) for s in range(4)},
}


def lp_optimum(diagram, graph):
    """Maximum of the original potentials over the diagram's local polytope."""
    system = constraint_system(diagram, graph.cardinalities)
    column = {key: j for j, key in enumerate(system.variable_index)}
    entries = [(i, j, v) for i, row in enumerate(system.rows) for j, v in row]
    n = len(system.rows)
    for t in diagram.nodes:
        start = column[t, 0]
        entries += [(n, start + k, 1) for k in range(table_cells(t, graph.cardinalities))]
        n += 1
    i, j, v = zip(*entries)
    a_eq = coo_array((v, (i, j)), shape=(n, len(column)))
    b_eq = np.zeros(n)
    b_eq[len(system.rows):] = 1
    cost = np.zeros(len(column))
    for p in graph.potentials:
        start = column[p.scope, 0]
        cost[start:start + p.values.size] -= p.values.reshape(-1)
    result = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert result.status == 0, result.message
    return -result.fun


@pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("name", GRAPHS)
def test_reductions_keep_the_lp_optimum(name, builder):
    graph = GRAPHS[name]()
    d = diagram_from_relaxation(builder(graph), graph.clusters)
    optimum = lp_optimum(d, graph)
    assert lp_optimum(reduce_edges(d), graph) == pytest.approx(optimum, abs=1e-7)
    for v in sorted(redundant_nodes(d)):
        assert lp_optimum(remove_node(d, v), graph) == pytest.approx(optimum, abs=1e-7), v


@pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("name", GRAPHS)
def test_every_dual_is_at_least_the_lp_optimum(name, builder):
    graph = GRAPHS[name]()
    spec = builder(graph)
    optimum = lp_optimum(diagram_from_relaxation(spec, graph.clusters), graph)
    for record in run(graph, spec).trace.records:
        assert record.dual >= optimum - 1e-9, record.sweep


def test_gmplp_lp_optimum_on_the_4x4_grid_is_the_map():
    graph = random_grid(4, 4, 2, 0)
    optimum = lp_optimum(diagram_from_relaxation(gmplp_spec(graph), graph.clusters), graph)
    assert optimum == pytest.approx(18.992011, abs=1e-6)
    assert optimum == pytest.approx(brute_force_map(graph).value, abs=1e-7)


@pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("name", GRAPHS)
def test_round_trip_keeps_support_and_optimum(name, builder):
    """A diagram turned back into a relaxation keeps every node, also one
    with no edge (the chain's ``(2,)`` under ``cycle_spec``), so it keeps
    the LP optimum and solves."""
    graph = GRAPHS[name]()
    spec = builder(graph)
    d = diagram_from_relaxation(spec, graph.clusters)
    back = relaxation_from_diagram(d)
    assert back.support == spec.support
    optimum = lp_optimum(d, graph)
    assert lp_optimum(diagram_from_relaxation(back, graph.clusters), graph) == pytest.approx(
        optimum, abs=1e-7)
    assert run(graph, back).dual >= optimum - 1e-9


CONVERGED = SolverParams(max_sweeps=5000)


@pytest.mark.parametrize("builder", [gmplp_spec, powerset_spec, pi_system_spec,
                                     max_intersection_spec], ids=lambda b: b.__name__)
@pytest.mark.parametrize("size, states", [(4, 2), (5, 3), (6, 3)])
def test_full_specs_reach_their_lp_optimum(size, states, builder):
    """Run to convergence, the full intersection-based specs stop at their
    LP optimum (measured gaps are at most 5e-14)."""
    graph = random_grid(size, size, states, 0)
    spec = builder(graph)
    optimum = lp_optimum(diagram_from_relaxation(spec, graph.clusters), graph)
    assert run(graph, spec, CONVERGED).dual == pytest.approx(optimum, abs=1e-7)


def test_reduced_gmplp_stalls_above_its_lp_optimum():
    """A finding, not a bound: descent on the edge-reduced gmplp diagram
    stops at 21.663124 on 4x4x2 seed 0, although the reduction keeps the
    LP optimum 18.992011."""
    graph = random_grid(4, 4, 2, 0)
    reduced = reduce_edges(diagram_from_relaxation(gmplp_spec(graph), graph.clusters))
    assert lp_optimum(reduced, graph) == pytest.approx(18.992011, abs=1e-6)
    result = run(graph, relaxation_from_diagram(reduced), CONVERGED)
    assert not result.truncated
    assert result.dual == pytest.approx(21.663124, abs=1e-6)


def test_full_dd_stalls_above_its_lp_optimum():
    """A finding, not a bound: ``dd`` block descent on 4x4x2 seed 0 stops
    0.147833 above its own LP optimum 20.844086."""
    graph = random_grid(4, 4, 2, 0)
    spec = dd_spec(graph)
    optimum = lp_optimum(diagram_from_relaxation(spec, graph.clusters), graph)
    assert optimum == pytest.approx(20.844086, abs=1e-6)
    result = run(graph, spec, CONVERGED)
    assert not result.truncated
    assert result.dual - optimum == pytest.approx(0.147833, abs=1e-6)
