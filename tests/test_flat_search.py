"""The gathers that make a pursuit round cheap, checked bit for bit.

* The primal evaluates every potential with one gather of flat indices
  and one sequential accumulate; it must equal ``energy`` as bytes.
* The candidate search scores every union with one padded gather per union
  shape; each score must equal ``dual_decrease`` of the union at a zero
  table as bytes, also in batches whose unions have different sub counts.
* In belief mode the search reads the sweep's store in place, so the store
  must hold every table at the offset the search index expects.
"""

import numpy as np
import pytest

import maplp.pursuit as pursuit
from maplp import (
    FactorGraph,
    SolverParams,
    XorShift64Star,
    dd_spec,
    dual_decrease,
    energy,
    gmplp_spec,
    max_intersection_spec,
    random_grid,
    run_with_pursuit,
)
from maplp.engine import _Primal
from maplp.factor_graph import table_shape

from conftest import frustrated_cycle, random_clusters_graph, route_search


def bits(x):
    return np.float64(x).tobytes()


def random_states(graph, rng, count):
    return [[int(rng.next_u64() % k) for k in graph.cardinalities] for _ in range(count)]


def seeded_graph(cards, clusters, seed):
    rng = XorShift64Star(seed)
    tables = [rng.normals(int(np.prod([cards[v] for v in c]))) for c in clusters]
    return FactorGraph(cards, clusters, tables)


def signed_zero_graph():
    """Tables of zeros of both signs: the energy of an all ``-0.0`` pick
    is ``0.0`` only if the sum starts from ``0.0``."""
    clusters = [(0,), (0, 1), (1, 2), (2,)]
    tables = [np.array([-0.0, 1.0]), np.array([-0.0, 0.0, -0.0, 2.0]),
              np.array([-0.0, -0.0, 0.5, -0.0]), np.array([-0.0, -0.0])]
    return FactorGraph([2, 2, 2], clusters, tables)


PRIMAL_GRAPHS = {
    "grid": random_grid(6, 6, 3, seed=0),
    "mixed and unit cardinalities": seeded_graph(
        [2, 3, 2, 2, 3, 1],
        [(0,), (1,), (5,), (0, 1), (1, 2), (0, 1, 2), (2, 3, 4), (4, 5), (1, 4, 5), (0, 3, 5)], 0),
    "signed zeros": signed_zero_graph(),
    "no potentials": FactorGraph([2, 3], [], []),
}


@pytest.mark.parametrize("name", PRIMAL_GRAPHS)
def test_primal_matches_energy_as_bytes(name):
    graph = PRIMAL_GRAPHS[name]
    primal, rng = _Primal(graph), XorShift64Star(7)
    for x in random_states(graph, rng, 200):
        assert bits(primal(x)) == bits(energy(graph, x)), x


def test_primal_of_signed_zeros_is_positive_zero():
    assert bits(_Primal(signed_zero_graph())([0, 0, 0])) == bits(0.0)


def test_primal_matches_energy_on_twelve_variable_families():
    rng = XorShift64Star(11)
    for seed in range(40):
        graph = random_clusters_graph(seed, max_vars=12)
        primal = _Primal(graph)
        for x in random_states(graph, rng, 20):
            assert bits(primal(x)) == bits(energy(graph, x)), (seed, x)


def cycle_union(count, seed):
    master, cards, clusters, tables = XorShift64Star(seed), [], [], []
    for _ in range(count):
        g = frustrated_cycle(master.next_u64())
        for p in g.potentials:
            clusters.append(tuple(v + len(cards) for v in p.scope))
            tables.append(p.values)
        cards += g.cardinalities
    return FactorGraph(cards, clusters, tables)


def checked_scores(monkeypatch, graph, builder, params):
    """Run pursuit and check every round's candidate scores against
    ``dual_decrease`` as bytes; returns the rounds searched and how many
    of them scored unions of one shape with different sub counts."""
    rounds, mixed = [], 0

    def checked(spec, beliefs, found, index):
        nonlocal mixed
        counts = {}
        for c in found:
            zero = np.zeros(table_shape(c.union, graph.cardinalities))
            want = dual_decrease({**beliefs, c.union: zero}, c.union, c.sub_clusters)
            assert bits(c.score) == bits(want), c
            counts.setdefault(zero.shape, set()).add(len(c.sub_clusters))
        mixed += any(len(n) > 1 for n in counts.values())
        rounds.append(len(found))
        return found

    route_search(monkeypatch, checked)
    run_with_pursuit(graph, builder(graph), params)
    monkeypatch.undo()
    return len(rounds), mixed


def test_scores_match_dual_decrease_on_hundred_cycles(monkeypatch):
    params = SolverParams(max_sweeps=500, pursuit_sweeps=50)
    searched, mixed = checked_scores(monkeypatch, cycle_union(100, 3), dd_spec, params)
    assert searched >= 10 and mixed >= 5


@pytest.mark.parametrize("builder", [dd_spec, max_intersection_spec, gmplp_spec])
def test_scores_match_dual_decrease_on_grids(monkeypatch, builder):
    params = SolverParams(max_sweeps=3, pursuit_sweeps=3, clusters_per_round=10)
    totals = [checked_scores(monkeypatch, random_grid(6, 6, 3, seed), builder, params)
              for seed in range(3)]
    assert all(searched >= 3 for searched, _ in totals)
    assert sum(mixed for _, mixed in totals) >= 1


@pytest.mark.parametrize("graph", [cycle_union(100, 3), random_grid(6, 6, 3, 0)],
                         ids=["cycles", "grid"])
def test_search_reads_the_store_in_the_index_layout(monkeypatch, graph):
    """Every round, the belief-mode store holds each table of the index at
    the index's offset and nothing past its cells, and the search over the
    store equals the search over a packed copy."""
    stores, checked, candidates = [], [], pursuit._candidates

    def running(graph, spec, *args, sweep=None, **kwargs):
        stores.append(sweep.store)
        return run_(graph, spec, *args, sweep=sweep, **kwargs)

    def layout(spec, beliefs, found, index):
        store = stores[-1]
        assert index.offset.tolist() == [store.where[t] for t in index.order]
        assert index.used == store.used and store.buf[0] == 0.0
        packed = index.pack(beliefs)
        assert np.array_equal(packed, store.buf[:store.used])
        assert candidates(index, packed, pursuit.DEFAULT_UNION_ORDER_CAP) == found
        checked.append(spec)
        return found

    route_search(monkeypatch, layout)
    run_ = pursuit._run
    monkeypatch.setattr(pursuit, "_run", running)
    run_with_pursuit(graph, dd_spec(graph),
                     SolverParams(max_sweeps=100, pursuit_sweeps=10, clusters_per_round=10))
    assert len(checked) >= 3
