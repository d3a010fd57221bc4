"""Shared fixtures: the two reference graphs used throughout the suite,
the per-table maximiser projections that pursuit tests compare against,
and ``route_search``, which lets a test see or replace each pursuit
round's candidate search.

Both graphs appear repeatedly in the tests because their reduction behaviour
is known in closed form:

* ``chain_of_triples`` -- five binary variables with clusters
  {0,1,2}, {1,2,3}, {2,3,4} and the singleton {2}.
* ``clique_grid`` -- nine binary variables with the four 2x2 cliques of a
  3x3 grid: {0,1,3,4}, {1,2,4,5}, {3,4,6,7}, {4,5,7,8}.
"""

from __future__ import annotations

import numpy as np
import pytest

import maplp.pursuit as pursuit
from maplp import FactorGraph, XorShift64Star

CHAIN_CLUSTERS = ((0, 1, 2), (1, 2, 3), (2, 3, 4), (2,))
GRID_CLIQUES = ((0, 1, 3, 4), (1, 2, 4, 5), (3, 4, 6, 7), (4, 5, 7, 8))
MAXIMISER_TOL = 1e-9


def build_graph(cardinalities, clusters, seed=None, scale=1.0):
    """Graph over the given clusters; zero tables, or seeded normals."""
    rng = XorShift64Star(seed) if seed is not None else None
    tables = []
    for c in clusters:
        size = 1
        for v in c:
            size *= cardinalities[v]
        if rng is None:
            tables.append(np.zeros(size))
        else:
            tables.append(rng.normals(size) * scale)
    return FactorGraph(cardinalities, clusters, tables)


def decoded_projection(table, scope, target):
    """Projection onto ``target`` of the decoded (first flat-index) maximiser."""
    conf = np.unravel_index(int(np.argmax(table)), table.shape)
    return tuple(int(conf[scope.index(v)]) for v in target)


def maximiser_projections(table, scope, target):
    """Projections onto ``target`` of every near-maximal configuration."""
    flat = table.reshape(-1)
    hits = np.flatnonzero(flat >= flat.max() - MAXIMISER_TOL)
    confs = np.unravel_index(hits, table.shape)
    positions = [scope.index(v) for v in target]
    return {tuple(int(confs[p][i]) for p in positions) for i in range(len(hits))}


@pytest.fixture
def chain_of_triples():
    return build_graph([2] * 5, CHAIN_CLUSTERS)


@pytest.fixture
def chain_of_triples_random():
    return build_graph([2] * 5, CHAIN_CLUSTERS, seed=0)


@pytest.fixture
def clique_grid():
    return build_graph([2] * 9, GRID_CLIQUES)


def frustrated_cycle(seed: int, noise: float = 0.02) -> FactorGraph:
    """Four binary variables in a cycle; three edges reward disagreement and
    one rewards agreement, with seeded entry-wise perturbations."""
    rng = XorShift64Star(seed)
    agree = np.array([[1.0, 0.0], [0.0, 1.0]])
    disagree = np.array([[0.0, 1.0], [1.0, 0.0]])
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    tables = []
    for i, _ in enumerate(edges):
        base = agree if i == 3 else disagree
        tables.append(base + rng.normals(4).reshape(2, 2) * noise)
    return FactorGraph([2] * 4, edges, tables)


def random_clusters_graph(seed: int, max_vars: int = 12) -> FactorGraph:
    """Random binary instance: a spanning set of small clusters over
    2..max_vars variables, at most 4096 joint configurations."""
    rng = XorShift64Star(seed)
    n = 2 + rng.next_u64() % (max_vars - 1)
    clusters: list[tuple[int, ...]] = [(i,) for i in range(n)]
    n_extra = 2 + rng.next_u64() % (2 * n)
    seen = {c for c in clusters}
    for _ in range(n_extra):
        order = 2 + rng.next_u64() % 3
        scope = set()
        while len(scope) < min(order, n):
            scope.add(rng.next_u64() % n)
        c = tuple(sorted(scope))
        if c not in seen:
            seen.add(c)
            clusters.append(c)
    tables = []
    for c in clusters:
        tables.append(rng.normals(2 ** len(c)))
    return FactorGraph([2] * n, clusters, tables)


def route_search(monkeypatch, search):
    """Make each round of ``run_with_pursuit`` take its candidates from
    ``search(spec, beliefs, found, index)``: ``spec`` is the spec the round
    just solved and ``beliefs`` its solved tables, ``index`` the search
    index pursuit keeps and ``found`` what pursuit's own search over it
    gives."""
    solved = []
    run, candidates = pursuit._run, pursuit._candidates

    def running(graph, spec, *args, **kwargs):
        result = run(graph, spec, *args, **kwargs)
        solved.append((spec, result.beliefs))
        return result

    def routed(index, buf, max_order):
        found = candidates(index, buf, max_order)
        return search(*solved[-1], found, index)

    monkeypatch.setattr(pursuit, "_candidates", routed)
    monkeypatch.setattr(pursuit, "_run", running)
