"""The incidence-indexed structure code against the all-pairs scans it
replaced.

The ``reference_*`` functions below are the all-pairs builders and the
whole-support candidate scan: every pair of clusters is intersected, and
every member of a family is tested for containment.  The indexed versions
only meet clusters that share a variable, which must not change a single
value: specs are compared with ``==`` and in ``extended_clusters`` order,
stealth candidates field by field with their scores.
"""

from itertools import combinations

import numpy as np
import pytest

import maplp.pursuit as pursuit
from maplp import (
    FactorGraph,
    RelaxationSpec,
    SolverParams,
    dd_spec,
    gmplp_spec,
    intersection_closure,
    max_intersection_spec,
    dual_decrease,
    pi_system_spec,
    powerset_spec,
    random_grid,
    run_with_pursuit,
    stealth_candidates,
    XorShift64Star,
)
from maplp.pursuit import StealthCandidate

from conftest import decoded_projection, frustrated_cycle, random_clusters_graph, route_search


def canonical(clusters):
    return tuple(sorted(set(clusters), key=lambda c: (len(c), c)))


def reference_pairwise_intersections(clusters):
    cs = list(clusters)
    out = set()
    for a, b in combinations(cs, 2):
        shared = tuple(sorted(set(a) & set(b)))
        if shared:
            out.add(shared)
    out.update(cs)
    return out


def reference_gmplp_spec(graph):
    cset = graph.clusters
    inter = reference_pairwise_intersections(cset)
    subs = {c: tuple(s for s in canonical(inter) if set(s) <= set(c)) for c in cset}
    return RelaxationSpec(cset, subs)


def reference_intersection_closure(clusters):
    closed = set(clusters)
    work = list(closed)
    while work:
        a = work.pop()
        for b in list(closed):
            shared = tuple(sorted(set(a) & set(b)))
            if shared and shared not in closed:
                closed.add(shared)
                work.append(shared)
    return closed


def reference_pi_system_spec(graph):
    ext = canonical(reference_intersection_closure(graph.clusters))
    subs = {}
    for c in ext:
        inside = [s for s in ext if s != c and set(s) < set(c)]
        subs[c] = tuple(
            s for s in inside if not any(t != s and set(s) < set(t) for t in inside)
        )
    return RelaxationSpec(ext, subs)


def reference_max_intersection_spec(graph):
    cset = graph.clusters
    maximal = tuple(c for c in cset if not any(c != d and set(c) < set(d) for d in cset))
    receivers = set(cset) | reference_pairwise_intersections(maximal)
    subs = {c: tuple(s for s in canonical(receivers) if set(s) < set(c)) for c in maximal}
    return RelaxationSpec(maximal, subs)


def reference_powerset_spec(graph):
    family = {s for c in graph.clusters for r in range(1, len(c) + 1)
              for s in combinations(c, r)}
    ext = canonical(family)
    return RelaxationSpec(ext, {c: tuple(s for s in ext if len(s) == len(c) - 1
                                         and set(s) < set(c)) for c in ext})


BUILDERS = [
    (gmplp_spec, reference_gmplp_spec),
    (pi_system_spec, reference_pi_system_spec),
    (max_intersection_spec, reference_max_intersection_spec),
]


def assert_same_specs(graph, builders=BUILDERS):
    """``==`` specs with the same extended-cluster order, sub-cluster
    tuples and support as the references, and the same closure."""
    for builder, reference in builders:
        spec, want = builder(graph), reference(graph)
        assert spec == want, builder.__name__
        assert spec.extended_clusters == want.extended_clusters, builder.__name__
        assert [spec.subs_of(c) for c in spec.extended_clusters] == [
            want.subs_of(c) for c in want.extended_clusters], builder.__name__
        assert spec.support == want.support, builder.__name__
    assert intersection_closure(graph.clusters) == reference_intersection_closure(graph.clusters)


def mixed_order_graph(seed, n=30, count=60):
    """Binary variables, each alone, and ``count`` clusters of 3, 4 or 5
    variables drawn from windows of 7, so that clusters nest and share one
    to four variables."""
    rng = XorShift64Star(seed)
    clusters = [(v,) for v in range(n)]
    for _ in range(count):
        order, start = 3 + rng.next_u64() % 3, rng.next_u64() % (n - 6)
        scope = set()
        while len(scope) < order:
            scope.add(start + rng.next_u64() % 7)
        clusters.append(tuple(sorted(scope)))
    return FactorGraph([2] * n, clusters, [np.zeros(2 ** len(c)) for c in clusters])


def test_conftest_graphs_match_reference(chain_of_triples, clique_grid):
    for graph in (chain_of_triples, clique_grid, frustrated_cycle(0)):
        assert_same_specs(graph)


@pytest.mark.parametrize("seed", [0, 1])
def test_sixteen_grid_matches_reference(seed):
    assert_same_specs(random_grid(16, 16, 3, seed))


def test_sixteen_grid_powerset_matches_reference():
    graph = random_grid(16, 16, 3, 0)
    assert_same_specs(graph, [(powerset_spec, reference_powerset_spec)])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mixed_order_clusters_match_reference(seed):
    graph = mixed_order_graph(seed)
    assert {len(c) for c in graph.clusters} == {1, 3, 4, 5}
    assert_same_specs(graph, [*BUILDERS, (powerset_spec, reference_powerset_spec)])


def test_twelve_variable_instances_match_reference():
    for seed in range(40):
        assert_same_specs(random_clusters_graph(seed, max_vars=12))


def reference_stealth_candidates(spec, beliefs, *, max_order=pursuit.DEFAULT_UNION_ORDER_CAP):
    """The candidate search with a scan of the whole support per candidate."""
    support = spec.support
    senders = {}
    for c in spec.extended_clusters:
        for s in spec.proper_subs_of(c):
            senders.setdefault(s, []).append(c)
    common_parent = {
        frozenset(pair)
        for c in spec.extended_clusters
        for pair in combinations(spec.proper_subs_of(c), 2)
    }
    best = {}
    for t, cs in sorted(senders.items()):
        for c1, c2 in combinations(sorted(cs), 2):
            if frozenset((c1, c2)) in common_parent:
                continue
            if decoded_projection(beliefs[c1], c1, t) == decoded_projection(beliefs[c2], c2, t):
                continue
            union = tuple(sorted(set(c1) | set(c2)))
            if len(union) > max_order:
                continue
            subs = tuple(s for s in support if s != union and set(s) < set(union))
            card = dict(zip(c1 + c2, beliefs[c1].shape + beliefs[c2].shape))
            zeros = np.zeros([card[v] for v in union])
            score = dual_decrease({**beliefs, union: zeros}, union, subs)
            if union not in best or score > best[union].score:
                best[union] = StealthCandidate((c1, c2), t, union, subs, score)
    return sorted(best.values(), key=lambda c: (-c.score, c.union))


def checked_pursuit(monkeypatch, graph, params):
    """Run pursuit, comparing every round's candidates, from the index it
    keeps, with the reference; returns the number of rounds checked."""
    rounds = []

    def checked(spec, beliefs, got, index):
        want = reference_stealth_candidates(spec, beliefs)
        assert [(c.parents, c.shared, c.union, c.sub_clusters, c.score) for c in got] == [
            (c.parents, c.shared, c.union, c.sub_clusters, c.score) for c in want
        ]
        rounds.append(len(got))
        return got

    route_search(monkeypatch, checked)
    result = run_with_pursuit(graph, dd_spec(graph), params)
    assert result.closed
    return len(rounds)


def disjoint_cycles(seeds):
    cards, clusters, tables = [], [], []
    for seed in seeds:
        g = frustrated_cycle(seed)
        offset = len(cards)
        cards += g.cardinalities
        for p in g.potentials:
            clusters.append(tuple(v + offset for v in p.scope))
            tables.append(p.values)
    return FactorGraph(cards, clusters, tables)


def test_candidates_match_reference_on_cycle_family(monkeypatch):
    params = SolverParams(max_sweeps=500, pursuit_sweeps=50)
    for seed in range(5):
        assert checked_pursuit(monkeypatch, frustrated_cycle(seed), params) >= 1
    assert checked_pursuit(monkeypatch, disjoint_cycles(range(10)), params) >= 1


def test_candidates_match_reference_on_grid(monkeypatch):
    params = SolverParams(max_sweeps=100, pursuit_sweeps=10, clusters_per_round=10)
    assert checked_pursuit(monkeypatch, random_grid(6, 6, 3, 0), params) >= 2

