"""Diagram reductions on random small binary cluster families: each one is
certified by the exact rank oracle against the unreduced all-subsets
diagram, and dropping an edge gets the pair-ordered reference's verdict."""

import pytest

from maplp import (
    PolytopeDiagram,
    affine_system_equal,
    affine_system_implies,
    all_subsets_spec,
    constraint_system,
    diagram_from_relaxation,
    max_intersection_spec,
    pi_system_spec,
    powerset_spec,
    redundant_nodes,
    reduce_edges,
    remove_node,
)

from conftest import build_graph
from test_oracle import reference_verdicts

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def binary_families(draw):
    """Three to six binary variables, one to six clusters of two or three
    variables, every variable covered (by a singleton if need be)."""
    n = draw(st.integers(3, 6))
    scopes = draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=2, max_size=3),
        min_size=1, max_size=6, unique_by=frozenset,
    ))
    clusters = [tuple(sorted(s)) for s in scopes]
    covered = set().union(*scopes)
    clusters += [(v,) for v in range(n) if v not in covered]
    return build_graph([2] * n, clusters)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(graph=binary_families())
def test_reductions_certified_against_all_subsets(graph):
    base = diagram_from_relaxation(all_subsets_spec(graph), graph.clusters)
    before = constraint_system(base, graph.cardinalities)

    def certified(diagram):
        return affine_system_equal(
            before, constraint_system(diagram, graph.cardinalities)
        )

    assert certified(reduce_edges(base))
    for v in sorted(redundant_nodes(base)):
        assert certified(remove_node(base, v))
    for builder in (powerset_spec, pi_system_spec, max_intersection_spec):
        assert certified(diagram_from_relaxation(builder(graph), graph.clusters))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(graph=binary_families(), data=st.data())
def test_dropped_edge_verdicts_match_reference(graph, data):
    base = diagram_from_relaxation(all_subsets_spec(graph), graph.clusters)
    edge = data.draw(st.sampled_from(sorted(e for e in base.edges if e[0] != e[1])))
    looser = PolytopeDiagram(base.nodes, base.edges - {edge}, base.anchor_clusters)
    a = constraint_system(base, graph.cardinalities)
    b = constraint_system(looser, graph.cardinalities)
    assert (
        affine_system_equal(a, b), affine_system_implies(a, b), affine_system_implies(b, a)
    ) == reference_verdicts(a, b)
