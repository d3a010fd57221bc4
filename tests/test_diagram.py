"""Diagram conversions, edge equivalence, redundancy and reductions.

The two reference graphs have known reduction behaviour; every structural
claim asserted here is double-checked against the exact rank oracle.
"""

import numpy as np
import pytest

from maplp import (
    DiagramError,
    PolytopeDiagram,
    affine_system_equal,
    all_subsets_spec,
    constraint_system,
    cycle_spec,
    dd_spec,
    diagram_from_relaxation,
    dump,
    equivalent_edge_classes,
    gmplp_spec,
    max_intersection_spec,
    pi_system_spec,
    powerset_spec,
    random_grid,
    redundant_nodes,
    reduce_edges,
    relaxation_from_diagram,
    remove_node,
)

from conftest import CHAIN_CLUSTERS, GRID_CLIQUES, build_graph, random_clusters_graph


def middle_chain_diagram():
    """The reduced chain-of-triples diagram: spine edges between triples and
    their shared pairs, plus five equivalent edges into the singleton {2}."""
    nodes = {(0, 1, 2), (1, 2, 3), (2, 3, 4), (1, 2), (2, 3), (2,)}
    edges = {
        ((0, 1, 2), (1, 2)),
        ((1, 2, 3), (1, 2)),
        ((1, 2, 3), (2, 3)),
        ((2, 3, 4), (2, 3)),
        ((0, 1, 2), (2,)),
        ((1, 2, 3), (2,)),
        ((2, 3, 4), (2,)),
        ((1, 2), (2,)),
        ((2, 3), (2,)),
    }
    anchors = {(0, 1, 2), (1, 2, 3), (2, 3, 4), (2,)}
    return PolytopeDiagram(frozenset(nodes), frozenset(edges), frozenset(anchors))


class TestConversions:
    def test_dd_diagram_on_chain(self, chain_of_triples):
        d = diagram_from_relaxation(dd_spec(chain_of_triples), chain_of_triples.clusters)
        triples = [c for c in chain_of_triples.clusters if len(c) == 3]
        for c in triples:
            for v in c:
                assert (c, (v,)) in d.edges
        assert d.outgoing((2,)) == []

    def test_gmplp_diagram_has_self_edges(self, chain_of_triples):
        d = diagram_from_relaxation(gmplp_spec(chain_of_triples), chain_of_triples.clusters)
        assert ((0, 1, 2), (0, 1, 2)) in d.edges

    def test_empty_sub_cluster_map_gives_no_edges(self, chain_of_triples):
        from maplp import RelaxationSpec

        spec = RelaxationSpec(chain_of_triples.clusters, {})
        d = diagram_from_relaxation(spec, chain_of_triples.clusters)
        assert d.edges == frozenset()
        assert d.nodes == frozenset(chain_of_triples.clusters)

    def test_round_trip_preserves_edges(self, chain_of_triples):
        spec = gmplp_spec(chain_of_triples)
        d = diagram_from_relaxation(spec, chain_of_triples.clusters)
        back = relaxation_from_diagram(d)
        d2 = diagram_from_relaxation(back, ())
        assert d2.edges == d.edges

    def test_receive_only_nodes_excluded_from_senders(self, chain_of_triples):
        d = diagram_from_relaxation(dd_spec(chain_of_triples), chain_of_triples.clusters)
        spec = relaxation_from_diagram(d)
        assert (0,) not in spec.extended_clusters

    def test_dd_recovery_yields_singletons(self, chain_of_triples):
        d = diagram_from_relaxation(dd_spec(chain_of_triples), chain_of_triples.clusters)
        spec = relaxation_from_diagram(d)
        for c in spec.extended_clusters:
            assert spec.subs_of(c) == tuple((v,) for v in c)

    def test_invalid_edge_rejected(self):
        with pytest.raises(DiagramError):
            PolytopeDiagram(
                frozenset({(0,), (1,)}), frozenset({((0,), (1,))}), frozenset()
            )

    @pytest.mark.parametrize(
        "nodes, bad",
        [
            ({(0, 0), (0,)}, r"\(0, 0\)"),
            ({(0, 1), (1, 0), (0,)}, r"\(1, 0\)"),
            ({(-1,)}, r"\(-1,\)"),
            ({(True,)}, r"\(True,\)"),
            ({(0.0,)}, r"\(0\.0,\)"),
            ({(np.int64(0),)}, r"\(np\.int64\(0\),\)"),
            ({frozenset({0})}, r"frozenset\(\{0\}\)"),
        ],
        ids=["repeated", "unsorted", "negative", "bool", "float", "numpy-int", "not-a-tuple"],
    )
    def test_node_that_is_not_a_cluster_rejected(self, nodes, bad):
        with pytest.raises(DiagramError, match=f"node {bad} is not"):
            PolytopeDiagram(frozenset(nodes), frozenset(), frozenset())

    def test_repeated_variable_node_with_edge_rejected(self):
        # used to construct and give the one binary variable a 4-cell table
        with pytest.raises(DiagramError, match=r"node \(0, 0\)"):
            PolytopeDiagram({(0, 0), (0,)}, {((0, 0), (0,))}, {(0, 0)})


class TestEdgeEquivalence:
    def test_chain_edges_into_singleton_form_one_class(self):
        d = middle_chain_diagram()
        classes = equivalent_edge_classes(d, {(2,)})[(2,)]
        assert len(classes) == 1
        assert classes[0] == frozenset(
            {(0, 1, 2), (1, 2, 3), (2, 3, 4), (1, 2), (2, 3)}
        )

    def test_single_edge_is_singleton_class(self):
        d = PolytopeDiagram(
            frozenset({(0, 1), (0,)}),
            frozenset({((0, 1), (0,))}),
            frozenset(),
        )
        classes = equivalent_edge_classes(d, {(0,)})[(0,)]
        assert classes == (frozenset({(0, 1)}),)

    def test_chain_rule_certified_by_rank_oracle(self):
        # {0,1,2} > {0,1} > {0} with the long-to-middle edge present: the
        # long and short edges into {0} are interchangeable.
        nodes = {(0, 1, 2), (0, 1), (0,)}
        base = {((0, 1, 2), (0, 1))}
        with_long = PolytopeDiagram(
            frozenset(nodes), frozenset(base | {((0, 1, 2), (0,))}), frozenset()
        )
        with_short = PolytopeDiagram(
            frozenset(nodes), frozenset(base | {((0, 1), (0,))}), frozenset()
        )
        classes = equivalent_edge_classes(with_long, {(0,)})[(0,)]
        assert frozenset({(0, 1, 2), (0, 1)}) in classes
        assert affine_system_equal(
            constraint_system(with_long, [2, 2, 2]),
            constraint_system(with_short, [2, 2, 2]),
        )

    def test_partition_is_disjoint_and_exhaustive(self, clique_grid):
        d = diagram_from_relaxation(all_subsets_spec(clique_grid), clique_grid.clusters)
        eq = equivalent_edge_classes(d)
        for t in d.nodes:
            groups = eq[t]
            union = set()
            for g in groups:
                assert not (union & g)
                union |= g
            assert union == {v for v in d.nodes if set(t) < set(v)}


class TestRedundantNodes:
    def test_single_incoming_edge_reported(self):
        d = PolytopeDiagram(
            frozenset({(0, 1), (0,)}),
            frozenset({((0, 1), (0,))}),
            frozenset({(0, 1)}),
        )
        assert redundant_nodes(d) == {(0,)}

    def test_anchor_never_reported(self):
        d = PolytopeDiagram(
            frozenset({(0, 1), (0,)}),
            frozenset({((0, 1), (0,))}),
            frozenset({(0, 1), (0,)}),
        )
        assert redundant_nodes(d) == set()

    def test_clique_grid_baseline_reports_caption_nodes(self, clique_grid):
        d = diagram_from_relaxation(all_subsets_spec(clique_grid), clique_grid.clusters)
        red = redundant_nodes(d)
        expected = {(1, 3, 4), (1, 4, 5), (3, 4, 7), (4, 5, 7), (4,)}
        assert expected <= red
        # nodes outside the intersection closure are redundant; (1, 4) is in
        # the closure and is kept
        assert (1, 3, 4) in red

    def test_no_incoming_edges_not_reported(self):
        d = PolytopeDiagram(
            frozenset({(0, 1), (0,), (1,)}),
            frozenset({((0, 1), (0,)), ((0, 1), (1,))}),
            frozenset({(0,), (1,)}),
        )
        assert (0, 1) not in redundant_nodes(d)


class TestRemoveNode:
    def test_paths_are_spliced(self):
        d = PolytopeDiagram(
            frozenset({(0, 1, 2), (0, 1), (0,), (1,)}),
            frozenset({
                ((0, 1, 2), (0, 1)),
                ((0, 1), (0,)),
                ((0, 1), (1,)),
            }),
            frozenset({(0, 1, 2)}),
        )
        r = remove_node(d, (0, 1))
        assert ((0, 1, 2), (0,)) in r.edges
        assert ((0, 1, 2), (1,)) in r.edges
        assert all((0, 1) not in e for e in r.edges)

    def test_incoming_only_node_just_deleted(self):
        d = PolytopeDiagram(
            frozenset({(0, 1), (0,)}),
            frozenset({((0, 1), (0,))}),
            frozenset({(0, 1)}),
        )
        r = remove_node(d, (0,))
        assert r.edges == frozenset()
        assert r.nodes == frozenset({(0, 1)})

    def test_refuses_anchor_and_uncertified(self, clique_grid):
        d = diagram_from_relaxation(all_subsets_spec(clique_grid), clique_grid.clusters)
        with pytest.raises(DiagramError):
            remove_node(d, GRID_CLIQUES[0])
        with pytest.raises(DiagramError):
            remove_node(d, (99,))

    def test_removals_preserve_constraint_system(self, clique_grid):
        d = diagram_from_relaxation(all_subsets_spec(clique_grid), clique_grid.clusters)
        before = constraint_system(d, clique_grid.cardinalities)
        for v in [(4, 5, 7), (1, 3, 4), (4,)]:
            after = constraint_system(remove_node(d, v), clique_grid.cardinalities)
            assert affine_system_equal(before, after)


class TestReduceEdges:
    def test_chain_keeps_one_edge_into_singleton(self):
        d = middle_chain_diagram()
        r = reduce_edges(d)
        into = [e for e in r.edges if e[1] == (2,)]
        assert len(into) == 1
        assert affine_system_equal(
            constraint_system(d, [2] * 5), constraint_system(r, [2] * 5)
        )

    def test_all_singleton_classes_unchanged(self, chain_of_triples):
        d = diagram_from_relaxation(dd_spec(chain_of_triples), chain_of_triples.clusters)
        # every target's incoming edges are pairwise inequivalent here
        assert reduce_edges(d).edges == d.edges

    def test_powerset_of_triple_leaves_only_covers(self):
        spec = all_subsets_spec(
            __import__("maplp").FactorGraph([2] * 3, [(0, 1, 2)], [np.zeros((2, 2, 2))])
        )
        d = diagram_from_relaxation(spec, ((0, 1, 2),))
        r = reduce_edges(d)
        assert all(len(c) == len(s) + 1 for c, s in r.edges)
        assert affine_system_equal(
            constraint_system(d, [2] * 3), constraint_system(r, [2] * 3)
        )

    def test_reduction_preserves_system_on_clique_grid(self, clique_grid):
        d = diagram_from_relaxation(all_subsets_spec(clique_grid), clique_grid.clusters)
        r = reduce_edges(d)
        assert len(r.edges) < len(d.edges)
        assert affine_system_equal(
            constraint_system(d, clique_grid.cardinalities),
            constraint_system(r, clique_grid.cardinalities),
        )


class TestTransformsPreservePolytope:
    """Master property: on random small instances, every reduction the
    package performs leaves the marginalisation equality system unchanged
    according to the exact oracle."""

    def test_random_instances(self):
        from conftest import random_clusters_graph

        for seed in range(6):
            g = random_clusters_graph(seed, max_vars=7)
            d = diagram_from_relaxation(all_subsets_spec(g), g.clusters)
            before = constraint_system(d, g.cardinalities)

            reduced = reduce_edges(d)
            assert affine_system_equal(
                before, constraint_system(reduced, g.cardinalities)
            )

            for v in sorted(redundant_nodes(d))[:4]:
                after = constraint_system(remove_node(d, v), g.cardinalities)
                assert affine_system_equal(before, after)


class TestDump:
    def test_golden_listing(self):
        d = PolytopeDiagram(
            frozenset({(0, 1), (0,), (1,)}),
            frozenset({((0, 1), (0,)), ((0, 1), (1,))}),
            frozenset(),
        )
        assert dump(d) == "{1,2} -> {1}\n{1,2} -> {2}"

    def test_reduced_chain_golden(self):
        r = reduce_edges(middle_chain_diagram())
        assert dump(r) == "\n".join([
            "{2,3} -> {3}",
            "{1,2,3} -> {2,3}",
            "{2,3,4} -> {2,3}",
            "{2,3,4} -> {3,4}",
            "{3,4,5} -> {3,4}",
        ])


class TestAgainstTheLiteralRules:
    """The calculus against a union-find applying the paper's two rules as
    stated, with the single-incoming-edge shortcuts: equal with ``==``."""

    BUILDERS = (gmplp_spec, dd_spec, cycle_spec, powerset_spec, pi_system_spec,
                max_intersection_spec, all_subsets_spec)

    @staticmethod
    def reference_classes(diagram, t):
        ts = set(t)
        senders = [v for v in diagram.nodes if ts < set(v)]
        parent = {v: v for v in senders}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        def union(a, b):
            parent[find(b)] = find(a)

        edges = [(c, s) for c, s in diagram.edges if c != s and ts < set(s)]
        # Rule 1: (c -> s) with t < s < c joins the long and the short edge.
        for c, s in edges:
            if set(s) < set(c):
                union(c, s)
        # Rule 2: two receivers of one sender are equivalent senders.
        by_source = {}
        for c, s in edges:
            by_source.setdefault(c, []).append(s)
        for receivers in by_source.values():
            for other in receivers[1:]:
                union(receivers[0], other)
        groups = {}
        for v in senders:
            groups.setdefault(find(v), set()).add(v)
        return tuple(frozenset(g) for g in sorted(groups.values(), key=min))

    def assert_matches(self, d):
        classes = {t: self.reference_classes(d, t) for t in d.nodes}
        redundant, keep = set(), {(c, s) for c, s in d.edges if c == s}
        for t in d.nodes:
            inc = {c for c, s in d.edges if s == t and c != t}
            # the shortcut as first written: a lone source is its own class
            groups = classes[t] if len(inc) > 1 else [inc]
            if t not in d.anchor_clusters and inc and any(inc <= g for g in groups):
                redundant.add(t)
            for g in groups:
                if inc & g:
                    keep.add((min(inc & g, key=lambda c: (len(c), c)), t))
        assert equivalent_edge_classes(d) == classes
        assert redundant_nodes(d) == redundant
        assert reduce_edges(d).edges == keep

    @pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
    def test_reference_graphs(self, builder):
        graphs = [build_graph([2] * 5, CHAIN_CLUSTERS), build_graph([2] * 9, GRID_CLIQUES),
                  random_grid(3, 3, 2, 0), random_clusters_graph(0, max_vars=7)]
        for g in graphs:
            self.assert_matches(diagram_from_relaxation(builder(g), g.clusters))
        self.assert_matches(middle_chain_diagram())

    def test_random_binary_families(self):
        hypothesis = pytest.importorskip("hypothesis")
        from test_diagram_properties import binary_families

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(graph=binary_families())
        def check(graph):
            for builder in self.BUILDERS:
                self.assert_matches(diagram_from_relaxation(builder(graph), graph.clusters))

        check()
