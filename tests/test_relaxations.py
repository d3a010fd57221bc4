"""The six relaxation builders and their structural and polytope claims."""

import itertools

import numpy as np
import pytest

from maplp import (
    FactorGraph,
    RelaxationError,
    RelaxationSpec,
    affine_system_equal,
    affine_system_implies,
    all_subsets_spec,
    constraint_system,
    covers,
    cycle_spec,
    dd_spec,
    diagram_from_relaxation,
    gmplp_spec,
    intersection_closure,
    max_intersection_spec,
    pi_system_spec,
    powerset_spec,
    random_grid,
)

from conftest import GRID_CLIQUES, random_clusters_graph

ALL_BUILDERS = [gmplp_spec, dd_spec, cycle_spec, powerset_spec, pi_system_spec,
                max_intersection_spec]


class TestGmplp:
    def test_chain_intersections(self, chain_of_triples):
        spec = gmplp_spec(chain_of_triples)
        assert spec.subs_of((0, 1, 2)) == ((2,), (1, 2), (0, 1, 2))

    def test_single_cluster_self_only(self):
        g = FactorGraph([2, 2], [(0, 1)], [np.zeros((2, 2))])
        assert gmplp_spec(g).subs_of((0, 1)) == ((0, 1),)

    def test_disjoint_clusters_drop_empty_intersections(self):
        g = FactorGraph([2] * 4, [(0, 1), (2, 3)], [np.zeros((2, 2))] * 2)
        spec = gmplp_spec(g)
        assert spec.subs_of((0, 1)) == ((0, 1),)
        assert spec.subs_of((2, 3)) == ((2, 3),)


class TestDd:
    def test_chain_structure(self, chain_of_triples):
        spec = dd_spec(chain_of_triples)
        assert spec.subs_of((0, 1, 2)) == ((0,), (1,), (2,))
        assert spec.subs_of((2,)) == ()

    def test_all_singletons_no_edges(self):
        g = FactorGraph([2, 2], [(0,), (1,)], [np.zeros(2)] * 2)
        spec = dd_spec(g)
        assert all(spec.subs_of(c) == () for c in spec.extended_clusters)

    def test_pair_sends_to_both_singletons(self):
        g = FactorGraph([2, 2], [(0, 1)], [np.zeros((2, 2))])
        assert dd_spec(g).subs_of((0, 1)) == ((0,), (1,))


class TestCycle:
    def test_triple_sends_to_pairs(self):
        g = FactorGraph([2] * 3, [(0, 1, 2)], [np.zeros((2,) * 3)])
        assert cycle_spec(g).subs_of((0, 1, 2)) == ((0, 1), (0, 2), (1, 2))

    def test_pair_sends_to_singletons(self):
        g = FactorGraph([2, 2], [(0, 1)], [np.zeros((2, 2))])
        assert cycle_spec(g).subs_of((0, 1)) == ((0,), (1,))

    def test_singleton_sends_nothing(self):
        g = FactorGraph([2], [(0,)], [np.zeros(2)])
        assert cycle_spec(g).subs_of((0,)) == ()


class TestPowerset:
    def test_pair_alone(self):
        g = FactorGraph([2, 2], [(0, 1)], [np.zeros((2, 2))])
        spec = powerset_spec(g)
        assert set(spec.extended_clusters) == {(0, 1), (0,), (1,)}
        assert spec.subs_of((0, 1)) == ((0,), (1,))

    def test_every_edge_is_a_cover(self, chain_of_triples):
        spec = powerset_spec(chain_of_triples)
        for c in spec.extended_clusters:
            for s in spec.subs_of(c):
                assert len(c) == len(s) + 1

    def test_system_equals_unreduced_baseline(self, chain_of_triples):
        anchors = chain_of_triples.clusters
        cards = chain_of_triples.cardinalities
        base = constraint_system(
            diagram_from_relaxation(all_subsets_spec(chain_of_triples), anchors), cards
        )
        ps = constraint_system(
            diagram_from_relaxation(powerset_spec(chain_of_triples), anchors), cards
        )
        assert affine_system_equal(base, ps)

    def test_order_cap_names_cluster(self):
        g = FactorGraph([2] * 7, [tuple(range(7))], [np.zeros((2,) * 7)])
        with pytest.raises(RelaxationError, match=r"0, 1, 2, 3, 4, 5, 6"):
            powerset_spec(g)


class TestPiSystem:
    def test_clique_grid_closure(self, clique_grid):
        closure = intersection_closure(clique_grid.clusters)
        extra = closure - set(GRID_CLIQUES)
        assert extra == {(1, 4), (3, 4), (4, 5), (4, 7), (4,)}

    def test_closed_family_is_fixpoint(self, chain_of_triples):
        closure = intersection_closure(chain_of_triples.clusters)
        assert intersection_closure(closure) == closure

    def test_maximal_subset_rule_blocks_intermediates(self, clique_grid):
        spec = pi_system_spec(clique_grid)
        assert spec.subs_of((0, 1, 3, 4)) == ((1, 4), (3, 4))

    def test_system_equals_unreduced_baseline(self, clique_grid):
        anchors = clique_grid.clusters
        cards = clique_grid.cardinalities
        base = constraint_system(
            diagram_from_relaxation(all_subsets_spec(clique_grid), anchors), cards
        )
        pi = constraint_system(
            diagram_from_relaxation(pi_system_spec(clique_grid), anchors), cards
        )
        assert affine_system_equal(base, pi)


class TestMaxIntersection:
    def test_chain_maximal_clusters(self, chain_of_triples):
        spec = max_intersection_spec(chain_of_triples)
        assert set(spec.extended_clusters) == {(0, 1, 2), (1, 2, 3), (2, 3, 4)}
        assert {(1, 2), (2, 3), (2,)} <= set(spec.subs_of((1, 2, 3)))

    def test_single_cluster_no_subs(self):
        g = FactorGraph([2, 2], [(0, 1)], [np.zeros((2, 2))])
        spec = max_intersection_spec(g)
        assert spec.extended_clusters == ((0, 1),)
        assert spec.subs_of((0, 1)) == ()

    def test_system_equals_unreduced_baseline_on_clique_grid(self, clique_grid):
        anchors = clique_grid.clusters
        cards = clique_grid.cardinalities
        base = constraint_system(
            diagram_from_relaxation(all_subsets_spec(clique_grid), anchors), cards
        )
        mi = constraint_system(
            diagram_from_relaxation(max_intersection_spec(clique_grid), anchors), cards
        )
        assert affine_system_equal(base, mi)


class TestCrossBuilderProperties:
    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_coverage_requirement(self, builder):
        for seed in range(5):
            g = random_clusters_graph(seed, max_vars=8)
            assert covers(builder(g), g)
        g = random_grid(3, 3, 2, 0)
        assert covers(builder(g), g)

    @pytest.mark.parametrize("graph_fixture", ["chain_of_triples", "clique_grid"])
    def test_reduced_relaxations_pairwise_equal(self, graph_fixture, request):
        g = request.getfixturevalue(graph_fixture)
        anchors = g.clusters
        cards = g.cardinalities
        systems = [
            constraint_system(diagram_from_relaxation(b(g), anchors), cards)
            for b in (all_subsets_spec, powerset_spec, pi_system_spec,
                      max_intersection_spec)
        ]
        for a, b in itertools.combinations(systems, 2):
            assert affine_system_equal(a, b)

    def test_dd_strictly_implied_by_gmplp(self, chain_of_triples):
        anchors = chain_of_triples.clusters
        cards = chain_of_triples.cardinalities
        g_sys = constraint_system(
            diagram_from_relaxation(gmplp_spec(chain_of_triples), anchors), cards
        )
        d_sys = constraint_system(
            diagram_from_relaxation(dd_spec(chain_of_triples), anchors), cards
        )
        assert affine_system_implies(g_sys, d_sys)
        assert not affine_system_implies(d_sys, g_sys)
        assert not affine_system_equal(g_sys, d_sys)

    def test_sub_cluster_containment_enforced(self):
        from maplp import RelaxationSpec

        with pytest.raises(RelaxationError):
            RelaxationSpec(((0, 1),), {(0, 1): ((2,),)})


class TestWithClusters:
    def test_grown_spec_equals_spec_built_whole(self, clique_grid):
        spec = max_intersection_spec(clique_grid)
        union = (0, 1, 2, 3, 4, 5)
        added = {union: GRID_CLIQUES[:2], GRID_CLIQUES[2]: ((3, 4, 6),)}
        grown = spec.with_clusters(added)
        subs = {c: spec.subs_of(c) for c in spec.extended_clusters}
        subs[union] = GRID_CLIQUES[:2]
        subs[GRID_CLIQUES[2]] += ((3, 4, 6),)
        whole = RelaxationSpec(spec.extended_clusters + (union,), subs)
        assert grown == whole and grown.extended_clusters == whole.extended_clusters
        assert grown.support == whole.support
        for c in whole.extended_clusters:
            assert grown.proper_subs_of(c) == whole.proper_subs_of(c)

    def test_added_sub_cluster_containment_enforced(self, clique_grid):
        spec = max_intersection_spec(clique_grid)
        with pytest.raises(RelaxationError, match=r"\(8,\) is not contained"):
            spec.with_clusters({(0, 1, 2, 3, 4, 5): ((8,),)})
        with pytest.raises(RelaxationError, match=r"\(8,\) is not contained"):
            spec.with_clusters({GRID_CLIQUES[0]: ((8,),)})

    def test_grown_support_and_index_extend_the_parents(self, clique_grid):
        """A grown spec's support equals one computed for the spec built
        whole, over two generations."""
        spec = max_intersection_spec(clique_grid)
        spec.support
        for added in ({(0, 1, 2, 3, 4, 5): GRID_CLIQUES[:2], GRID_CLIQUES[2]: ((3, 4, 6),)},
                      {(3, 4, 5, 6, 7, 8): GRID_CLIQUES[2:] + ((4, 5),)}):
            grown = spec.with_clusters(added)
            whole = RelaxationSpec(grown.extended_clusters, grown.sub_clusters)
            assert grown.support == whole.support
            spec = grown

    def test_derived_data_is_not_compared(self):
        a = RelaxationSpec(((0, 1), (0,)), {(0, 1): ((0,), (0, 1))})
        b = RelaxationSpec(((0, 1), (0,)), {(0, 1): ((0, 1), (0,))})
        assert a.support == ((0,), (0, 1))
        assert a == b and a.proper_subs_of((0, 1)) == ((0,),)
        assert a.proper_subs_of((1,)) == ()
