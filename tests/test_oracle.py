"""Exhaustive MAP and the exact affine-equivalence machinery."""

import itertools
from math import gcd

import numpy as np
import pytest

from maplp import (
    EnumerationCapError,
    FactorGraph,
    PolytopeDiagram,
    XorShift64Star,
    affine_system_equal,
    affine_system_implies,
    all_subsets_spec,
    brute_force_map,
    constraint_system,
    dd_spec,
    diagram_from_relaxation,
    energy,
    gmplp_spec,
    max_intersection_spec,
    pi_system_spec,
    powerset_spec,
    random_grid,
    redundant_nodes,
    reduce_edges,
    remove_node,
    table_cells,
    table_shape,
)
from maplp.oracle import AffineConstraintSystem

from conftest import CHAIN_CLUSTERS, GRID_CLIQUES, build_graph, random_clusters_graph


def slow_reference_map(graph):
    """Second, independently written enumeration: plain nested loops."""
    best_x, best_v = None, None
    for x in itertools.product(*(range(k) for k in graph.cardinalities)):
        v = 0.0
        for p in graph.potentials:
            v += p.values[tuple(x[i] for i in p.scope)]
        if best_v is None or v > best_v:
            best_x, best_v = x, v
    return best_x, best_v


class TestBruteForce:
    def test_single_binary_node(self):
        g = FactorGraph([2], [(0,)], [np.array([0.5, -0.2])])
        sol = brute_force_map(g)
        assert sol.argmax == (0,)
        assert sol.value == 0.5

    def test_all_zero_lexicographic_tie_break(self):
        g = FactorGraph([2, 3], [(0, 1)], [np.zeros((2, 3))])
        sol = brute_force_map(g)
        assert sol.argmax == (0, 0)
        assert sol.value == 0.0

    def test_matches_independent_enumeration(self):
        g = random_grid(2, 2, 3, seed=0)
        sol = brute_force_map(g)
        ref_x, ref_v = slow_reference_map(g)
        assert sol.argmax == ref_x
        assert sol.value == pytest.approx(ref_v, abs=1e-12)

    def test_matches_independent_enumeration_random_structures(self):
        for seed in range(10):
            g = random_clusters_graph(seed)
            sol = brute_force_map(g)
            ref_x, ref_v = slow_reference_map(g)
            assert sol.argmax == ref_x
            assert sol.value == pytest.approx(ref_v, abs=1e-12)

    def test_value_dominates_random_assignments(self):
        rng = XorShift64Star(17)
        for seed in range(5):
            g = random_clusters_graph(seed)
            sol = brute_force_map(g)
            for _ in range(100):
                x = tuple(int(rng.next_u64() % k) for k in g.cardinalities)
                assert sol.value >= energy(g, x) - 1e-12

    def test_cap_refusal_reports_size(self):
        g = FactorGraph([10] * 9, [(0,)], [np.zeros(10)])
        with pytest.raises(EnumerationCapError, match="1000000000"):
            brute_force_map(g)


def diagram(nodes, edges, anchors=()):
    return PolytopeDiagram(frozenset(nodes), frozenset(edges), frozenset(anchors))


class TestConstraintSystem:
    def test_single_edge_binary_counts(self):
        d = diagram({(0, 1), (0,)}, {((0, 1), (0,))})
        sys = constraint_system(d, [2, 2])
        assert len(sys.rows) == 2
        assert len(sys.variable_index) == 6

    def test_empty_edge_set(self):
        d = diagram({(0, 1)}, set())
        sys = constraint_system(d, [2, 2])
        assert sys.rows == ()

    def test_row_count_formula(self):
        # one row per (edge, target configuration)
        d = diagram(
            {(0, 1, 2), (0, 1), (2,)},
            {((0, 1, 2), (0, 1)), ((0, 1, 2), (2,)), ((0, 1), (0, 1))},
        )
        sys = constraint_system(d, [2, 3, 2])
        # self-edge contributes nothing; (0,1,2)->(0,1): 6 rows; ->(2,): 2 rows
        assert len(sys.rows) == 6 + 2

    def test_coefficients_are_unit(self):
        d = diagram({(0, 1), (1,)}, {((0, 1), (1,))})
        sys = constraint_system(d, [2, 2])
        for row in sys.rows:
            assert all(coeff in (-1, 1) for _, coeff in row)

    def test_marginalisation_row_content(self):
        d = diagram({(0, 1), (0,)}, {((0, 1), (0,))})
        sys = constraint_system(d, [2, 2])
        for row in sys.rows:
            cols = dict(row)
            assert sum(v for v in cols.values()) == 1  # two +1, one -1

    def test_row_count_matches_target_sizes_on_reduced_chain(self):
        from maplp import diagram_from_relaxation, powerset_spec, table_cells
        from conftest import CHAIN_CLUSTERS, build_graph

        g = build_graph([2] * 5, CHAIN_CLUSTERS)
        d = diagram_from_relaxation(powerset_spec(g), g.clusters)
        sys = constraint_system(d, g.cardinalities)
        expected = sum(
            table_cells(s, g.cardinalities) for c, s in d.edges if c != s
        )
        assert len(sys.rows) == expected


def reference_constraint_system(diagram, cardinalities):
    """The per-cell row build: one unravel/ravel pair per source cell."""
    nodes = sorted(diagram.nodes, key=lambda c: (len(c), c))
    offsets, variable_index = {}, []
    for t in nodes:
        offsets[t] = len(variable_index)
        variable_index.extend((t, i) for i in range(table_cells(t, cardinalities)))
    rows = []
    for c, s in sorted(diagram.edges, key=lambda e: (len(e[0]), e[0], len(e[1]), e[1])):
        if c == s:
            continue
        s_shape = table_shape(s, cardinalities)
        buckets = {i: [] for i in range(table_cells(s, cardinalities))}
        for flat_c in range(table_cells(c, cardinalities)):
            conf = np.unravel_index(flat_c, table_shape(c, cardinalities))
            s_conf = tuple(int(conf[c.index(v)]) for v in s)
            buckets[int(np.ravel_multi_index(s_conf, s_shape))].append(
                (offsets[c] + flat_c, 1)
            )
        for flat_s, cols in buckets.items():
            rows.append(tuple(cols) + ((offsets[s] + flat_s, -1),))
    return tuple(variable_index), tuple(rows)


class TestConstraintSystemReference:
    @pytest.mark.parametrize("cards", [[2, 3, 2, 2, 3], [3] * 5])
    def test_rows_match_per_cell_build(self, cards):
        g = build_graph(cards, CHAIN_CLUSTERS)
        base = diagram_from_relaxation(all_subsets_spec(g), g.clusters)
        diagrams = [
            diagram_from_relaxation(builder(g), g.clusters)
            for builder in (all_subsets_spec, powerset_spec, gmplp_spec, dd_spec)
        ]
        diagrams.append(reduce_edges(base))
        diagrams += [remove_node(base, v) for v in sorted(redundant_nodes(base))]
        assert len(diagrams) > 5
        for d in diagrams:
            sys = constraint_system(d, g.cardinalities)
            assert (sys.variable_index, sys.rows) == reference_constraint_system(
                d, g.cardinalities
            )


def random_system(seed, n_vars=6, n_rows=8):
    rng = XorShift64Star(seed)
    rows = []
    for _ in range(n_rows):
        row = []
        for c in range(n_vars):
            r = rng.next_u64() % 4
            if r == 0:
                row.append((c, 1))
            elif r == 1:
                row.append((c, -1))
        if row:
            rows.append(tuple(row))
    index = tuple(((0, 1), i) for i in range(n_vars))
    return AffineConstraintSystem(index, tuple(rows))


class TestAffineEquality:
    def test_reflexive(self):
        s = random_system(0)
        assert affine_system_equal(s, s)

    def test_duplicated_row_preserves_solution_set(self):
        s = random_system(1)
        dup = AffineConstraintSystem(s.variable_index, s.rows + (s.rows[0],))
        assert affine_system_equal(s, dup)

    def test_scaled_combination_preserves_solution_set(self):
        s = random_system(2)
        extra = tuple((c, v) for c, v in s.rows[0]) + tuple(
            (c, v) for c, v in s.rows[1]
        )
        combo = AffineConstraintSystem(s.variable_index, s.rows + (extra,))
        assert affine_system_equal(s, combo)

    def test_extra_independent_row_breaks_equality(self):
        index = tuple(((0, 1), i) for i in range(3))
        a = AffineConstraintSystem(index, (((0, 1), (1, -1)),))
        b = AffineConstraintSystem(index, (((0, 1), (1, -1)), ((2, 1),)))
        assert not affine_system_equal(a, b)
        assert affine_system_implies(b, a)
        assert not affine_system_implies(a, b)

    def test_equal_rank_different_row_spaces(self):
        # x0 = x1 against x1 = x2: rank 1 each, different solution sets
        index = tuple(((0,), i) for i in range(3))
        a = AffineConstraintSystem(index, (((0, 1), (1, -1)),))
        b = AffineConstraintSystem(index, (((1, 1), (2, -1)),))
        assert not affine_system_equal(a, b)
        assert not affine_system_implies(a, b)
        assert not affine_system_implies(b, a)

    def test_equal_rank_different_row_spaces_after_projection(self):
        # a reaches x0 = x1 through a variable of node (9,), which only a
        # has, so it is projected out before the comparison
        shared = tuple(((0,), i) for i in range(3))
        a = AffineConstraintSystem(
            shared + (((9,), 0),), (((0, 1), (3, -1)), ((3, 1), (1, -1))),
            frozenset({(0,)}),
        )
        b = AffineConstraintSystem(shared, (((1, 1), (2, -1)),), frozenset({(0,)}))
        for x, y in ((a, b), (b, a)):
            assert not affine_system_equal(x, y)
            assert not affine_system_implies(x, y)
        same = AffineConstraintSystem(shared, (((0, 1), (1, -1)),), frozenset({(0,)}))
        assert affine_system_equal(a, same) and affine_system_equal(same, a)

    def test_equal_is_implication_both_ways(self):
        systems = [random_system(s) for s in range(8)]
        for a in systems:
            for b in systems:
                assert affine_system_equal(a, b) == (
                    affine_system_implies(a, b) and affine_system_implies(b, a)
                )

    def test_equivalence_relation_on_random_systems(self):
        systems = [random_system(s) for s in range(8)]
        equal = {
            (i, j): affine_system_equal(a, b)
            for i, a in enumerate(systems)
            for j, b in enumerate(systems)
        }
        for i in range(len(systems)):
            assert equal[(i, i)]
            for j in range(len(systems)):
                assert equal[(i, j)] == equal[(j, i)]
                for k in range(len(systems)):
                    if equal[(i, j)] and equal[(j, k)]:
                        assert equal[(i, k)]

    def test_exact_rank_agrees_with_floating_rank(self):
        # small random integer matrices are well inside float rank's safe
        # range, so numpy serves as an independent check of the eliminator
        from maplp.oracle import _Echelon

        rng = XorShift64Star(42)
        for _ in range(200):
            rows = 1 + rng.next_u64() % 10
            cols = 1 + rng.next_u64() % 8
            a = np.zeros((rows, cols), dtype=np.int64)
            for i in range(rows):
                for j in range(cols):
                    a[i, j] = [0, 0, 1, -1, 2][rng.next_u64() % 5]
            ech = _Echelon()
            for i in range(rows):
                ech.add_row({j: int(a[i, j]) for j in range(cols) if a[i, j]})
            expected = int(np.linalg.matrix_rank(a.astype(float))) if a.any() else 0
            assert ech.rank == expected

    def test_anchor_variable_missing_from_one_side_rejected(self):
        idx_a = (((0,), 0), ((0,), 1))
        idx_b = (((1,), 0), ((1,), 1))
        a = AffineConstraintSystem(idx_a, (), frozenset({(0,)}))
        b = AffineConstraintSystem(idx_b, (), frozenset({(0,)}))
        with pytest.raises(ValueError, match="anchor"):
            affine_system_equal(a, b)

    def test_mismatched_cardinalities_rejected(self):
        # one diagram under [2, 2, 2] and [2, 3, 2]: node (1,) has 2 cells on
        # one side and 3 on the other, which no projection can reconcile
        d = diagram(
            {(0, 1, 2), (0, 1), (1,)},
            {((0, 1, 2), (0, 1)), ((0, 1), (1,))},
            {(0, 1, 2)},
        )
        a = constraint_system(d, [2, 2, 2])
        b = constraint_system(d, [2, 3, 2])
        smaller = constraint_system(
            diagram({(0, 1, 2), (1,)}, {((0, 1, 2), (1,))}, {(0, 1, 2)}), [2, 3, 2]
        )
        for x, y in ((a, b), (b, a), (a, smaller), (smaller, a)):
            for compare in (affine_system_equal, affine_system_implies):
                with pytest.raises(ValueError, match=r"node \(1,\)"):
                    compare(x, y)


class TestConstraintSystemCardinalities:
    @pytest.mark.parametrize(
        "cards, node",
        [([2, 2], r"\(0, 1, 2\)"), ([2, 0, 2], r"\(1,\)"), ([2, -1, 2], r"\(1,\)")],
        ids=["too-few", "zero", "negative"],
    )
    def test_missing_or_nonpositive_cardinality_rejected(self, cards, node):
        d = diagram({(0, 1, 2), (1,)}, {((0, 1, 2), (1,))})
        with pytest.raises(ValueError, match="node " + node):
            constraint_system(d, cards)


class TestHandBuiltSystems:
    @pytest.mark.parametrize("column", [2, -1])
    def test_row_outside_variable_index_rejected(self, column):
        index = (((0,), 0), ((0,), 1))
        with pytest.raises(ValueError, match=f"row 1 names column {column}"):
            AffineConstraintSystem(index, (((0, 1), (1, -1)), ((column, 1),)))

    def test_repeated_variable_rejected(self):
        index = (((0,), 0), ((0,), 1), ((0,), 0))
        with pytest.raises(ValueError, match=r"variable \(\(0,\), 0\) is repeated"):
            AffineConstraintSystem(index, (((0, 1), (2, -1)),))


# ---------------------------------------------------------------------------
# The pair-ordered comparison, kept as the reference for the oracle
# ---------------------------------------------------------------------------


def _reference_reduce(pivots, row):
    row = {c: v for c, v in row.items() if v}
    while row and min(row) in pivots:
        col = min(row)
        piv = pivots[col]
        a, b = row[col], piv[col]
        new = {c: v * b for c, v in row.items()}
        for c, v in piv.items():
            new[c] = new.get(c, 0) - v * a
        row = {c: v for c, v in new.items() if v}
    return row


def reference_verdicts(a, b):
    """``(equal(a, b), implies(a, b), implies(b, a))`` by the pair-ordered
    comparison: both systems eliminated in one column order that puts the
    variables only one side has first, whose pivots are then dropped."""
    keys_a, keys_b = set(a.variable_index), set(b.variable_index)

    def canon(k):
        return len(k[0]), k[0], k[1]

    exclusive = sorted(keys_a ^ keys_b, key=canon)
    column = {k: i for i, k in enumerate(exclusive + sorted(keys_a & keys_b, key=canon))}

    def projected(system):
        pivots = {}
        for row in system.rows:
            rest = _reference_reduce(
                pivots, {column[system.variable_index[c]]: v for c, v in row}
            )
            if rest:
                g = 0
                for v in rest.values():
                    g = gcd(g, v)
                pivots[min(rest)] = {c: v // g for c, v in rest.items()}
        return {c: r for c, r in pivots.items() if c >= len(exclusive)}

    pa, pb = projected(a), projected(b)

    def contains(p, q):
        return not any(_reference_reduce(p, r) for r in q.values())

    a_implies_b, b_implies_a = contains(pa, pb), contains(pb, pa)
    return len(pa) == len(pb) and a_implies_b, a_implies_b, b_implies_a


def oracle_verdicts(a, b):
    return (
        affine_system_equal(a, b),
        affine_system_implies(a, b),
        affine_system_implies(b, a),
    )


def without_edge(d, edge):
    return PolytopeDiagram(d.nodes, d.edges - {edge}, d.anchor_clusters)


def spliced(d, v):
    """``remove_node``'s splice, without its redundancy check."""
    edges = {e for e in d.edges if v not in e}
    edges |= {(c, s) for c in d.incoming(v) for s in d.outgoing(v)}
    return PolytopeDiagram(d.nodes - {v}, edges, d.anchor_clusters)


def reference_graphs():
    graphs = [
        ("chain", build_graph([2] * 5, CHAIN_CLUSTERS)),
        ("clique-grid", build_graph([2] * 9, GRID_CLIQUES)),
        ("chain-3", build_graph([3] * 5, CHAIN_CLUSTERS)),
        ("chain-23232", build_graph([2, 3, 2, 2, 3], CHAIN_CLUSTERS)),
    ]
    seeds = (s for s in itertools.count() if random_clusters_graph(s, 6).num_vars == 6)
    graphs += [(f"random-{s}", random_clusters_graph(s, 6)) for s in itertools.islice(seeds, 4)]
    return graphs


def reduction_candidates(graph, base):
    """The named relaxations, ``reduce_edges`` and the first and last
    ``remove_node`` result: diagrams equal to ``base`` or looser."""
    candidates = [
        diagram_from_relaxation(builder(graph), graph.clusters)
        for builder in (
            powerset_spec, pi_system_spec, max_intersection_spec, gmplp_spec, dd_spec,
        )
    ]
    candidates.append(reduce_edges(base))
    redundant = sorted(redundant_nodes(base))
    candidates += [remove_node(base, v) for v in redundant[:1] + redundant[-1:]]
    return candidates


class TestOneSidedProjection:
    """The oracle's verdicts equal the pair-ordered reference, on reductions
    (True) and on loosened diagrams (False)."""

    @pytest.mark.parametrize(
        "name, graph", [pytest.param(n, g, id=n) for n, g in reference_graphs()]
    )
    def test_verdicts_match_pair_ordered_reference(self, name, graph):
        cards = graph.cardinalities
        base = diagram_from_relaxation(all_subsets_spec(graph), graph.clusters)
        candidates = [
            diagram_from_relaxation(builder(graph), graph.clusters)
            for builder in (
                powerset_spec, pi_system_spec, max_intersection_spec, gmplp_spec, dd_spec,
            )
        ]
        candidates.append(reduce_edges(base))
        candidates += [remove_node(base, v) for v in sorted(redundant_nodes(base))]
        edges = sorted(e for e in base.edges if e[0] != e[1])
        candidates += [without_edge(base, e) for e in edges[:: max(1, len(edges) // 8)]]
        candidates += [
            spliced(base, v)
            for v in sorted(base.nodes - redundant_nodes(base) - base.anchor_clusters)
            if base.incoming(v)
        ]
        base_sys = constraint_system(base, cards)
        verdicts = []
        for d in candidates:
            s = constraint_system(d, cards)
            verdicts.append(oracle_verdicts(base_sys, s))
            assert verdicts[-1] == reference_verdicts(base_sys, s)
        assert (True, True, True) in verdicts
        if name in ("chain", "clique-grid"):
            assert any(not equal for equal, _, _ in verdicts)

    def test_spliced_non_redundant_node_is_looser(self):
        g = build_graph([2] * 5, CHAIN_CLUSTERS)
        base = diagram_from_relaxation(all_subsets_spec(g), g.clusters)
        assert (1, 2) not in redundant_nodes(base)
        a = constraint_system(base, g.cardinalities)
        b = constraint_system(spliced(base, (1, 2)), g.cardinalities)
        assert oracle_verdicts(a, b) == reference_verdicts(a, b) == (False, True, False)

    def test_failed_containment_leaves_cached_echelon_alone(self):
        g = build_graph([2] * 5, CHAIN_CLUSTERS)
        cards = g.cardinalities
        base = diagram_from_relaxation(all_subsets_spec(g), g.clusters)
        loose = without_edge(base, ((0, 1, 2), (1, 2)))
        a = constraint_system(loose, cards)
        good = constraint_system(reduce_edges(loose), cards)
        assert not affine_system_implies(a, constraint_system(base, cards))
        fresh = constraint_system(loose, cards)
        assert affine_system_equal(a, a)
        assert affine_system_equal(a, good) == affine_system_equal(fresh, good) is True
        assert a._echelon.rank == fresh._echelon.rank
        assert a._echelon.pivots == fresh._echelon.pivots

    @pytest.mark.parametrize(
        "name, graph",
        [pytest.param(n, g, id=n) for n, g in reference_graphs() if n != "clique-grid"],
    )
    def test_cross_pair_verdicts_match_pair_ordered_reference(self, name, graph):
        # many pairs have variables exclusive to both sides; the clique grid
        # is left out, as the reference eliminates both of its large systems
        # afresh for every pair
        base = diagram_from_relaxation(all_subsets_spec(graph), graph.clusters)
        systems = [
            constraint_system(d, graph.cardinalities)
            for d in reduction_candidates(graph, base)
        ]
        both_sides_equal = []
        for a, b in itertools.combinations(systems, 2):
            verdicts = oracle_verdicts(a, b)
            assert verdicts == reference_verdicts(a, b)
            keys_a, keys_b = set(a.variable_index), set(b.variable_index)
            if keys_a - keys_b and keys_b - keys_a:
                both_sides_equal.append(verdicts[0])
        assert any(both_sides_equal)
