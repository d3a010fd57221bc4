"""The rank oracle's elimination order and the integer rows it eliminates.

The oracle eliminates each constraint system with the largest tables' cells
first.  Rank does not depend on column order, so the cached echelon's rank
must equal that of an elimination in the ascending canonical
``(len(cluster), cluster, cell)`` numbering, and of numpy's float rank where
floats are safe.  The order does change the fill: the stored nonzeros are
pinned, as a count that does not depend on the host.
"""

import re

import numpy as np
import pytest

from maplp import (
    all_subsets_spec,
    constraint_system,
    dd_spec,
    diagram_from_relaxation,
    gmplp_spec,
    max_intersection_spec,
    pi_system_spec,
    powerset_spec,
    redundant_nodes,
    reduce_edges,
    remove_node,
)
from maplp.oracle import AffineConstraintSystem, _Echelon

from conftest import CHAIN_CLUSTERS, GRID_CLIQUES, build_graph

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def canonical_rank(system):
    """Rank from a fresh echelon fed the rows in the ascending canonical
    ``(len(cluster), cluster, cell)`` column numbering."""
    order = sorted(system.variable_index, key=lambda k: (len(k[0]), k[0], k[1]))
    column = {k: i for i, k in enumerate(order)}
    ech = _Echelon()
    for row in system.rows:
        ech.add_row({column[system.variable_index[c]]: v for c, v in row})
    return ech.rank


def float_rank(system):
    a = np.zeros((len(system.rows), len(system.variable_index)))
    for i, row in enumerate(system.rows):
        for c, v in row:
            a[i, c] = v
    return int(np.linalg.matrix_rank(a)) if a.any() else 0


def stored_nonzeros(system):
    return sum(len(row) for row in system._echelon.pivots.values())


def certified_systems(graph, builders):
    """The all-subsets base of ``graph``, then the diagrams of ``builders``,
    ``reduce_edges`` and every ``remove_node`` result, as constraint
    systems."""
    base = diagram_from_relaxation(all_subsets_spec(graph), graph.clusters)
    diagrams = [base] + [
        diagram_from_relaxation(builder(graph), graph.clusters) for builder in builders
    ]
    diagrams.append(reduce_edges(base))
    diagrams += [remove_node(base, v) for v in sorted(redundant_nodes(base))]
    return [constraint_system(d, graph.cardinalities) for d in diagrams]


def clique_grid_systems():
    """The clique grid's base and the 45 diagrams the benchmark's
    small-certify workload certifies against it."""
    return certified_systems(
        build_graph([2] * 9, GRID_CLIQUES),
        (powerset_spec, pi_system_spec, max_intersection_spec),
    )


def chain_systems():
    return certified_systems(
        build_graph([2] * 5, CHAIN_CLUSTERS),
        (powerset_spec, pi_system_spec, max_intersection_spec, gmplp_spec, dd_spec),
    )


NODES = ((0,), (1,), (0, 1), (1, 2), (0, 1, 2))


@st.composite
def sparse_systems(draw):
    """Up to ten sparse rows with coefficients of +-1 and +-2 over the cells
    of a few small binary tables (at most 24 columns)."""
    nodes = draw(st.lists(st.sampled_from(NODES), min_size=1, max_size=3, unique=True))
    index = tuple((t, i) for t in nodes for i in range(2 ** len(t)))
    entry = st.tuples(
        st.integers(0, len(index) - 1), st.sampled_from((1, -1, 2, -2))
    )
    rows = draw(st.lists(
        st.lists(entry, min_size=1, max_size=4, unique_by=lambda e: e[0]).map(tuple),
        max_size=10,
    ))
    return AffineConstraintSystem(index, tuple(rows))


class TestRankDoesNotDependOnOrder:
    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(system=sparse_systems())
    def test_random_sparse_systems(self, system):
        rank = system._echelon.rank
        assert rank == canonical_rank(system) == float_rank(system)

    def test_chain_systems(self):
        for system in chain_systems():
            assert system._echelon.rank == canonical_rank(system) == float_rank(system)

    def test_clique_grid_systems(self):
        for system in clique_grid_systems():
            assert system._echelon.rank == canonical_rank(system)


class TestFill:
    # Eliminated in the ascending canonical order instead, these read 2,418
    # and 103,195 stored nonzeros.

    def test_clique_grid_base(self):
        base = clique_grid_systems()[0]
        assert (len(base.rows), len(base.variable_index), base._echelon.rank) == (
            624, 290, 240,
        )
        assert stored_nonzeros(base) <= 1_024

    def test_clique_grid_base_and_certified_candidates(self):
        systems = clique_grid_systems()
        assert len(systems) == 46
        assert sum(stored_nonzeros(s) for s in systems) <= 44_033


class TestCoefficients:
    INDEX = (((0,), 0), ((0,), 1))

    @pytest.mark.parametrize("coefficient", [1.0, 0.5, True, "1", None])
    def test_non_integer_coefficient_rejected(self, coefficient):
        rows = (((0, 1), (1, -1)), ((0, coefficient), (1, -1)))
        match = re.escape(f"row 1 has coefficient {coefficient!r}")
        with pytest.raises(ValueError, match=match):
            AffineConstraintSystem(self.INDEX, rows)

    def test_numpy_integer_coefficient_accepted(self):
        s = AffineConstraintSystem(self.INDEX, (((0, np.int64(2)), (1, -2)),))
        assert s._echelon.rank == 1
