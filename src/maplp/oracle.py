"""Independent ground truth for small instances.

Two certification tools live here:

* :func:`brute_force_map` -- exhaustive MAP by enumerating every joint
  configuration (vectorised over the full state-space array).
* An affine view of a diagram's marginalisation constraints.  Each diagram
  edge contributes one homogeneous equation per target configuration, and
  the resulting sparse systems are compared exactly (fraction-free integer
  elimination, i.e. exact rank over the rationals) to certify that a
  reduction did not change the polytope.

Only the equality subspace is compared: the equivalence arguments behind the
reductions operate on the marginalisation equalities, so normalisation and
nonnegativity rows are deliberately out of scope here.  When two systems
mention different node sets, variables exclusive to one side are allowed only
for non-anchor nodes and are projected out (eliminated first) before the row
spaces are compared; an anchor variable missing from either side is an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

import numpy as np

from .diagram import DiagramError, PolytopeDiagram
from .factor_graph import (
    Assignment,
    Cluster,
    EnumerationCapError,
    FactorGraph,
    energy,
    table_cells,
    table_shape,
)

BRUTE_FORCE_CAP = 10_000_000
MAX_ORACLE_VARIABLES = 20_000


@dataclass(frozen=True)
class MapSolution:
    """Exact maximiser (lexicographically smallest among ties) and its energy."""

    argmax: Assignment
    value: float


def brute_force_map(graph: FactorGraph, cap: int = BRUTE_FORCE_CAP) -> MapSolution:
    """Exhaustive MAP.  The full joint energy array is materialised, so the
    state space must stay under ``cap`` configurations; ties resolve to the
    lexicographically smallest assignment (C-order argmax)."""
    size = graph.state_space_size()
    if size > cap:
        raise EnumerationCapError(
            f"state space has {size} configurations, above the cap of {cap}"
        )
    full = np.zeros(tuple(graph.cardinalities), dtype=np.float64)
    scope_all = tuple(range(graph.num_vars))
    for p in graph.potentials:
        idx = tuple(
            slice(None) if v in p.scope else None for v in scope_all
        )
        full += p.values[idx]
    flat = int(np.argmax(full))
    best = tuple(int(i) for i in np.unravel_index(flat, full.shape))
    return MapSolution(best, energy(graph, best))


# ---------------------------------------------------------------------------
# Affine constraint systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineConstraintSystem:
    """Homogeneous marginalisation equations of a diagram.

    ``variable_index`` names each scalar unknown as a (cluster, flat
    configuration) pair, flat indices being row-major over the sorted scope.
    ``rows`` hold sparse (column, coefficient) pairs with coefficients of
    plus/minus one; the right-hand side is identically zero.  ``anchors``
    records which clusters are original model clusters (their variables may
    never be projected away during comparisons).
    """

    variable_index: tuple[tuple[Cluster, int], ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]
    anchors: frozenset[Cluster] = frozenset()

    @property
    def nodes(self) -> set[Cluster]:
        return {t for t, _ in self.variable_index}


def constraint_system(
    diagram: PolytopeDiagram, cardinalities: Sequence[int]
) -> AffineConstraintSystem:
    """One equation per (edge, target configuration): the entries of the
    source table consistent with the target configuration sum to the target
    entry.  Self-edges are vacuous (the two sides cancel) and emit no rows."""
    nodes = sorted(diagram.nodes, key=lambda c: (len(c), c))
    offsets: dict[Cluster, int] = {}
    variable_index: list[tuple[Cluster, int]] = []
    for t in nodes:
        offsets[t] = len(variable_index)
        variable_index.extend((t, i) for i in range(table_cells(t, cardinalities)))
    if len(variable_index) > MAX_ORACLE_VARIABLES:
        raise EnumerationCapError(
            f"constraint system needs {len(variable_index)} variables, "
            f"above the oracle cap of {MAX_ORACLE_VARIABLES}"
        )

    rows: list[tuple[tuple[int, int], ...]] = []
    for c, s in sorted(diagram.edges, key=lambda e: (len(e[0]), e[0], len(e[1]), e[1])):
        if c == s:
            continue
        if not set(s) <= set(c):
            raise DiagramError(f"invalid edge {c}->{s}")
        conf = np.unravel_index(
            np.arange(table_cells(c, cardinalities)), table_shape(c, cardinalities)
        )
        flat_s = np.ravel_multi_index(
            [conf[c.index(v)] for v in s], table_shape(s, cardinalities)
        )
        buckets: list[list[tuple[int, int]]] = [
            [] for _ in range(table_cells(s, cardinalities))
        ]
        for flat_c, i in enumerate(flat_s.tolist()):
            buckets[i].append((offsets[c] + flat_c, 1))
        for i, cols in enumerate(buckets):
            rows.append(tuple(cols) + ((offsets[s] + i, -1),))
    return AffineConstraintSystem(
        tuple(variable_index), tuple(rows), diagram.anchor_clusters
    )


# ---------------------------------------------------------------------------
# Exact elimination
# ---------------------------------------------------------------------------


class _Echelon:
    """Incremental fraction-free row reduction over the integers.

    Rows are sparse ``{column: int}`` maps.  Eliminating with integer
    cross-multiples and re-dividing by the row gcd keeps everything exact, so
    ranks are exact ranks over the rationals.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    @staticmethod
    def _normalise(row: dict[int, int]) -> dict[int, int]:
        g = 0
        for v in row.values():
            g = gcd(g, v)
        lead = row[min(row)]
        if lead < 0:
            g = -g
        return {c: v // g for c, v in row.items()}

    def add_row(self, row: dict[int, int]) -> bool:
        """Reduce ``row`` against current pivots; returns True when it adds
        a new pivot (i.e. was independent)."""
        row = {c: v for c, v in row.items() if v != 0}
        while row:
            col = min(row)
            piv = self.pivots.get(col)
            if piv is None:
                row = self._normalise(row)
                self.pivots[col] = row
                return True
            a = row[col]
            b = piv[col]
            g = gcd(a, b)
            ma, mb = b // g, a // g
            new: dict[int, int] = {}
            for c, v in row.items():
                new[c] = v * ma
            for c, v in piv.items():
                w = new.get(c, 0) - v * mb
                if w:
                    new[c] = w
                elif c in new:
                    del new[c]
            row = new
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _projected(
    system: AffineConstraintSystem, column_of: dict[tuple[Cluster, int], int], n_exclusive: int
) -> _Echelon:
    """Row space of the system with its exclusive variables eliminated.

    Columns are globally ordered with exclusive variables first; echelon rows
    whose pivot falls in the shared region have no support on the exclusive
    columns and span exactly the projected constraint space.  Those rows keep
    distinct leading columns, so they are already an echelon basis.
    """
    ech = _Echelon()
    for row in system.rows:
        ech.add_row({column_of[system.variable_index[c]]: v for c, v in row})
    ech.pivots = {col: r for col, r in ech.pivots.items() if col >= n_exclusive}
    return ech


def _comparison_context(a: AffineConstraintSystem, b: AffineConstraintSystem):
    nodes_a, nodes_b = a.nodes, b.nodes
    anchors = a.anchors | b.anchors
    exclusive = (nodes_a ^ nodes_b)
    bad = exclusive & anchors
    if bad:
        raise ValueError(
            f"anchor clusters {sorted(bad)} must appear in both systems"
        )
    keys_a = set(a.variable_index)
    keys_b = set(b.variable_index)
    excl_keys = sorted(
        (k for k in keys_a ^ keys_b), key=lambda k: (len(k[0]), k[0], k[1])
    )
    shared_keys = sorted(
        (k for k in keys_a & keys_b), key=lambda k: (len(k[0]), k[0], k[1])
    )
    column_of = {k: i for i, k in enumerate(excl_keys + shared_keys)}
    return (
        _projected(a, column_of, len(excl_keys)),
        _projected(b, column_of, len(excl_keys)),
    )


def _contains(ech_a: _Echelon, ech_b: _Echelon) -> bool:
    """Every row of ``ech_b`` reduces to zero against ``ech_a``.  Reduction
    stops at the first independent row, the only one that changes ``ech_a``."""
    return not any(ech_a.add_row(r) for r in ech_b.pivots.values())


def affine_system_equal(a: AffineConstraintSystem, b: AffineConstraintSystem) -> bool:
    """True iff the two equality systems describe the same solution set
    (after projecting out any one-sided non-anchor variables): equal ranks,
    and b's row space inside a's."""
    ech_a, ech_b = _comparison_context(a, b)
    return ech_a.rank == ech_b.rank and _contains(ech_a, ech_b)


def affine_system_implies(a: AffineConstraintSystem, b: AffineConstraintSystem) -> bool:
    """True iff every solution of ``a`` satisfies ``b`` (b's rows lie in a's
    row space after projection)."""
    ech_a, ech_b = _comparison_context(a, b)
    return _contains(ech_a, ech_b)
