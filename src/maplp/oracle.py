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
for non-anchor nodes and are projected out before the row spaces are
compared; an anchor variable missing from either side, or a node with a
different number of cells on the two sides, is an error.

Each system is eliminated once, in its canonical ``(len(cluster), cluster,
cell)`` column order, and the echelon is cached on the system.  When ``b``'s
variables are a subset of ``a``'s (every reduction checked against its
unreduced diagram), no pair-specific elimination is needed: with ``X`` the
variables only ``a`` has, projecting ``X`` out of ``a`` leaves a space of
dimension ``rank(a) - rank(a_X)``, so ``b`` equals it exactly when
``rank(b)`` is that number and ``b``'s rows reduce to zero against ``a``'s
echelon.  Systems with variables exclusive to both sides still take the
general path: both are eliminated in one pair-specific order with the
exclusive variables first, whose pivots are then dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


def _canonical(key: tuple[Cluster, int]) -> tuple:
    return (len(key[0]), key[0], key[1])


@dataclass(frozen=True)
class AffineConstraintSystem:
    """Homogeneous marginalisation equations of a diagram.

    ``variable_index`` names each scalar unknown as a (cluster, flat
    configuration) pair, flat indices being row-major over the sorted scope.
    ``rows`` hold sparse (column, coefficient) pairs with coefficients of
    plus/minus one; the right-hand side is identically zero.  ``anchors``
    records which clusters are original model clusters (their variables may
    never be projected away during comparisons).

    The system's echelon form is computed on first use and kept on the
    instance, so it lives exactly as long as the system does.
    """

    variable_index: tuple[tuple[Cluster, int], ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]
    anchors: frozenset[Cluster] = frozenset()

    @property
    def nodes(self) -> set[Cluster]:
        return set(self._cells)

    @cached_property
    def _cells(self) -> dict[Cluster, int]:
        """Number of variables (table cells) of each node."""
        cells: dict[Cluster, int] = {}
        for t, _ in self.variable_index:
            cells[t] = cells.get(t, 0) + 1
        return cells

    @cached_property
    def _columns(self) -> dict[tuple[Cluster, int], int]:
        """Each variable's column in the canonical ``(len(cluster), cluster,
        cell)`` order; iteration follows that order."""
        order = sorted(self.variable_index, key=_canonical)
        return {k: i for i, k in enumerate(order)}

    @cached_property
    def _echelon(self) -> _Echelon:
        """The rows eliminated once, in canonical column order.  Only
        :meth:`_Echelon.reduces_to_zero` may touch it afterwards."""
        local = [self._columns[k] for k in self.variable_index]
        ech = _Echelon()
        for row in self.rows:
            ech.add_row({local[c]: v for c, v in row})
        return ech


def constraint_system(
    diagram: PolytopeDiagram, cardinalities: Sequence[int]
) -> AffineConstraintSystem:
    """One equation per (edge, target configuration): the entries of the
    source table consistent with the target configuration sum to the target
    entry.  Self-edges are vacuous (the two sides cancel) and emit no rows.

    Raises ``ValueError`` naming the first node with a variable that has no
    positive cardinality in ``cardinalities``."""
    nodes = sorted(diagram.nodes, key=lambda c: (len(c), c))
    offsets: dict[Cluster, int] = {}
    variable_index: list[tuple[Cluster, int]] = []
    for t in nodes:
        if not all(0 <= v < len(cardinalities) and cardinalities[v] > 0 for v in t):
            raise ValueError(
                f"node {t} has a variable without a positive cardinality "
                f"among {len(cardinalities)} cardinalities"
            )
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

    Rows are sparse ``{column: int}`` maps, reduced in place on a copy.
    Eliminating with integer cross-multiples and re-dividing by the row gcd
    keeps everything exact, so ranks are exact ranks over the rationals.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    def _reduce(self, row: dict[int, int]) -> dict[int, int]:
        """A copy of ``row`` reduced until its leading column has no pivot;
        empty when ``row`` lies in the span of the pivots."""
        row = {c: v for c, v in row.items() if v != 0}
        pivots = self.pivots
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                break
            a = row[col]
            b = piv[col]
            g = gcd(a, b)
            ma, mb = b // g, a // g
            if ma != 1:
                for c in row:
                    row[c] *= ma
            for c, v in piv.items():
                w = row.get(c, 0) - v * mb
                if w:
                    row[c] = w
                else:
                    del row[c]
        return row

    def add_row(self, row: dict[int, int]) -> bool:
        """Reduce ``row`` against current pivots; returns True when it adds
        a new pivot (i.e. was independent)."""
        row = self._reduce(row)
        if not row:
            return False
        col = min(row)
        g = 0
        for v in row.values():
            g = gcd(g, v)
        if row[col] < 0:
            g = -g
        self.pivots[col] = {c: v // g for c, v in row.items()}
        return True

    def reduces_to_zero(self, row: dict[int, int]) -> bool:
        """True when ``row`` lies in the span of the pivots; never adds one."""
        return not self._reduce(row)

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _check_comparable(a: AffineConstraintSystem, b: AffineConstraintSystem) -> None:
    """Anchors on both sides, and equal cell counts for every shared node."""
    cells_a, cells_b = a._cells, b._cells
    bad = (cells_a.keys() ^ cells_b.keys()) & (a.anchors | b.anchors)
    if bad:
        raise ValueError(
            f"anchor clusters {sorted(bad)} must appear in both systems"
        )
    for t in sorted(cells_a.keys() & cells_b.keys(), key=lambda c: (len(c), c)):
        if cells_a[t] != cells_b[t]:
            raise ValueError(
                f"node {t} has {cells_a[t]} cells in one system and "
                f"{cells_b[t]} in the other; were they built with the same "
                f"cardinalities?"
            )


def _rank_on(system: AffineConstraintSystem, keys: set[tuple[Cluster, int]]) -> int:
    """Rank of the system's rows restricted to the variables ``keys``."""
    cols = system._columns
    local = [cols[k] if k in keys else None for k in system.variable_index]
    ech = _Echelon()
    for row in system.rows:
        if ech.rank == len(keys):
            break
        ech.add_row({local[c]: v for c, v in row if local[c] is not None})
    return ech.rank


def _contains(ech: _Echelon, rows) -> bool:
    """Every row reduces to zero against ``ech``, which is left as it is."""
    return all(ech.reduces_to_zero(r) for r in rows)


def _rows_in(b: AffineConstraintSystem, a: AffineConstraintSystem):
    """``b``'s pivot rows in ``a``'s canonical columns (``b``'s variables
    must all be ``a``'s)."""
    to_a = [a._columns[k] for k in b._columns]
    for row in b._echelon.pivots.values():
        yield {to_a[c]: v for c, v in row.items()}


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
    """Both systems eliminated in one pair-specific column order, with the
    variables only one side has first and then projected out."""
    keys_a, keys_b = a._columns.keys(), b._columns.keys()
    excl_keys = sorted(keys_a ^ keys_b, key=_canonical)
    shared_keys = sorted(keys_a & keys_b, key=_canonical)
    column_of = {k: i for i, k in enumerate(excl_keys + shared_keys)}
    return (
        _projected(a, column_of, len(excl_keys)),
        _projected(b, column_of, len(excl_keys)),
    )


def affine_system_equal(a: AffineConstraintSystem, b: AffineConstraintSystem) -> bool:
    """True iff the two equality systems describe the same solution set
    (after projecting out any one-sided non-anchor variables): equal ranks,
    and b's row space inside a's.

    When one side's variables are a subset of the other's, say ``b``'s of
    ``a``'s with ``X`` the variables only ``a`` has, projecting ``X`` out of
    ``a`` leaves a space of dimension ``rank(a) - rank(a_X)``, ``a_X`` being
    ``a``'s rows restricted to ``X``.  ``b`` is then compared against that
    rank and against ``a``'s cached echelon, with no pair-specific
    elimination."""
    _check_comparable(a, b)
    keys_a, keys_b = a._columns.keys(), b._columns.keys()
    if keys_a <= keys_b:
        a, b, keys_a, keys_b = b, a, keys_b, keys_a
    if keys_b <= keys_a:
        projected_rank = a._echelon.rank - _rank_on(a, keys_a - keys_b)
        return b._echelon.rank == projected_rank and _contains(a._echelon, _rows_in(b, a))
    ech_a, ech_b = _comparison_context(a, b)
    return ech_a.rank == ech_b.rank and _contains(ech_a, ech_b.pivots.values())


def affine_system_implies(a: AffineConstraintSystem, b: AffineConstraintSystem) -> bool:
    """True iff every solution of ``a`` satisfies ``b`` (b's rows lie in a's
    row space after projection).  When ``b``'s variables are all ``a``'s,
    that is checked against ``a``'s cached echelon."""
    _check_comparable(a, b)
    if b._columns.keys() <= a._columns.keys():
        return _contains(a._echelon, _rows_in(b, a))
    ech_a, ech_b = _comparison_context(a, b)
    return _contains(ech_a, ech_b.pivots.values())
