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

Each system is eliminated once and the echelon is cached on the system.
Columns are numbered in the reverse of the canonical ``(len(cluster),
cluster, cell)`` order, so elimination pivots on the cells of the largest
tables first.  A marginalisation row has many source cells and one target
cell.  Pivoting on a source cell leaves the small target tables, which many
edges share, to the end; pivoting on the target cell (the canonical order)
makes the rows of every edge into one target collide there and fills the
echelon, about 2.3 times as many stored nonzeros on the clique grid (the
pivot-order effect on fill studied by Markowitz, 1957).  Rank does not
depend on the order, only the fill does.

Every comparison rests on one rank identity.  With ``X_a`` the variables only
``a`` has and ``a_X`` its rows restricted to them, projecting ``X_a`` out of
``a`` leaves the space ``P_a`` of dimension ``rank(a) - rank(a_X)``.  Since
``[a; b]`` restricted to ``X_a`` and ``X_b`` is block-diagonal, ``P_b`` lies
inside ``P_a`` exactly when ``rank([a; b]) == rank(a) + rank(b_X)``, which is
checked by adding ``b``'s cached pivot rows to a copy of ``a``'s.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from math import gcd
from numbers import Integral
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

    Raises ``ValueError`` when ``variable_index`` repeats a key, or a row
    names a column outside it or has a coefficient that is not an integer.
    """

    variable_index: tuple[tuple[Cluster, int], ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]
    anchors: frozenset[Cluster] = frozenset()

    def __post_init__(self) -> None:
        keys, n = self.variable_index, len(self.variable_index)
        if len(set(keys)) != n:
            repeated = next(k for k, m in Counter(keys).items() if m > 1)
            raise ValueError(f"variable {repeated} is repeated in variable_index")
        for i, row in enumerate(self.rows):
            for c, v in row:
                if not 0 <= c < n:
                    raise ValueError(f"row {i} names column {c}, outside the {n} variables")
                # ``type(v) is int`` first: the ``Integral`` check alone would
                # add half to ``constraint_system``; bool fails the exact test.
                if type(v) is not int and (isinstance(v, bool) or not isinstance(v, Integral)):
                    raise ValueError(f"row {i} has coefficient {v!r}, not an integer")

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
        """Each variable's column, largest tables first: the reverse of the
        canonical ``(len(cluster), cluster, cell)`` order, which keeps the
        echelon's fill low (see the module docstring).  Iteration follows
        column order."""
        order = sorted(self.variable_index, key=_canonical, reverse=True)
        return {k: i for i, k in enumerate(order)}

    @cached_property
    def _echelon(self) -> _Echelon:
        """The rows eliminated once, pivoting on the lowest column of
        ``_columns``, i.e. on the largest tables' cells first.  Comparisons
        add rows only to a copy of its pivots."""
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

    Rows are sparse ``{column: int}`` maps, reduced in place on a copy; each
    row pivots on its lowest column, so the caller's column numbering is the
    elimination order.
    Eliminating with integer cross-multiples and re-dividing by the row gcd
    keeps everything exact, so ranks are exact ranks over the rationals.
    """

    def __init__(self, pivots: dict[int, dict[int, int]] | None = None):
        self.pivots: dict[int, dict[int, int]] = dict(pivots or {})

    def add_row(self, row: dict[int, int]) -> bool:
        """Reduce a copy of ``row`` against the pivots; returns True when it
        adds a new pivot (i.e. was independent).  Pivot rows are never
        written to, so an echelon seeded with another's pivots shares their
        rows and leaves the other as it was."""
        row = {c: v for c, v in row.items() if v != 0}
        pivots = self.pivots
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                g = 0
                for v in row.values():
                    g = gcd(g, v)
                if row[col] < 0:
                    g = -g
                pivots[col] = {c: v // g for c, v in row.items()}
                return True
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
        return False

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


def _implies(a: AffineConstraintSystem, b: AffineConstraintSystem, rank_b_x: int) -> bool:
    """``P_b`` inside ``P_a``, i.e. ``rank([a; b]) == rank(a) + rank(b_X)``.

    ``b``'s cached pivot rows are added to a copy of ``a``'s cached pivots,
    in ``a``'s columns with ``b``'s own variables numbered after them; the
    answer is False as soon as more than ``rank_b_x`` of them are
    independent.  ``a``'s echelon is left as it is."""
    cols = a._columns
    own = count(len(cols))
    to_ab = [cols[k] if k in cols else next(own) for k in b._columns]
    ech = _Echelon(a._echelon.pivots)
    independent = 0
    for row in b._echelon.pivots.values():
        if ech.add_row({to_ab[c]: v for c, v in row.items()}):
            independent += 1
            if independent > rank_b_x:
                return False
    return True


def affine_system_equal(a: AffineConstraintSystem, b: AffineConstraintSystem) -> bool:
    """True iff the two equality systems describe the same solution set
    after projecting out the non-anchor variables only one side has: equal
    projected dimensions, and one projected row space inside the other."""
    _check_comparable(a, b)
    if len(a._columns) <= len(b._columns):
        a, b = b, a
    keys_a, keys_b = a._columns.keys(), b._columns.keys()
    rank_a_x = _rank_on(a, keys_a - keys_b)
    rank_b_x = _rank_on(b, keys_b - keys_a)
    return (
        a._echelon.rank - rank_a_x == b._echelon.rank - rank_b_x
        and _implies(a, b, rank_b_x)
    )


def affine_system_implies(a: AffineConstraintSystem, b: AffineConstraintSystem) -> bool:
    """True iff every solution of ``a`` satisfies ``b`` after projecting out
    the non-anchor variables only one side has (``P_b`` inside ``P_a``)."""
    _check_comparable(a, b)
    return _implies(a, b, _rank_on(b, b._columns.keys() - a._columns.keys()))
