"""Dynamic tightening of a relaxation by pursuing disagreeing cluster pairs.

After an inner solve converges with a dual/primal gap, two extended clusters
that share a sub-cluster but have no common parent may still disagree: no
maximiser of one agrees with any maximiser of the other on the shared scope.
The union of such a pair is a candidate cluster; adding it (with every
support cluster inside it as a sub-cluster) restores agreement on the pair
and can only lower the dual.  Candidates are scored by the dual decrease a
single block update of the union would achieve from its zero table
(:func:`maplp.engine.dual_decrease`), and the best few are added per round.

What a round costs.  The candidate search is batched over the current
beliefs (Sontag, Choe & Li, UAI 2012) through an index of the spec that
reads every table from one flat array: in belief mode the compiled
sweep's own store, read in place, else the tables packed once.  It makes
one pass for non-finite entries, one argmax gather per shape of parents,
one gather projecting every edge, pairs in numpy the edges into each
disagreeing table whose projections differ, and scores the unions with
one padded gather per union shape; Python only tests the pairs left for
a common parent and forms their unions.  Each union's sub-clusters and
gather layout are found once, and a table added inside a cached union is
inserted into its layout.  :func:`run_with_pursuit` keeps one search index and, in
belief mode, one compiled sweep (:mod:`maplp.engine`), and tells both what
each round added, so each grows by that alone; specs carry neither.
"""

from __future__ import annotations

import logging
import time
from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import chain
from math import prod
from numbers import Integral
from typing import Iterable, Sequence

import numpy as np

from .engine import (
    BeliefState,
    DualTrace,
    Messages,
    SolverParams,
    _check_model,
    _check_shapes,
    _check_support,
    _Primal,
    _projection,
    _run,
    _Sweep,
    _TraceEnd,
    init_beliefs,
    init_messages,
)
from .factor_graph import Cluster, FactorGraph, InvalidModelError, table_shape
from .relaxations import RelaxationSpec

logger = logging.getLogger(__name__)

DEFAULT_UNION_ORDER_CAP = 8

# Cells times sub roles one score gather reads at most, so that its arrays
# stay within 32 KiB each; more unions of one shape are scored in turns.
_GATHER_CELLS = 4096


@dataclass(frozen=True)
class StealthCandidate:
    """A disagreeing pair of extended clusters and their union."""

    parents: tuple[Cluster, Cluster]
    shared: Cluster
    union: Cluster
    sub_clusters: tuple[Cluster, ...]
    score: float


def stealth_candidates(
    spec: RelaxationSpec,
    beliefs: BeliefState,
    *,
    max_order: int = DEFAULT_UNION_ORDER_CAP,
) -> list[StealthCandidate]:
    """All disagreeing stealth pairs under the current beliefs.

    A pair qualifies when (1) both clusters list some common ``t`` among
    their proper sub-clusters, (2) no extended cluster lists both of them
    among its proper sub-clusters, and (3) their decoded maximisers differ
    on ``t``.  Taking the decoder's pick per parent (rather than comparing
    whole maximiser sets) matters: at a converged dual optimum with a
    fractional primal solution the parent tables are exactly tied across the
    fractional support, so set projections always overlap and set comparison
    would never flag the very disagreements pursuit exists to repair.
    Unions larger than ``max_order`` are dropped with a logged warning.
    A union's score depends only on the union, so a union met again keeps
    its first pair; results are sorted by descending score, then
    lexicographic union.

    The search packs the tables into one flat array and is batched over
    an index of the spec (see :class:`_SearchIndex`): one argmax per shape
    of parents, one gather projecting every edge, and the pairs of edges
    into each disagreeing table found in numpy.  Unions are scored with
    one padded gather per union shape, with the float operations of
    :func:`~maplp.engine.dual_decrease` on a zero union table up to the
    sign of a zero, so scores are bit-identical to it.  Raises ``ValueError``
    unless ``max_order`` is an integer >= 1, :class:`CoverageError` when a
    support cluster has no table, and :class:`InvalidModelError` when a
    support table has not one axis per variable of its cluster or an axis
    of length zero, a variable has two axis lengths across the tables
    holding it, or a support table has a NaN or infinite entry.
    """
    _check_max_order(max_order)
    _check_support(beliefs, spec.support)
    _check_shapes(beliefs, spec.support)
    index = _SearchIndex(spec, beliefs)
    return _candidates(index, index.pack(beliefs), max_order)


def _candidates(index: _SearchIndex, buf: np.ndarray, max_order: int) -> list[StealthCandidate]:
    """:func:`stealth_candidates` over ``index``, reading the tables from
    ``buf`` in the index's layout (see :class:`_SearchIndex`)."""
    order, offset = index.order, index.offset
    # One pass over every support table, read or not.
    if not np.isfinite(buf[:index.used]).all():
        bad = [t for t, i, n in zip(order, offset.tolist(), map(prod, index.shapes))
               if not np.isfinite(buf[i:i + n]).all()]
        raise InvalidModelError(f"tables for clusters {bad}: non-finite entries")
    # Each parent's decoded cell, one gather per shape; each edge's projection of it.
    flat = np.empty(len(order), dtype=np.intp)
    for cells, rows in index.groups.values():
        flat[rows] = buf[offset[rows][:, None] + cells].argmax(axis=1)
    parent, table, code = index.edges
    proj = index.codes[code + flat[parent]]
    # A table disagrees when some edge differs from one edge, any, into it.
    some, marked = np.empty(len(order), np.intp), np.zeros(len(order), bool)
    some[table] = proj
    marked[table[proj != some[table]]] = True
    hit = np.flatnonzero(marked[table])
    # Every pair of edges into one disagreeing table whose projections differ.
    hit = hit[np.argsort(table[hit], kind="stable")]
    a, b = _pairs(table[hit])
    a, b = hit[a], hit[b]
    differ = proj[a] != proj[b]
    shared, r1, r2 = table[a[differ]], parent[a[differ]], parent[b[differ]]
    # Two clusters have a common parent when the rows sending to them meet.
    above: dict[int, set[int]] = {}
    marked[:] = False
    marked[parent[hit]] = True
    up = np.flatnonzero(marked[table])
    for k, i in zip(table[up].tolist(), parent[up].tolist()):
        above.setdefault(k, set()).add(i)

    # Each union keeps its first pair in (shared table, parent, parent) order.
    first: dict[Cluster, tuple[Cluster, Cluster, Cluster]] = {}
    skipped_large = 0
    for k, i, j in zip(shared.tolist(), r1.tolist(), r2.tolist()):
        if not above.get(i, set()).isdisjoint(above.get(j, ())):
            continue
        c1, c2 = order[i], order[j]
        if c2 < c1:
            c1, c2 = c2, c1
        union = tuple(sorted({*c1, *c2}))
        if len(union) > max_order:
            skipped_large += 1
            continue
        pair = (order[k], c1, c2)
        if union not in first or pair < first[union]:
            first[union] = pair
    if skipped_large:
        logger.warning("dropped %d stealth candidates above union order cap %d",
                       skipped_large, max_order)
    layouts = list(map(index.union, first))
    found = [StealthCandidate((c1, c2), t, u, subs, score)
             for u, (t, c1, c2), (subs, *_), score
             in zip(first, first.values(), layouts, index.scores(buf, layouts))]
    return sorted(found, key=lambda c: (-c.score, c.union))


def _pairs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``a < b`` of every two equal entries of the sorted ``keys``."""
    n = len(keys)
    bounds = np.concatenate([[0], np.flatnonzero(keys[1:] != keys[:-1]) + 1, [n]])
    later = np.repeat(bounds[1:], bounds[1:] - bounds[:-1]) - np.arange(n) - 1
    a = np.repeat(np.arange(n), later)
    return a, a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(later) - later, later)


def _check_max_order(max_order: int) -> None:
    if isinstance(max_order, bool) or not isinstance(max_order, Integral) or max_order < 1:
        raise ValueError(f"max_order must be an integer >= 1, got {max_order!r}")


class _SearchIndex:
    """What the search keeps of a spec and its table shapes, and the layout
    it reads the tables in: one flat float64 array, cell 0 zero, then the
    rows end to end, row ``i`` at :attr:`offset` ``[i]`` (also :attr:`at`
    by table) and :attr:`used` cells in all.  A row is a table's position
    in :attr:`order`, the support as it grew.  A belief-mode pursuit's
    store was built from the support in that order and grows by the same
    tables in the same order, so the search reads the store's array in
    place; :meth:`pack` lays out any other state.  :attr:`first` holds the
    support tables by smallest variable and :attr:`length` each variable's
    axis length.  :attr:`groups` holds the parent rows (:attr:`sends`) by
    shape, with their cells.  Each :attr:`edges` column is a (parent,
    proper sub) edge: both rows and where its code table, the cell each
    parent cell projects to, starts in :attr:`codes`.  :attr:`unions`
    keeps each union's subs, shape and its subs' code-table starts (one
    tuple per layout, shared through :attr:`layouts`), which with
    :attr:`at` is all a score reads; :attr:`holding` keeps the cached
    unions by variable.  :func:`run_with_pursuit` keeps one index across its rounds
    and grows it by what each round adds."""

    def __init__(self, spec: RelaxationSpec, beliefs: BeliefState):
        self.order, self.shapes, self.row, self.sends = [], [], {}, bytearray()
        self.offset, self.used = np.zeros(0, np.intp), 1
        self.at: dict[Cluster, int] = {}
        self.length: dict[int, int] = {}
        self.first: dict[int, list[Cluster]] = {}
        self.groups, self.code_at, self.unions, self.holding = {}, {}, {}, {}
        self.layouts: dict[tuple, tuple] = {}
        self.codes, self.edges = np.zeros(0, np.intp), np.zeros((3, 0), np.int32)
        self.grow(((c, s) for c in spec.extended_clusters for s in spec.proper_subs_of(c)),
                  spec.support, beliefs)

    def pack(self, beliefs: BeliefState) -> np.ndarray:
        """The tables of ``beliefs`` in this index's layout."""
        return np.concatenate([np.zeros(1), *map(beliefs.__getitem__, self.order)], axis=None)

    def grow(self, edges: Iterable[tuple[Cluster, Cluster]], new: Iterable[Cluster],
             beliefs: BeliefState) -> None:
        """Add the support tables ``new``, with their shapes in ``beliefs``,
        after the others, and the (parent, proper sub) ``edges``."""
        offsets = []
        for t in new:
            self.row[t] = len(self.order)
            self.order.append(t)
            shape = beliefs[t].shape
            self.shapes.append(shape)
            self.length.update(zip(t, shape))
            self.at[t] = self.used
            offsets.append(self.used)
            self.used += prod(shape)
            self.sends.append(0)
            self.first.setdefault(t[0], []).append(t)
            for u in self.holding.get(t[0], ()):  # a table new strictly
                if set(t) < set(u):               # inside a cached union
                    self._insert(u, t)
        self.offset = np.concatenate([self.offset, np.array(offsets, np.intp)])
        self._extend(edges)

    def _insert(self, u: Cluster, t: Cluster) -> None:
        """Make the new table ``t`` a sub of the cached union ``u``, in
        canonical place."""
        subs, shape, codes = self.unions[u]
        i = bisect_left(subs, (len(t), t), key=lambda s: (len(s), s))
        codes = (*codes[:i], self._code(shape, tuple(map(u.index, t))), *codes[i:])
        self.unions[u] = ((*subs[:i], t, *subs[i:]), shape, self.layouts.setdefault(codes, codes))

    def _code(self, shape: tuple[int, ...], kept: tuple[int, ...]) -> int:
        """Where the code table of a sub keeping axes ``kept`` of a table of
        ``shape`` starts in :attr:`codes`: the sub cell each cell projects
        to (:func:`~maplp.engine._projection`), added on first use."""
        key = (shape, kept)
        if key not in self.code_at:
            self.code_at[key] = self.codes.size
            self.codes = np.concatenate([self.codes, _projection(shape, kept, {})[0]])
        return self.code_at[key]

    def _extend(self, edges: Iterable[tuple[Cluster, Cluster]]) -> None:
        """Add ``edges``, joining each new parent to its shape's group; a
        parent that is a cached union takes its code tables from its
        layout."""
        columns, joined, last = [], {}, None
        for c, s in edges:
            if c != last:
                last, i, codes = c, self.row[c], {}
                if not self.sends[i]:
                    self.sends[i] = 1
                    joined.setdefault(self.shapes[i], []).append(i)
                if c in self.unions:
                    subs, _, layout = self.unions[c]
                    codes = dict(zip(subs, layout))
            code = codes.get(s)
            if code is None:
                code = self._code(self.shapes[i], tuple(map(c.index, s)))
            columns += (i, self.row[s], code)
        for shape, rows in joined.items():
            cells, old = self.groups.get(shape, (np.arange(prod(shape)), ()))
            self.groups[shape] = (cells, np.array([*old, *rows], np.intp))
        self.edges = np.hstack([self.edges, np.array(columns, np.int32).reshape(-1, 3).T])

    def union(self, u: Cluster) -> tuple:
        """``u``'s subs (the support tables strictly inside it), its shape,
        and where its subs' code tables start, shared by the unions of one
        layout; found once, and a table added strictly inside a cached
        union later is inserted (:meth:`grow`)."""
        layout = self.unions.get(u)
        if layout is None:
            inside = set(u)
            subs = sorted(t for v in u for t in self.first.get(v, ())
                          if t != u and inside.issuperset(t))
            subs.sort(key=len)
            axis = {v: i for i, v in enumerate(u)}.__getitem__
            shape = tuple(map(self.length.__getitem__, u))
            codes = tuple([self._code(shape, tuple(map(axis, s))) for s in subs])
            layout = self.unions[u] = (tuple(subs), shape, self.layouts.setdefault(codes, codes))
            for v in u:
                self.holding.setdefault(v, []).append(u)
        return layout

    def scores(self, buf: np.ndarray, layouts: Sequence[tuple]) -> list[float]:
        """:func:`~maplp.engine.dual_decrease` of each union, given by its
        :meth:`union` layout, with its sub-clusters at a zero union table,
        reading ``buf``: one padded gather per union shape, ``(unions, subs,
        cells)``, each union's subs broadcast into its cells in sub order,
        then the zero cell.  Per union, the joint adds the same tables in
        the same order and then zeros, and the separate maxima are added in
        order and then to ``0.0``: each can differ from the one-union sum
        only in the sign of a zero, which neither ``separate`` (never
        ``-0.0``) nor ``separate - max(joint)`` keeps, so scores are
        bit-identical to it.  Every union has a sub-cluster: the one its
        pair shares."""
        by_shape: dict[tuple, list[int]] = {}
        for j, layout in enumerate(layouts):
            by_shape.setdefault(layout[1], []).append(j)
        scores = [0.0] * len(layouts)
        for shape, js in by_shape.items():
            subs, codes = [layouts[j][0] for j in js], [layouts[j][2] for j in js]
            count = np.fromiter(map(len, subs), np.intp, len(js))
            used = np.arange(count.max()) < count[:, None]
            offsets = np.zeros(used.shape, np.intp)
            offsets[used] = np.fromiter(map(self.at.__getitem__, chain.from_iterable(subs)),
                                        np.intp, used.sum())
            gather = np.full(used.shape, self._code(shape, ()), np.intp)
            gather[used] = np.fromiter(chain.from_iterable(codes), np.intp, used.sum())
            cells = np.arange(prod(shape))
            step = max(1, _GATHER_CELLS // (cells.size * used.shape[1]))
            for lo in range(0, len(js), step):
                index = self.codes[gather[lo:lo + step, :, None] + cells]
                index += offsets[lo:lo + step, :, None]
                tables = buf[index]
                joint = np.add.accumulate(tables, axis=1)[:, -1]
                separate = np.add.accumulate(tables.max(axis=2), axis=1)[:, -1] + 0.0
                for j, score in zip(js[lo:lo + step], (separate - joint.max(axis=1)).tolist()):
                    scores[j] = score
        return scores


@dataclass
class PursuitResult(_TraceEnd):
    assignment: tuple[int, ...]
    trace: DualTrace
    spec: RelaxationSpec
    beliefs: BeliefState
    rounds: int = 0
    truncated: bool = False
    closed: bool = False


def run_with_pursuit(
    graph: FactorGraph,
    spec: RelaxationSpec,
    params: SolverParams | None = None,
    mode: str = "beliefs",
    *,
    label: str = "",
    max_order: int = DEFAULT_UNION_ORDER_CAP,
) -> PursuitResult:
    """Outer loop: solve, then repeatedly add the best-scoring disagreeing
    unions and re-solve, until the dual/primal gap closes or a limit stops us.

    The first inner solve gets the full sweep budget; later rounds use the
    shorter pursuit budget.  New unions start with zero tables (they carry no
    original potential) and zero messages.  A round with no addable
    candidates keeps sweeping while the inner loop is still descending; once
    it has converged with nothing left to add, the relaxation cannot be
    tightened further by this strategy and the loop stops with whatever gap
    remains.  ``rounds`` counts outer iterations after the first solve.

    The graph is validated once, before the first sweep, as in :func:`run`,
    and ``max_order`` must be an integer >= 1 (``ValueError``).  In belief
    mode the compiled sweep is kept across rounds and grows with the spec,
    so it is compiled once.  Message mode rebuilds its state each round.
    The candidate-search index is built at the first search and grown in
    place after each round.
    """
    _check_model(graph)
    _check_max_order(max_order)
    if params is None:
        params = SolverParams()
    t0 = time.perf_counter()
    trace = DualTrace()
    current = spec
    messages: Messages | None = None
    beliefs = init_beliefs(graph, spec) if mode == "beliefs" else None
    sweep = None if beliefs is None else _Sweep(spec, beliefs, graph.cardinalities)
    index: _SearchIndex | None = None
    primal = _Primal(graph)
    rounds = 0
    truncated = False

    while True:
        result = _run(
            graph,
            current,
            params if rounds == 0 else replace(params, max_sweeps=params.pursuit_sweeps),
            mode,
            label=label,
            beliefs=beliefs,
            messages=messages,
            pursuit_round=rounds,
            start_time=t0,
            sweep_offset=len(trace),
            sweep=sweep,
            primal=primal,
        )
        trace.records.extend(result.trace.records)
        beliefs = result.beliefs
        messages = result.messages
        if result.gap <= params.outer_tol:
            break
        if result.truncated or time.perf_counter() - t0 > params.time_limit:
            truncated = True
            break

        if index is None:
            index = _SearchIndex(current, beliefs)
        buf = index.pack(beliefs) if sweep is None else sweep.store.buf
        candidates = _candidates(index, buf, max_order)
        if time.perf_counter() - t0 > params.time_limit:
            truncated = True
            break
        # A union already carried by the relaxation with all its sub-clusters
        # adds no constraint; keeping it would stall the loop.
        present = set(current.extended_clusters)
        candidates = [
            c for c in candidates
            if c.union not in present
            or not set(c.sub_clusters) <= set(current.subs_of(c.union))
        ]
        if not candidates:
            if result.converged:
                # converged inner loop with nothing left to add: the gap
                # cannot close, so further rounds would change nothing
                break
            rounds += 1
            continue
        chosen = candidates[: params.clusters_per_round]
        previous, current = current, current.with_clusters(
            {c.union: c.sub_clusters for c in chosen})
        rounds += 1
        for cand in chosen:
            if cand.union not in beliefs:
                beliefs[cand.union] = np.zeros(table_shape(cand.union, graph.cardinalities))
        # The index and the sweep grow by what the round added.
        edges = []
        for c in chosen:
            old = previous.proper_subs_of(c.union)
            edges += [(c.union, s) for s in current.proper_subs_of(c.union) if s not in old]
        index.grow(edges, [c.union for c in chosen if c.union not in index.row], beliefs)
        if sweep is not None:
            sweep.grow(current, any(c.union in present for c in chosen))
        if messages is not None:
            fresh = init_messages(current, graph.cardinalities)
            fresh.update(messages)
            messages = fresh

    return PursuitResult(
        result.assignment, trace, current, beliefs, rounds=rounds,
        truncated=truncated, closed=result.gap <= params.outer_tol,
    )
