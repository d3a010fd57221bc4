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
beliefs (Sontag, Choe & Li, UAI 2012) through an index of the spec: one
argmax per shape of parents, one gather projecting every edge, and a
Python pair loop only over the tables whose senders disagree, with common
parents taken from the same edges; each union's sub-clusters and scoring
layout are found once.  :func:`run_with_pursuit` keeps one search index
and, in belief mode, one compiled sweep (:mod:`maplp.engine`), and tells
both what each round added, so each grows in place; specs carry neither.
"""

from __future__ import annotations

import logging
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from itertools import combinations
from numbers import Integral
from typing import Iterable

import numpy as np

from .engine import (
    BeliefState,
    DualTrace,
    Messages,
    SolverParams,
    _check_model,
    _check_shapes,
    _check_support,
    _embed_index,
    _Primal,
    _run,
    _Sweep,
    _template,
    _TraceEnd,
    init_beliefs,
    init_messages,
)
from .factor_graph import Cluster, FactorGraph, InvalidModelError, table_shape
from .relaxations import RelaxationSpec, _canonical, _inside

logger = logging.getLogger(__name__)

DEFAULT_UNION_ORDER_CAP = 8


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

    The search is batched over an index of the spec (see
    :class:`_SearchIndex`): one argmax per shape of parents, one gather
    projecting every edge, and a pair loop over the tables whose senders
    disagree.  Unions are scored in one numpy update per union order and
    sub-cluster layout, with the float operations of
    :func:`~maplp.engine.dual_decrease` on a zero union table, so scores
    are bit-identical to it.  Raises ``ValueError``
    unless ``max_order`` is an integer >= 1, :class:`CoverageError` when a
    support cluster has no table, and :class:`InvalidModelError` when a
    support table has not one axis per variable of its cluster or an axis
    of length zero, a variable has two axis lengths across the tables
    holding it, or a support table has a NaN or infinite entry.
    """
    _check_max_order(max_order)
    _check_support(beliefs, spec.support)
    _check_shapes(beliefs, spec.support)
    return _candidates(_SearchIndex(spec, beliefs), beliefs, max_order)


def _candidates(index: _SearchIndex, beliefs: BeliefState,
                max_order: int) -> list[StealthCandidate]:
    """:func:`stealth_candidates` over ``index``, for tables of the shapes
    it was built and grown with."""
    # One pass over every support table, read or not.
    order = index.order
    tables = list(map(beliefs.__getitem__, order))
    if not np.isfinite(np.concatenate(tables, axis=None)).all():
        bad = [t for t in order if not np.isfinite(beliefs[t]).all()]
        raise InvalidModelError(f"tables for clusters {bad}: non-finite entries")
    # Each parent's decoded cell, by shape; each edge's projection of it.
    flat = np.empty(len(order), dtype=np.intp)
    for ts, rows in index.groups.values():
        stack = np.array(list(map(beliefs.__getitem__, ts)), dtype=np.float64)
        flat[rows] = stack.reshape(len(ts), -1).argmax(axis=1)
    parent, table, code = index.edges
    proj = index.codes[code + flat[parent]]
    # A table disagrees when some edge differs from one edge, any, into it.
    some, marked = np.empty(len(order), np.intp), np.zeros(len(order), bool)
    some[table] = proj
    marked[table[proj != some[table]]] = True
    hit = np.flatnonzero(marked[table])
    sent: dict[Cluster, list[tuple[Cluster, int, int]]] = {}
    for k, i, p in zip(table[hit].tolist(), parent[hit].tolist(), proj[hit].tolist()):
        sent.setdefault(order[k], []).append((order[i], p, i))
    # Two clusters have a common parent when the rows sending to them meet.
    above: defaultdict[int, set[int]] = defaultdict(set)
    marked[:] = False
    marked[parent[hit]] = True
    up = np.flatnonzero(marked[table])
    for k, i in zip(table[up].tolist(), parent[up].tolist()):
        above[k].add(i)

    first: dict[Cluster, tuple[Cluster, Cluster, Cluster]] = {}
    skipped_large = 0
    for t in sorted(sent):
        for (c1, p1, r1), (c2, p2, r2) in combinations(sorted(sent[t]), 2):
            if p1 == p2 or not above[r1].isdisjoint(above[r2]):
                continue
            union = tuple(sorted(set(c1) | set(c2)))
            if len(union) > max_order:
                skipped_large += 1
                continue
            first.setdefault(union, (c1, c2, t))
    if skipped_large:
        logger.warning("dropped %d stealth candidates above union order cap %d",
                       skipped_large, max_order)
    layouts = {u: index.union(beliefs, u) for u in first}
    scores = _union_scores(beliefs, layouts)
    found = [StealthCandidate((c1, c2), t, u, layouts[u][0], scores[u])
             for u, (c1, c2, t) in first.items()]
    return sorted(found, key=lambda c: (-c.score, c.union))


def _check_max_order(max_order: int) -> None:
    if isinstance(max_order, bool) or not isinstance(max_order, Integral) or max_order < 1:
        raise ValueError(f"max_order must be an integer >= 1, got {max_order!r}")


class _SearchIndex:
    """What the search keeps of a spec and its table shapes.  A row is a
    table's position in :attr:`order`, the support as it grew;
    :attr:`first` holds the support tables by smallest variable.
    :attr:`groups` holds the parents (:attr:`sends`) and their rows by
    shape.  Each :attr:`edges` column is a (parent, proper sub) edge: both
    rows and where its code table, the cell each parent cell projects to,
    starts in :attr:`codes`.  :attr:`unions` keeps each union's subs and
    batch, and :attr:`holding` the cached unions by variable.
    :func:`run_with_pursuit` keeps one index across its rounds and grows
    it by what each round adds."""

    def __init__(self, spec: RelaxationSpec, beliefs: BeliefState):
        self.order = list(spec.support)
        self.shapes = [beliefs[t].shape for t in self.order]
        self.row, self.sends = {t: i for i, t in enumerate(self.order)}, bytearray(len(self.order))
        self.first: dict[int, list[Cluster]] = {}
        for t in self.order:
            self.first.setdefault(t[0], []).append(t)
        self.groups, self.code_at, self.unions, self.batches, self.holding = {}, {}, {}, {}, {}
        self.codes, self.edges = np.zeros(0, np.intp), np.zeros((3, 0), np.int32)
        self._extend((c, s) for c in spec.extended_clusters for s in spec.proper_subs_of(c))

    def grow(self, edges: list[tuple[Cluster, Cluster]], new: list[Cluster],
             beliefs: BeliefState) -> None:
        """Add the support tables ``new``, with their shapes in ``beliefs``,
        and the (parent, proper sub) ``edges``."""
        for t in new:
            self.row[t] = len(self.order)
            self.order.append(t)
            self.shapes.append(beliefs[t].shape)
            self.sends.append(0)
            self.first.setdefault(t[0], []).append(t)
            for u in self.holding.get(t[0], ()):  # a table new strictly inside
                if set(t) < set(u):               # a union changes its subs
                    self.unions.pop(u, None)
        self._extend(edges)

    def _extend(self, edges: Iterable[tuple[Cluster, Cluster]]) -> None:
        """Add ``edges``, joining each new parent to its shape's group."""
        codes, size, columns, joined = [self.codes], self.codes.size, [], {}
        for c, s in edges:
            i = self.row[c]
            if not self.sends[i]:
                self.sends[i] = 1
                joined.setdefault(self.shapes[i], []).append(c)
            key = (self.shapes[i], tuple(map(c.index, s)))
            if key not in self.code_at:  # the gather row of a one-sub template
                codes.append(_template(key[0], key[1:], 2, {})[0][1])
                self.code_at[key], size = size, size + codes[-1].size
            columns += (i, self.row[s], self.code_at[key])
        for shape, cs in joined.items():
            ts, rows = self.groups.get(shape, ([], ()))
            self.groups[shape] = ([*ts, *cs], np.array([*rows, *map(self.row.get, cs)]))
        self.codes = np.concatenate(codes)
        self.edges = np.hstack([self.edges, np.array(columns, np.int32).reshape(-1, 3).T])

    def union(self, beliefs: BeliefState, u: Cluster) -> tuple:
        """``u``'s subs (the support tables strictly inside it) and batch, found once."""
        if u not in self.unions:
            subs = _canonical(s for s in _inside(self.first, u) if s != u)
            axis = {v: i for i, v in enumerate(u)}.__getitem__
            batch = (len(u), tuple((tuple(map(axis, s)), beliefs[s].shape) for s in subs))
            self.unions[u] = (subs, self.batches.setdefault(batch, batch))  # one key per batch
            if u not in self.holding.get(u[0], ()):
                for v in u:
                    self.holding.setdefault(v, []).append(u)
        return self.unions[u]


def _union_scores(beliefs: BeliefState, layouts: dict[Cluster, tuple]) -> dict[Cluster, float]:
    """:func:`~maplp.engine.dual_decrease` of each union with its
    sub-clusters at a zero union table, in one batch per union order and
    sub layout (each sub's kept axes and table shape): per row, the same
    left-to-right additions of the same tables, since adding to a zero
    first changes no bit.  Every union has a sub-cluster: the one its pair
    shares."""
    batches: dict[tuple, list[Cluster]] = {}
    for u, (_, batch) in layouts.items():
        batches.setdefault(batch, []).append(u)
    scores: dict[Cluster, float] = {}
    for (_, layout), unions in batches.items():
        n, u = len(unions), unions[0]
        separate = np.zeros(n)
        joint = None
        for i in range(len(layout)):
            bs = np.array([beliefs[layouts[v][0][i]] for v in unions], dtype=np.float64)
            separate += bs.reshape(n, -1).max(axis=1)
            piece = bs[(slice(None), *_embed_index(layouts[u][0][i], u))]
            joint = piece.copy() if joint is None else joint + piece
        scores.update(zip(unions, (separate - joint.reshape(n, -1).max(axis=1)).tolist()))
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
        candidates = _candidates(index, beliefs, max_order)
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
