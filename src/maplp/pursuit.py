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
beliefs (Sontag, Choe & Li, UAI 2012): it stacks the tables it reads by
shape, decodes every parent with one argmax per row, and scores each
distinct union once, in one numpy update per union order and sub-cluster
layout.  The solve then grows the compiled sweep it kept from the round
before (see :mod:`maplp.engine`) instead of compiling the grown spec from
scratch, and the spec itself checks only the clusters a round adds.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from itertools import combinations
from numbers import Integral

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
    _run,
    _Sweep,
    _TraceEnd,
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

    The search is batched: the tables it reads are stacked by shape
    straight from ``beliefs``, one argmax per row decodes every parent, and
    the unions are scored in one numpy update per union order and
    sub-cluster layout, with the float operations of
    :func:`~maplp.engine.dual_decrease` on a zero union table, so scores
    are bit-identical to it.  Raises ``ValueError`` unless ``max_order`` is
    an integer >= 1, :class:`CoverageError` when a support cluster has no
    table, and :class:`InvalidModelError` when a support table has not one
    axis per variable of its cluster, a variable has two axis lengths
    across the tables holding it, or a support table has a NaN or infinite
    entry.
    """
    _check_max_order(max_order)
    _check_support(beliefs, spec.support)
    _check_shapes(beliefs, spec.support)
    # One pass over every support table, read or not.
    if not np.isfinite(np.concatenate([beliefs[t] for t in spec.support], axis=None)).all():
        bad = [t for t in spec.support if not np.isfinite(beliefs[t]).all()]
        raise InvalidModelError(f"tables for clusters {bad}: non-finite entries")
    # Two clusters have a common parent when their senders meet.
    senders = spec._senders
    parents = [c for c in spec.extended_clusters if spec.proper_subs_of(c)]
    state_of = _first_maximisers(beliefs, parents)

    first: dict[Cluster, tuple[Cluster, Cluster, Cluster]] = {}
    skipped_large = 0
    for t, cs in sorted(item for item in senders.items() if len(item[1]) > 1):
        cs = sorted(cs)
        projs = [tuple(map(state_of[c].__getitem__, map(c.index, t))) for c in cs]
        if projs.count(projs[0]) == len(projs):
            continue
        for (p1, c1), (p2, c2) in combinations(zip(projs, cs), 2):
            if p1 == p2 or not set(senders[c1]).isdisjoint(senders[c2]):
                continue
            union = tuple(sorted(set(c1) | set(c2)))
            if len(union) > max_order:
                skipped_large += 1
                continue
            first.setdefault(union, (c1, c2, t))
    if skipped_large:
        logger.warning(
            "dropped %d stealth candidates above union order cap %d",
            skipped_large, max_order,
        )
    index = spec._support_index
    subs_of = {u: _canonical(s for s in _inside(index, u) if s != u) for u in first}
    scores = _union_scores(beliefs, subs_of)
    found = [
        StealthCandidate((c1, c2), t, u, subs_of[u], scores[u])
        for u, (c1, c2, t) in first.items()
    ]
    return sorted(found, key=lambda c: (-c.score, c.union))


def _check_max_order(max_order: int) -> None:
    if isinstance(max_order, bool) or not isinstance(max_order, Integral) or max_order < 1:
        raise ValueError(f"max_order must be an integer >= 1, got {max_order!r}")


def _first_maximisers(beliefs: BeliefState, ts: list[Cluster]) -> dict[Cluster, list[int]]:
    """The decoded (first flat-index) maximiser of each of the tables
    ``ts``, as a state per axis: one argmax per table, stacked by shape."""
    by_shape: dict[tuple[int, ...], list[Cluster]] = {}
    for t in ts:
        by_shape.setdefault(beliefs[t].shape, []).append(t)
    state_of: dict[Cluster, list[int]] = {}
    for shape, ts in by_shape.items():
        stack = np.stack([beliefs[t] for t in ts], dtype=np.float64)
        first = np.unravel_index(stack.reshape(len(ts), -1).argmax(axis=1), shape)
        state_of.update(zip(ts, np.array(first).T.tolist()))
    return state_of


def _union_scores(
    beliefs: BeliefState, subs_of: dict[Cluster, tuple[Cluster, ...]]
) -> dict[Cluster, float]:
    """:func:`~maplp.engine.dual_decrease` of each union with the given
    sub-clusters at a zero union table, in one batch per union order and
    sub layout (each sub's kept axes and table shape): per row, the same
    left-to-right additions of the same tables, since adding to a zero
    first changes no bit.  Every union has a sub-cluster: the one its pair
    shares."""
    batches: dict[tuple, list[Cluster]] = {}
    for u, subs in subs_of.items():
        axis = {v: i for i, v in enumerate(u)}.__getitem__
        layout = tuple((tuple(map(axis, s)), beliefs[s].shape) for s in subs)
        batches.setdefault((len(u), layout), []).append(u)
    scores: dict[Cluster, float] = {}
    for (_, layout), unions in batches.items():
        n, u = len(unions), unions[0]
        separate = np.zeros(n)
        joint = None
        for i in range(len(layout)):
            bs = np.stack([beliefs[subs_of[v][i]] for v in unions], dtype=np.float64)
            separate += bs.reshape(n, -1).max(axis=1)
            piece = bs[(slice(None), *_embed_index(subs_of[u][i], u))]
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
    mode the compiled sweep is kept across rounds and grows with the
    appended unions; it is compiled again only when an existing extended
    cluster gains sub-clusters.  Message mode rebuilds its state each round.
    """
    _check_model(graph)
    _check_max_order(max_order)
    if params is None:
        params = SolverParams()
    t0 = time.perf_counter()
    trace = DualTrace()
    current = spec
    beliefs: BeliefState | None = None
    messages: Messages | None = None
    sweep = _Sweep(graph.cardinalities) if mode == "beliefs" else None
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
        )
        trace.records.extend(result.trace.records)
        beliefs = result.beliefs
        messages = result.messages
        if result.gap <= params.outer_tol:
            break
        if result.truncated or time.perf_counter() - t0 > params.time_limit:
            truncated = True
            break

        candidates = stealth_candidates(current, beliefs, max_order=max_order)
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
        current = current.with_clusters({c.union: c.sub_clusters for c in chosen})
        rounds += 1
        for cand in chosen:
            if cand.union not in beliefs:
                beliefs[cand.union] = np.zeros(table_shape(cand.union, graph.cardinalities))
        if messages is not None:
            fresh = init_messages(current, graph.cardinalities)
            fresh.update(messages)
            messages = fresh

    return PursuitResult(
        result.assignment, trace, current, beliefs, rounds=rounds,
        truncated=truncated, closed=result.gap <= params.outer_tol,
    )
