"""Dynamic tightening of a relaxation by pursuing disagreeing cluster pairs.

After an inner solve converges with a dual/primal gap, two extended clusters
that share a sub-cluster but have no common parent may still disagree: no
maximiser of one agrees with any maximiser of the other on the shared scope.
The union of such a pair is a candidate cluster; adding it (with every
support cluster inside it as a sub-cluster) restores agreement on the pair
and can only lower the dual.  Candidates are scored by the dual decrease a
single block update of the union would achieve, and the best few are added
per round.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .engine import (
    BeliefState,
    DualTrace,
    Messages,
    SolverParams,
    _check_model,
    _embed_index,
    _run,
    init_messages,
)
from .factor_graph import Cluster, FactorGraph, table_shape
from .relaxations import RelaxationSpec, _canonical, _incidence, _inside

logger = logging.getLogger(__name__)

DEFAULT_UNION_ORDER_CAP = 8
MAXIMISER_TOL = 1e-9


@dataclass(frozen=True)
class StealthCandidate:
    """A disagreeing pair of extended clusters and their union."""

    parents: tuple[Cluster, Cluster]
    shared: Cluster
    union: Cluster
    sub_clusters: tuple[Cluster, ...]
    score: float


def _decoded_projection(table: np.ndarray, scope: Cluster, target: Cluster) -> tuple[int, ...]:
    """Projection onto ``target`` of the decoded (first flat-index) maximiser."""
    conf = np.unravel_index(int(np.argmax(table)), table.shape)
    return tuple(int(conf[scope.index(v)]) for v in target)


def maximiser_projections(table: np.ndarray, scope: Cluster, target: Cluster) -> set[tuple[int, ...]]:
    """Projections onto ``target`` of every near-maximal configuration."""
    flat = table.reshape(-1)
    hits = np.flatnonzero(flat >= flat.max() - MAXIMISER_TOL)
    confs = np.unravel_index(hits, table.shape)
    positions = [scope.index(v) for v in target]
    return {tuple(int(confs[p][i]) for p in positions) for i in range(len(hits))}


def pursuit_score(beliefs: BeliefState, candidate: StealthCandidate) -> float:
    """Dual decrease of one block update of the union, taken at its zero
    initialisation: separate sub-table maxima minus their joint maximum."""
    subs = [s for s in candidate.sub_clusters if s != candidate.union]
    if not subs:
        return 0.0
    joint = None
    separate = 0.0
    for s in subs:
        bs = beliefs[s]
        separate += float(bs.max())
        piece = bs[_embed_index(s, candidate.union)]
        joint = piece.copy() if joint is None else joint + piece
    return separate - float(joint.max())


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
    Duplicated unions keep their best score; results are sorted by
    descending score, then lexicographic union.
    """
    index = _incidence(spec.support)
    senders: dict[Cluster, list[Cluster]] = {}
    for c in spec.extended_clusters:
        for s in spec.proper_subs_of(c):
            senders.setdefault(s, []).append(c)
    common_parent: set[frozenset[Cluster]] = set()
    for c in spec.extended_clusters:
        subs = spec.proper_subs_of(c)
        for a, b in combinations(subs, 2):
            common_parent.add(frozenset((a, b)))

    proj_cache: dict[tuple[Cluster, Cluster], tuple[int, ...]] = {}

    def proj(c: Cluster, t: Cluster) -> tuple[int, ...]:
        key = (c, t)
        if key not in proj_cache:
            proj_cache[key] = _decoded_projection(beliefs[c], c, t)
        return proj_cache[key]

    best: dict[Cluster, StealthCandidate] = {}
    skipped_large = 0
    for t, cs in sorted(senders.items()):
        for c1, c2 in combinations(sorted(cs), 2):
            if frozenset((c1, c2)) in common_parent:
                continue
            if proj(c1, t) == proj(c2, t):
                continue
            union = tuple(sorted(set(c1) | set(c2)))
            if len(union) > max_order:
                skipped_large += 1
                continue
            subs = _canonical(s for s in _inside(index, union) if s != union)
            cand = StealthCandidate((c1, c2), t, union, subs, 0.0)
            score = pursuit_score(beliefs, cand)
            cand = StealthCandidate((c1, c2), t, union, subs, score)
            prev = best.get(union)
            if prev is None or score > prev.score:
                best[union] = cand
    if skipped_large:
        logger.warning(
            "dropped %d stealth candidates above union order cap %d",
            skipped_large, max_order,
        )
    return sorted(best.values(), key=lambda c: (-c.score, c.union))


@dataclass
class PursuitResult:
    assignment: tuple[int, ...]
    trace: DualTrace
    spec: RelaxationSpec
    beliefs: BeliefState
    rounds: int = 0
    truncated: bool = False
    closed: bool = False

    @property
    def dual(self) -> float:
        return self.trace.records[-1].dual if self.trace.records else float("nan")

    @property
    def primal(self) -> float:
        return self.trace.records[-1].primal if self.trace.records else float("nan")

    @property
    def gap(self) -> float:
        return abs(self.dual - self.primal)


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

    The graph is validated once, before the first sweep, as in :func:`run`.
    """
    _check_model(graph)
    if params is None:
        params = SolverParams()
    t0 = time.perf_counter()
    trace = DualTrace()
    current = spec
    beliefs: BeliefState | None = None
    messages: Messages | None = None
    rounds = 0
    truncated = False
    sweeps_done = 0

    while True:
        budget = params.max_sweeps if rounds == 0 else params.pursuit_sweeps
        result = _run(
            graph,
            current,
            params,
            mode,
            label=label,
            beliefs=beliefs,
            messages=messages,
            max_sweeps=budget,
            pursuit_round=rounds,
            start_time=t0,
            sweep_offset=sweeps_done,
        )
        trace.records.extend(result.trace.records)
        if result.trace.records:
            sweeps_done = result.trace.records[-1].sweep
        beliefs = result.beliefs
        messages = result.messages
        gap = result.gap
        if gap <= params.outer_tol:
            return PursuitResult(
                result.assignment, trace, current, beliefs,
                rounds=rounds, truncated=False, closed=True,
            )
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
        additions = {c.union: c.sub_clusters for c in chosen}
        current = current.with_clusters(additions)
        rounds += 1
        for cand in chosen:
            if cand.union not in beliefs:
                beliefs[cand.union] = np.zeros(
                    table_shape(cand.union, graph.cardinalities)
                )
        if messages is not None:
            fresh = init_messages(current, graph.cardinalities)
            fresh.update(messages)
            messages = fresh

    return PursuitResult(
        result.assignment, trace, current, beliefs,
        rounds=rounds, truncated=truncated, closed=False,
    )
