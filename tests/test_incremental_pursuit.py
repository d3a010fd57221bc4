"""Pursuit rounds that grow the compiled sweep, against a full compile per
round.

``reference_pursuit`` re-runs the outer loop of ``run_with_pursuit`` with
public ``run`` on each round's spec, from a copy of the warm beliefs, so
every round packs and compiles its spec from scratch.  ``run_with_pursuit``
keeps its packed tables and compiled sweep across rounds and grows them;
every round must agree bit for bit, and a full compile may happen only on
the first round and where an existing extended cluster gains sub-clusters.
"""

import hashlib
from dataclasses import replace

import numpy as np

import maplp.engine as engine
import maplp.pursuit as pursuit
from maplp import (
    FactorGraph,
    SolverParams,
    XorShift64Star,
    dd_spec,
    random_grid,
    run,
    run_with_pursuit,
    stealth_candidates,
)
from maplp.factor_graph import table_shape

from conftest import frustrated_cycle

CYCLE_PARAMS = SolverParams(max_sweeps=500, pursuit_sweeps=50)


def copied(beliefs):
    """A snapshot of a belief state: its tables are views into a store that
    later rounds keep writing."""
    return {t: v.copy() for t, v in beliefs.items()}


def reference_pursuit(graph, spec, params, search):
    """Per round: spec, duals, primals, assignment and final tables; plus
    the number of rounds in which an existing extended cluster gained
    sub-clusters."""
    rounds, beliefs, gained = [], None, 0
    while True:
        budget = params.pursuit_sweeps if rounds else params.max_sweeps
        result = run(graph, spec, replace(params, max_sweeps=budget),
                     beliefs=None if beliefs is None else copied(beliefs))
        beliefs = result.beliefs
        rounds.append((spec, result.trace.duals, result.trace.primals,
                       result.assignment, copied(beliefs)))
        if result.gap <= params.outer_tol:
            return rounds, gained
        present = set(spec.extended_clusters)
        chosen = [c for c in search(spec, beliefs)
                  if c.union not in present
                  or not set(c.sub_clusters) <= set(spec.subs_of(c.union))]
        if not chosen and result.converged:
            return rounds, gained
        chosen = chosen[:params.clusters_per_round]
        gained += any(c.union in present for c in chosen)
        spec = spec.with_clusters({c.union: c.sub_clusters for c in chosen})
        for c in chosen:
            if c.union not in beliefs:
                beliefs[c.union] = np.zeros(table_shape(c.union, graph.cardinalities))


def checked_pursuit(monkeypatch, graph, params, search=stealth_candidates):
    """Runs pursuit with ``search`` as its candidate search, asserts every
    round against the reference; returns the number of full compiles and of
    reference rounds where a cluster gained sub-clusters, and whether the
    gap closed."""
    seen, compiles = [], []
    compile_ = engine._Sweep._compile

    def recording(spec, beliefs, **kwargs):
        seen.append((spec, copied(beliefs)))
        return search(spec, beliefs, **kwargs)

    def counting(self, state):
        compiles.append(state)
        return compile_(self, state)

    monkeypatch.setattr(pursuit, "stealth_candidates", recording)
    monkeypatch.setattr(engine._Sweep, "_compile", counting)
    result = run_with_pursuit(graph, dd_spec(graph), params)
    monkeypatch.undo()
    want, gained = reference_pursuit(graph, dd_spec(graph), params, search)

    assert result.rounds == len(want) - 1
    for r, (spec, duals, primals, _, tables) in enumerate(want):
        records = [rec for rec in result.trace.records if rec.pursuit_round == r]
        assert [rec.dual for rec in records] == duals, r
        assert [rec.primal for rec in records] == primals, r
        if r < len(seen):
            got_spec, got_tables = seen[r]
            assert got_spec == spec and got_spec.extended_clusters == spec.extended_clusters
            assert list(got_tables) == list(tables)
            for t, table in tables.items():
                assert np.array_equal(got_tables[t], table), (r, t)
    spec, _, _, assignment, tables = want[-1]
    assert result.spec == spec and result.assignment == assignment
    for t, table in tables.items():
        assert np.array_equal(result.beliefs[t], table), t
    # Every table is still a view into the one pack of its shape, also after
    # packs were reallocated to grow.
    bases = {}
    for table in result.beliefs.values():
        assert bases.setdefault(table.shape, table.base) is table.base
    return len(compiles), gained, result.closed


def cycle_union(cycles):
    cards, clusters, tables = [], [], []
    for g in cycles:
        offset = len(cards)
        cards += g.cardinalities
        for p in g.potentials:
            clusters.append(tuple(v + offset for v in p.scope))
            tables.append(p.values)
    return FactorGraph(cards, clusters, tables)


def test_hundred_cycles_match_full_compiles(monkeypatch):
    master = XorShift64Star(3)
    graph = cycle_union([frustrated_cycle(master.next_u64()) for _ in range(100)])
    compiles, gained, closed = checked_pursuit(monkeypatch, graph, CYCLE_PARAMS)
    assert closed and gained == 2
    assert compiles == 1 + gained <= 4


def test_ten_cycles_match_full_compiles(monkeypatch):
    graph = cycle_union([frustrated_cycle(seed) for seed in range(10)])
    compiles, gained, closed = checked_pursuit(monkeypatch, graph, CYCLE_PARAMS)
    assert closed and compiles == 1 + gained


def test_grid_matches_full_compiles(monkeypatch):
    params = SolverParams(max_sweeps=100, pursuit_sweeps=10, clusters_per_round=10)
    compiles, gained, closed = checked_pursuit(monkeypatch, random_grid(6, 6, 3, 0), params)
    assert closed and gained == 1
    assert compiles == 2


def test_message_mode_pursuit_trace_unchanged():
    """Message mode rebuilds its state each round; its trace is pinned to
    the one it had before belief mode kept its sweep across rounds."""
    graph = cycle_union([frustrated_cycle(seed) for seed in range(4)])
    params = SolverParams(max_sweeps=200, pursuit_sweeps=20, clusters_per_round=5)
    result = run_with_pursuit(graph, dd_spec(graph), params, mode="messages")
    bits = np.array(result.trace.duals + result.trace.primals).tobytes()
    assert (result.rounds, len(result.trace)) == (3, 35)
    assert hashlib.sha256(bits).hexdigest()[:16] == "4c1d7056c07a78bb"


def test_rounds_that_add_nothing_match_full_compiles(monkeypatch):
    """No round adds a cluster while the inner loop still descends, so the
    kept sweep runs again on an unchanged spec until it converges."""
    graph = cycle_union([frustrated_cycle(seed) for seed in range(3)])
    params = SolverParams(max_sweeps=2, pursuit_sweeps=1)
    compiles, gained, closed = checked_pursuit(
        monkeypatch, graph, params, lambda spec, beliefs, **kwargs: []
    )
    assert compiles == 1 and gained == 0 and not closed


def fresh_senders(spec):
    """Support table -> the extended clusters listing it as a proper
    sub-cluster, in sweep order, built from scratch."""
    senders = {t: [] for t in spec.support}
    for c in spec.extended_clusters:
        for s in spec.proper_subs_of(c):
            senders[s].append(c)
    return senders


def test_sender_index_matches_fresh_build_every_round(monkeypatch):
    """Each round's spec builds its own sender index on first use (a grown
    spec does not carry its parent's), equal to a fresh one list for list,
    also after an existing extended cluster gained sub-clusters; the
    message context reads the same index."""
    specs = []

    def recording(spec, beliefs, **kwargs):
        assert (specs and spec is specs[-1]) or "_senders" not in spec.__dict__
        specs.append(spec)
        return stealth_candidates(spec, beliefs, **kwargs)

    monkeypatch.setattr(pursuit, "stealth_candidates", recording)
    graph = random_grid(6, 6, 3, 0)
    params = SolverParams(max_sweeps=100, pursuit_sweeps=10, clusters_per_round=10)
    result = run_with_pursuit(graph, dd_spec(graph), params)
    specs.append(result.spec)
    gained = sum(
        any(spec.subs_of(c) != before.subs_of(c) for c in before.extended_clusters)
        for before, spec in zip(specs, specs[1:])
    )
    assert len(specs) >= 3 and gained >= 1
    for spec in specs:
        assert spec._senders == fresh_senders(spec)
        assert list(spec._senders) == list(spec.support)
        assert engine._MessageContext(graph, spec).senders is spec._senders
