"""Pursuit rounds that grow the compiled sweep, against a full compile per
round.

``reference_pursuit`` re-runs the outer loop of ``run_with_pursuit`` with
public ``run`` on each round's spec, from a copy of the warm beliefs, so
every round packs and compiles its spec from scratch.  ``run_with_pursuit``
keeps its packed tables and compiled sweep across rounds and grows them,
also in rounds where an existing extended cluster gains sub-clusters; every
round must agree bit for bit, and only the first round compiles in full.
"""

import hashlib
from dataclasses import replace

import numpy as np

import maplp.engine as engine
import maplp.pursuit as pursuit
from maplp import (
    FactorGraph,
    RelaxationSpec,
    SolverParams,
    XorShift64Star,
    dd_spec,
    random_grid,
    run,
    run_with_pursuit,
    stealth_candidates,
)
from maplp.factor_graph import table_shape

from conftest import frustrated_cycle, route_search

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


def kept_search(spec, beliefs, found, index):
    """Pursuit's own search, over the index it keeps."""
    return found


def checked_pursuit(monkeypatch, graph, params, search=kept_search,
                    reference_search=stealth_candidates):
    """Runs pursuit with ``search`` as its candidate search, asserts every
    round against the reference searching with ``reference_search``;
    returns the number of full compiles and of reference rounds where a
    cluster gained sub-clusters, and whether the gap closed."""
    seen, compiles = [], []
    init = engine._Sweep.__init__

    def recording(spec, beliefs, found, index):
        seen.append((spec, copied(beliefs)))
        return search(spec, beliefs, found, index)

    def counting(self, spec, state, cardinalities):
        compiles.append(state)
        init(self, spec, state, cardinalities)

    route_search(monkeypatch, recording)
    monkeypatch.setattr(engine._Sweep, "__init__", counting)
    result = run_with_pursuit(graph, dd_spec(graph), params)
    monkeypatch.undo()
    want, gained = reference_pursuit(graph, dd_spec(graph), params, reference_search)

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
    # Every table is still a view into the one store buffer, also after the
    # buffer was reallocated to grow.
    base = next(iter(result.beliefs.values())).base
    assert base is not None
    assert all(table.base is base for table in result.beliefs.values())
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
    assert compiles == 1


def test_ten_cycles_match_full_compiles(monkeypatch):
    graph = cycle_union([frustrated_cycle(seed) for seed in range(10)])
    compiles, gained, closed = checked_pursuit(monkeypatch, graph, CYCLE_PARAMS)
    assert closed and compiles == 1


def test_grid_matches_full_compiles(monkeypatch):
    params = SolverParams(max_sweeps=100, pursuit_sweeps=10, clusters_per_round=10)
    compiles, gained, closed = checked_pursuit(monkeypatch, random_grid(6, 6, 3, 0), params)
    assert closed and gained == 1
    assert compiles == 1


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
        monkeypatch, graph, params, lambda *args: [], lambda spec, beliefs: []
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

    def recording(spec, beliefs, found, index):
        assert (specs and spec is specs[-1]) or "_senders" not in vars(spec)
        specs.append(spec)
        return found

    route_search(monkeypatch, recording)
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



def checked_kept_index(monkeypatch, graph, params):
    """Runs pursuit, checking the search over its kept index on every
    round's spec, and the index grown by the last round on the final spec,
    against the search on a fresh spec with the same clusters.  Returns the
    number of specs in which an existing extended cluster gained
    sub-clusters."""
    rounds, kept = [], []

    def recording(spec, beliefs, found, index):
        rounds.append((spec, copied(beliefs), found))
        kept.append(index)
        return found

    route_search(monkeypatch, recording)
    result = run_with_pursuit(graph, dd_spec(graph), params)
    monkeypatch.undo()
    if result.spec is not rounds[-1][0]:
        found = pursuit._candidates(kept[-1], kept[-1].pack(result.beliefs),
                                    pursuit.DEFAULT_UNION_ORDER_CAP)
        recording(result.spec, result.beliefs, found, kept[-1])
    assert len(rounds) >= 3
    for spec, beliefs, got in rounds:
        fresh = RelaxationSpec(spec.extended_clusters, spec.sub_clusters)
        assert got == stealth_candidates(fresh, beliefs)
    return sum(
        any(spec.subs_of(c) != before.subs_of(c) for c in before.extended_clusters)
        for (before, _, _), (spec, _, _) in zip(rounds, rounds[1:])
    )


def test_kept_index_matches_fresh_search_on_cycles(monkeypatch):
    master = XorShift64Star(3)
    graph = cycle_union([frustrated_cycle(master.next_u64()) for _ in range(100)])
    assert checked_kept_index(monkeypatch, graph, CYCLE_PARAMS) == 2
    graph = cycle_union([frustrated_cycle(seed) for seed in range(10)])
    checked_kept_index(monkeypatch, graph, CYCLE_PARAMS)


def test_kept_index_matches_fresh_search_on_grids(monkeypatch):
    params = SolverParams(max_sweeps=100, pursuit_sweeps=10, clusters_per_round=10)
    gained = [checked_kept_index(monkeypatch, random_grid(6, 6, 3, seed), params)
              for seed in range(3)]
    assert gained[0] == 1


GRID_PARAMS = SolverParams(max_sweeps=100, pursuit_sweeps=10, clusters_per_round=10)


def gained_rounds(specs):
    """How many specs of ``specs`` gave an existing extended cluster more
    sub-clusters than the one before."""
    return sum(
        any(spec.subs_of(c) != before.subs_of(c) for c in before.extended_clusters)
        for before, spec in zip(specs, specs[1:])
    )


def test_each_round_takes_the_index_its_parent_searched_with(monkeypatch):
    """Every round searches with one index and solves with one compiled
    sweep, each built once and grown in place; also over a round whose
    clusters gained sub-clusters."""
    specs, indexes, sweeps = [], [], []

    def recording(spec, beliefs, found, index):
        indexes.append(index)
        return found

    route_search(monkeypatch, recording)
    run_ = pursuit._run

    def running(graph, spec, *args, sweep=None, **kwargs):
        specs.append(spec)
        sweeps.append(sweep)
        return run_(graph, spec, *args, sweep=sweep, **kwargs)

    monkeypatch.setattr(pursuit, "_run", running)
    graph = random_grid(6, 6, 3, 0)
    run_with_pursuit(graph, dd_spec(graph), GRID_PARAMS)
    assert len(indexes) >= 3 and gained_rounds(specs) >= 1
    assert isinstance(indexes[0], pursuit._SearchIndex)
    assert all(index is indexes[0] for index in indexes)
    assert isinstance(sweeps[0], engine._Sweep)
    assert all(sweep is sweeps[0] for sweep in sweeps)


def test_no_spec_holds_round_state(monkeypatch):
    """No spec a round solves, nor the result's, holds the search index
    or anything but its fields and the caches it computes itself."""
    specs = []
    run_ = pursuit._run

    def running(graph, spec, *args, **kwargs):
        specs.append(spec)
        return run_(graph, spec, *args, **kwargs)

    monkeypatch.setattr(pursuit, "_run", running)
    graph = random_grid(6, 6, 3, 0)
    result = run_with_pursuit(graph, dd_spec(graph), GRID_PARAMS)
    specs.append(result.spec)
    assert len(specs) >= 4 and gained_rounds(specs) >= 1
    own = {"extended_clusters", "sub_clusters", "_proper", "support", "_senders"}
    for spec in specs:
        assert set(vars(spec)) <= own, set(vars(spec)) - own


def test_grown_sweep_levels_match_a_fresh_compile(monkeypatch):
    """Before each round's solve the kept sweep has one step per level, as
    many levels as a sweep compiled afresh on a copy of the state, and the
    same batches."""
    checked = []
    run_ = pursuit._run

    def running(graph, spec, *args, sweep=None, **kwargs):
        fresh = engine._Sweep(spec, copied(sweep.state), graph.cardinalities)
        assert len(sweep.steps) == len(sweep.batches) == len(fresh.steps) == len(fresh.batches)
        assert sweep.batches == fresh.batches
        checked.append(spec)
        return run_(graph, spec, *args, sweep=sweep, **kwargs)

    monkeypatch.setattr(pursuit, "_run", running)
    for graph in (random_grid(6, 6, 3, 0),
                  cycle_union([frustrated_cycle(seed) for seed in range(10)])):
        run_with_pursuit(graph, dd_spec(graph), GRID_PARAMS)
    assert len(checked) >= 6 and gained_rounds(checked) >= 1


def test_siblings_and_new_variables_answer_as_fresh_specs():
    """Two specs grown from one searched spec, one grown from the second and
    one adding a variable no table had answer as fresh specs do; so does
    the parent afterwards."""
    graph = random_grid(4, 4, 2, 0)
    spec = dd_spec(graph)
    beliefs = run(graph, spec, SolverParams(max_sweeps=20)).beliefs
    before = stealth_candidates(spec, beliefs)
    a, b = before[:2]
    second = spec.with_clusters({b.union: b.sub_clusters})
    grown = [(spec.with_clusters({a.union: a.sub_clusters}), (a.union,)), (second, (b.union,)),
             (second.with_clusters({a.union: a.sub_clusters}), (a.union, b.union)),
             (spec.with_clusters({(15, 16): [(15,)]}), ((15, 16),))]
    for child, unions in grown:
        tables = {**beliefs, **{u: np.zeros([2] * len(u)) for u in unions}}
        fresh = RelaxationSpec(child.extended_clusters, child.sub_clusters)
        assert stealth_candidates(child, tables) == stealth_candidates(fresh, tables)
    assert stealth_candidates(spec, beliefs) == before
