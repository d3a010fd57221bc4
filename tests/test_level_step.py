"""The one-step-per-level belief sweep against the one-cluster-at-a-time
reference, on the cases that stress a level step: unions with nested
sub-clusters, mixed and unit cardinalities, tables that update at one level
and are a sub-cluster at a later one, and random graphs.  Every comparison
is exact through ``assert_same_run``.  Also pinned: one step per level,
index maps kept within their budget giving the same iterates as maps
rebuilt per call, each sweep's drop pass and role sums giving the
reference's bytes, and what a compiled sweep keeps in memory.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from maplp import (
    FactorGraph,
    RelaxationSpec,
    SolverParams,
    XorShift64Star,
    dd_spec,
    gmplp_spec,
    init_beliefs,
    max_intersection_spec,
    pi_system_spec,
    powerset_spec,
    random_grid,
    stealth_candidates,
)
import maplp.engine as engine
from maplp.engine import _run, _Sweep
from maplp.factor_graph import table_shape

from conftest import random_clusters_graph
from test_compiled_sweep import SIX_SPECS, assert_same_run, float_bytes, reference_update

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def seeded_graph(cards, clusters, seed):
    rng = XorShift64Star(seed)
    tables = [rng.normals(int(np.prod([cards[v] for v in c]))) for c in clusters]
    return FactorGraph(cards, clusters, tables)


def grow(graph, spec, beliefs, chosen):
    """``spec`` with the unions of ``chosen`` added, and a zero table for
    each new union put into ``beliefs``."""
    for c in chosen:
        if c.union not in beliefs:
            beliefs[c.union] = np.zeros(table_shape(c.union, graph.cardinalities))
    return spec.with_clusters({c.union: c.sub_clusters for c in chosen})


def test_pursuit_grown_grid_with_nested_unions_matches_reference():
    """Three rounds of stealth additions on the 6x6x3 grid: each union
    lists every support cluster inside it, so its subs nest."""
    g = random_grid(6, 6, 3, seed=0)
    spec = dd_spec(g)
    result = assert_same_run(g, spec, max_sweeps=30)
    nested = 0
    for _ in range(3):
        chosen = stealth_candidates(spec, result.beliefs)[:10]
        assert chosen
        spec = grow(g, spec, result.beliefs, chosen)
        nested += sum(any(set(a) < set(b) for a in c.sub_clusters for b in c.sub_clusters)
                      for c in chosen)
        result = assert_same_run(g, spec, max_sweeps=10, beliefs=result.beliefs)
    assert nested


# Cardinalities 2, 3, 2, 2, 3 and a variable of one state.
MIXED_CARDS = [2, 3, 2, 2, 3, 1]
MIXED_CLUSTERS = [(0,), (1,), (2,), (3,), (4,), (5,), (0, 1), (1, 2), (0, 1, 2),
                  (2, 3, 4), (3, 4), (4, 5), (1, 4, 5), (0, 3, 5)]


@pytest.mark.parametrize("builder", SIX_SPECS)
def test_mixed_and_unit_cardinalities_match_reference(builder):
    for seed in range(3):
        g = seeded_graph(MIXED_CARDS, MIXED_CLUSTERS, seed)
        assert_same_run(g, builder(g), max_sweeps=20)


def level_batches(graph, spec):
    batches = {}
    engine._schedule(spec, spec.extended_clusters, graph.cardinalities, {}, batches)
    return batches


def test_table_updating_before_it_is_a_sub_matches_reference():
    """Under ``ps`` a triple updates its pairs at one level and is a sub of
    its square at a later one."""
    g = random_grid(4, 4, 3, seed=2)
    spec = powerset_spec(g)
    batches = level_batches(g, spec)
    level_of = {c: level for level, by in batches.items() for cs in by.values() for c in cs}
    assert any(
        level_of.get(s, level) < level
        for level, by in batches.items() for cs in by.values() for c in cs
        for s in spec.proper_subs_of(c)
    )
    assert_same_run(g, spec, max_sweeps=25)


@pytest.mark.parametrize("builder", [gmplp_spec, powerset_spec, max_intersection_spec])
def test_levels_split_into_parts_match_reference(monkeypatch, builder):
    """A level too large for one part runs as several; a part budget
    below one square's cells splits every level of a 4x4 grid."""
    monkeypatch.setattr(engine, "_PART_CELLS", 64)
    g = random_grid(4, 4, 3, seed=1)
    spec = builder(g)
    assert any(len(engine._parts(by)) > 1 for by in level_batches(g, spec).values())
    assert_same_run(g, spec, max_sweeps=15)


@st.composite
def mixed_graphs(draw):
    """Two to six variables of one to three states, up to eight clusters
    of up to four variables, every variable covered."""
    n = draw(st.integers(2, 6))
    cards = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    scopes = draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=4), min_size=1, max_size=8,
    ))
    clusters = list(dict.fromkeys(tuple(sorted(s)) for s in scopes))
    covered = set().union(*scopes)
    clusters += [(v,) for v in range(n) if v not in covered]
    return seeded_graph(cards, clusters, draw(st.integers(0, 2**32)))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(graph=mixed_graphs(), builder=st.sampled_from(SIX_SPECS))
def test_random_graphs_match_reference(graph, builder):
    assert_same_run(graph, builder(graph), max_sweeps=10)


GRID_LEVELS = {"gmplp": (gmplp_spec, 47), "dd": (dd_spec, 47), "ps": (powerset_spec, 121),
               "pi-s": (pi_system_spec, 61), "mi": (max_intersection_spec, 43)}


@pytest.mark.parametrize("name", GRID_LEVELS)
def test_one_step_per_level_on_sixteen_grid(name):
    builder, levels = GRID_LEVELS[name]
    g = random_grid(16, 16, 3, seed=0)
    spec = builder(g)
    sweep = _Sweep(spec, init_beliefs(g, spec), g.cardinalities)
    assert len(sweep.steps) == len(sweep.batches) == levels


KEPT_CELLS = engine._KEPT_CELLS


def all_parts(sweep):
    return [p for parts in sweep.steps for p in parts]


def kept_sizes(sweep):
    """Cells of the maps and scale each part of ``sweep`` keeps, counted
    from the arrays themselves."""
    return [G.size + sum(Q.size for Q in Qs) + R.size + scale.size
            for G, Qs, R, scale in (p.kept for p in all_parts(sweep) if p.kept)]


class BudgetedRuns:
    """One warm-started state and kept sweep per keep budget, solved in
    step; the budget is patched in around each compile, grow and solve."""

    def __init__(self, monkeypatch, graph, spec, budgets):
        self.monkeypatch, self.graph, self.budgets = monkeypatch, graph, budgets
        self.states = {b: init_beliefs(graph, spec) for b in budgets}
        self.sweeps = {}
        for b in budgets:
            monkeypatch.setattr(engine, "_KEPT_CELLS", b)
            self.sweeps[b] = _Sweep(spec, self.states[b], graph.cardinalities)

    def solve(self, spec, max_sweeps, gained=None):
        """Solve ``spec`` at every budget, first growing each kept sweep to
        it unless ``gained`` is None; require ``==`` traces, decrease,
        assignments and stores, and return the last budget's result."""
        results = {}
        for b in self.budgets:
            self.monkeypatch.setattr(engine, "_KEPT_CELLS", b)
            if gained is not None:
                self.sweeps[b].grow(spec, gained)
            results[b] = _run(self.graph, spec, SolverParams(max_sweeps=max_sweeps),
                              beliefs=self.states[b], sweep=self.sweeps[b])
        first, *rest = self.budgets
        stores = {b: sweep.store for b, sweep in self.sweeps.items()}
        for b in rest:
            assert results[b].trace.duals == results[first].trace.duals
            assert results[b].trace.primals == results[first].trace.primals
            assert (float_bytes(results[b].min_update_decrease)
                    == float_bytes(results[first].min_update_decrease))
            assert results[b].assignment == results[first].assignment
            assert stores[b].where == stores[first].where
            assert np.array_equal(stores[b].buf[:stores[b].used],
                                  stores[first].buf[:stores[first].used])
        return results[self.budgets[-1]]


@pytest.mark.parametrize("builder", SIX_SPECS)
def test_kept_and_rebuilt_maps_agree_on_mixed_cardinalities(monkeypatch, builder):
    for seed in range(3):
        g = seeded_graph(MIXED_CARDS, MIXED_CLUSTERS, seed)
        runs = BudgetedRuns(monkeypatch, g, builder(g), (0, KEPT_CELLS))
        runs.solve(builder(g), max_sweeps=20)
        assert not kept_sizes(runs.sweeps[0])
        assert all(p.kept for p in all_parts(runs.sweeps[KEPT_CELLS]))


def test_kept_and_rebuilt_maps_agree_on_pursuit_grown_grid(monkeypatch):
    """The 6x6x3 grid keeps the maps of only some of its parts, so kept and
    rebuilt maps meet in one sweep, before and after three pursuit rounds."""
    g = random_grid(6, 6, 3, seed=0)
    spec = dd_spec(g)
    runs = BudgetedRuns(monkeypatch, g, spec, (0, KEPT_CELLS))
    result = runs.solve(spec, max_sweeps=30)
    for _ in range(3):
        chosen = stealth_candidates(spec, result.beliefs)[:10]
        assert chosen
        gained = any(c.union in spec.sub_clusters for c in chosen)
        spec = grow(g, spec, runs.states[0], chosen)
        grow(g, spec, runs.states[KEPT_CELLS], chosen)
        result = runs.solve(spec, max_sweeps=10, gained=gained)
        kept = [bool(p.kept) for p in all_parts(runs.sweeps[KEPT_CELLS])]
        assert any(kept) and not all(kept)
        assert not kept_sizes(runs.sweeps[0])


def test_kept_cells_stay_within_budget_across_pursuit_rounds():
    """After each of three pursuit rounds the kept cells are within the
    budget and are those of the current parts: a rebuilt level's old parts
    gave theirs back (on ``gmplp`` the first round rebuilds a kept level
    whose grown parts no longer fit)."""
    g = random_grid(6, 6, 3, seed=0)
    spec = gmplp_spec(g)
    sweep = _Sweep(spec, init_beliefs(g, spec), g.cardinalities)
    result = _run(g, spec, SolverParams(max_sweeps=30), sweep=sweep)
    assert sweep.kept_cells == sum(kept_sizes(sweep)) <= KEPT_CELLS
    freed = 0
    for _ in range(3):
        chosen = stealth_candidates(spec, result.beliefs)[:10]
        gained = any(c.union in spec.sub_clusters for c in chosen)
        spec = grow(g, spec, result.beliefs, chosen)
        before, old = sweep.kept_cells, all_parts(sweep)
        sweep.grow(spec, gained)
        result = _run(g, spec, SolverParams(max_sweeps=10), beliefs=result.beliefs,
                      sweep=sweep)
        current = all_parts(sweep)
        gone = sum(p.map_cells for p in old if p.kept and all(p is not q for q in current))
        added = sum(p.map_cells for p in current if p.kept and all(p is not q for q in old))
        assert sweep.kept_cells == before - gone + added
        assert sweep.kept_cells == sum(kept_sizes(sweep)) <= KEPT_CELLS
        freed += gone
    assert freed


@pytest.mark.parametrize("builder", SIX_SPECS)
def test_twelve_variable_instances_keep_every_map(builder):
    for seed in range(6):
        g = random_clusters_graph(seed, max_vars=12)
        spec = builder(g)
        sweep = _Sweep(spec, init_beliefs(g, spec), g.cardinalities)
        assert sweep.steps
        assert all(p.kept for p in all_parts(sweep))


def reference_sweep_drops(spec, tables, sweeps):
    """Per sweep of the one-cluster-at-a-time reference, its smallest drop;
    updates ``tables`` in place."""
    drops = []
    for _ in range(sweeps):
        drop = float("inf")
        for c in spec.extended_clusters:
            subs = spec.proper_subs_of(c)
            if subs:
                drop = min(drop, reference_update(tables, c, subs))
        drops.append(drop)
    return drops


def assert_role_sums_agree(monkeypatch, graph, spec, max_sweeps):
    """Solve ``spec`` compiled, recording what each sweep's drop pass
    returns, and require the bytes of the reference's per-sweep smallest
    drops and final tables; returns the compiled sweep."""
    drops, call = [], engine._Drops.__call__

    def recorded(self):
        drops.append(call(self))
        return drops[-1]

    monkeypatch.setattr(engine._Drops, "__call__", recorded)
    state = init_beliefs(graph, spec)
    tables = {t: v.copy() for t, v in state.items()}
    sweep = _Sweep(spec, state, graph.cardinalities)
    result = _run(graph, spec, SolverParams(max_sweeps=max_sweeps), sweep=sweep)
    want = reference_sweep_drops(spec, tables, len(result.trace))
    assert list(map(float_bytes, drops)) == list(map(float_bytes, want))
    assert all(state[t].tobytes() == table.tobytes() for t, table in tables.items())
    return sweep


def test_role_sums_agree_on_one_member_parts_of_nine_subs(monkeypatch):
    """More than 8 roles, one member: where a pairwise sum would differ."""
    first, second = tuple(range(9)), tuple(range(4, 13))
    g = seeded_graph([2] * 13, [first, second, *((v,) for v in range(13))], seed=0)
    spec = RelaxationSpec((first, second), {c: tuple((v,) for v in c) for c in (first, second)})
    sweep = assert_role_sums_agree(monkeypatch, g, spec, max_sweeps=20)
    assert [(p.K, len(p.cells)) for p in all_parts(sweep)] == [(9, 1), (9, 1)]


@pytest.mark.parametrize("builder", SIX_SPECS)
def test_role_sums_agree_on_unit_cardinalities(monkeypatch, builder):
    g = seeded_graph([1] * 6, MIXED_CLUSTERS, seed=0)
    assert_role_sums_agree(monkeypatch, g, builder(g), max_sweeps=10)


def test_role_sums_agree_on_one_cell_part_of_ten_roles(monkeypatch):
    """Unit cardinalities: one member of one cell and nine subs, so the
    roles of the joint lie along one contiguous axis, which
    ``np.add.reduce`` would add pairwise.  Entries of mixed magnitudes make
    the order of the adds show in the sums."""
    big, cards = tuple(range(9)), [1] * 9
    rng = XorShift64Star(7)
    tables = [rng.normals(1) * 10.0 ** (v % 5 * 4 - 8) for v in range(10)]
    g = FactorGraph(cards, [big, *((v,) for v in big)], tables)
    spec = RelaxationSpec((big,), {big: tuple((v,) for v in big)})
    sweep = assert_role_sums_agree(monkeypatch, g, spec, max_sweeps=10)
    assert [(p.K, p.width) for p in all_parts(sweep)] == [(9, 1)]


def test_parts_of_different_role_counts_match_reference(monkeypatch):
    """``ps`` on 12-variable instances: a sweep's parts have different role
    counts, so the drop pass pads the shorter ones."""
    for seed in range(4):
        g = random_clusters_graph(200 + seed, max_vars=12)
        spec = powerset_spec(g)
        sweep = assert_role_sums_agree(monkeypatch, g, spec, max_sweeps=20)
        assert len({p.K for p in all_parts(sweep)}) > 1
        assert_same_run(g, spec, max_sweeps=20)


def test_negative_zero_tables_match_reference_bytes(monkeypatch):
    """Tables of ``-0.0`` make the first update's drop ``-0.0``, which
    padding its two subs to the next part's three with ``+0.0`` would turn
    into ``0.0``; the next update's drop is positive."""
    clusters = [(0,), (1,), (2,), (0, 1), (0, 1, 2)]
    tables = [np.full(2, -0.0), np.full(2, -0.0), np.array([-1.0, 0.0]),
              np.full(4, -0.0), -np.arange(8.0)]
    g = FactorGraph([2, 2, 2], clusters, tables)
    spec = RelaxationSpec(((0, 1), (0, 1, 2)),
                          {(0, 1): ((0,), (1,)), (0, 1, 2): ((0,), (1,), (2,))})
    sweep = assert_role_sums_agree(monkeypatch, g, spec, max_sweeps=5)
    assert [p.K for p in all_parts(sweep)] == [2, 3]
    result = assert_same_run(g, spec, max_sweeps=5)
    assert float_bytes(result.min_update_decrease) == float_bytes(-0.0)


def test_role_sums_agree_on_hundred_member_levels(monkeypatch):
    """100 four-cycles under ``dd``: each level is one part of 100 members."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    clusters = [(4 * k + a, 4 * k + b) for k in range(100) for a, b in edges]
    g = seeded_graph([2] * 400, clusters, seed=0)
    sweep = assert_role_sums_agree(monkeypatch, g, dd_spec(g), max_sweeps=30)
    assert {len(p.cells) for p in all_parts(sweep)} == {100}


# Bytes that ``retained_by_compile`` counts for a ``ps`` sweep of the
# 16x16x3 grid compiled as one step per (level, shape, layout) batch over
# one pack per table shape, with views bound per step (Python 3.11,
# numpy 2.4).
PACKED_SWEEP_RETAINED = 1_749_744


def retained_by_compile(graph, spec):
    """Bytes allocated by compiling a ``_Sweep`` and still held after it."""
    state = init_beliefs(graph, spec)
    gc.collect()
    tracemalloc.start()
    try:
        sweep = _Sweep(spec, state, graph.cardinalities)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sweep.steps
    return retained


def test_compiled_sweep_retains_no_more_than_packed_sweep():
    g = random_grid(16, 16, 3, seed=0)
    assert retained_by_compile(g, powerset_spec(g)) <= PACKED_SWEEP_RETAINED
