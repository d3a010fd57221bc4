"""The one-step-per-level belief sweep against the one-cluster-at-a-time
reference, on the cases that stress a level step: unions with nested
sub-clusters, mixed and unit cardinalities, tables that update at one level
and are a sub-cluster at a later one, and random graphs.  Every comparison
is exact ``==`` through ``assert_same_run``.  Also pinned: one step per
level, and what a compiled sweep keeps in memory.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from maplp import (
    FactorGraph,
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
from maplp.engine import _Sweep
from maplp.factor_graph import table_shape

from test_compiled_sweep import SIX_SPECS, assert_same_run

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def seeded_graph(cards, clusters, seed):
    rng = XorShift64Star(seed)
    tables = [rng.normals(int(np.prod([cards[v] for v in c]))) for c in clusters]
    return FactorGraph(cards, clusters, tables)


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
        spec = spec.with_clusters({c.union: c.sub_clusters for c in chosen})
        for c in chosen:
            if c.union not in result.beliefs:
                result.beliefs[c.union] = np.zeros(table_shape(c.union, g.cardinalities))
            nested += any(set(a) < set(b) for a in c.sub_clusters for b in c.sub_clusters)
        result = assert_same_run(g, spec, max_sweeps=10, beliefs=result.beliefs)
    assert nested


@pytest.mark.parametrize("builder", SIX_SPECS)
def test_mixed_and_unit_cardinalities_match_reference(builder):
    """Cardinalities 2, 3, 2, 2, 3 and a variable of one state."""
    cards = [2, 3, 2, 2, 3, 1]
    clusters = [(0,), (1,), (2,), (3,), (4,), (5,), (0, 1), (1, 2), (0, 1, 2),
                (2, 3, 4), (3, 4), (4, 5), (1, 4, 5), (0, 3, 5)]
    for seed in range(3):
        g = seeded_graph(cards, clusters, seed)
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
    sweep = _Sweep(g.cardinalities)
    sweep.prepare(spec, init_beliefs(g, spec))
    assert len(sweep.steps) == len(sweep.batches) == levels


# Bytes that ``retained_by_prepare`` counts for a ``ps`` sweep of the
# 16x16x3 grid compiled as one step per (level, shape, layout) batch over
# one pack per table shape, with views bound per step (Python 3.11,
# numpy 2.4).
PACKED_SWEEP_RETAINED = 1_749_744


def retained_by_prepare(graph, spec):
    """Bytes allocated by ``_Sweep.prepare`` and still held after it."""
    state = init_beliefs(graph, spec)
    gc.collect()
    tracemalloc.start()
    try:
        sweep = _Sweep(graph.cardinalities)
        sweep.prepare(spec, state)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sweep.steps
    return retained


def test_compiled_sweep_retains_no_more_than_packed_sweep():
    g = random_grid(16, 16, 3, seed=0)
    assert retained_by_prepare(g, powerset_spec(g)) <= PACKED_SWEEP_RETAINED
