"""The compiled belief sweep against the one-cluster-at-a-time sweep.

``reference_run`` is the sweep ``run`` compiles: one block update per
updating cluster in insertion order, the dual summed left to right in table
order, decoding from the smallest owner table, the primal summed in
potential order.  Levelling and shape batching must not change a single
bit, so every comparison here is exact: ``==``, and bytes for the smallest
drop, where ``==`` would take ``-0.0`` for ``0.0``.
"""

import numpy as np
import pytest

from maplp import (
    SolverParams,
    cycle_spec,
    dd_spec,
    energy,
    gmplp_spec,
    init_beliefs,
    max_intersection_spec,
    pi_system_spec,
    powerset_spec,
    random_grid,
    run,
    stealth_candidates,
    update_cluster_beliefs,
)
from maplp.engine import _embed_index, _max_axes

from conftest import random_clusters_graph

SIX_SPECS = [gmplp_spec, dd_spec, cycle_spec, powerset_spec, pi_system_spec,
             max_intersection_spec]


def reference_update(tables, c, subs):
    joint = tables[c].copy()
    before = float(tables[c].max())
    for s in subs:
        joint += tables[s][_embed_index(s, c)]
        before += float(tables[s].max())
    new = [joint.max(axis=_max_axes(s, c)) * (1.0 / len(subs)) for s in subs]
    after = 0.0
    for ns in new:
        after += float(ns.max())
    for s, ns in zip(subs, new):
        joint -= ns[_embed_index(s, c)]
        tables[s] = ns
    tables[c] = joint
    return before - (after + float(joint.max()))


def reference_dual(tables):
    total = 0.0
    for v in tables.values():
        total += float(v.max())
    return total


def reference_decode(tables, num_vars):
    owner = {}
    for t in sorted(tables, key=lambda t: (len(t), t)):
        for v in t:
            owner.setdefault(v, t)
    return tuple(
        int(np.unravel_index(int(np.argmax(tables[owner[i]])), tables[owner[i]].shape)
            [owner[i].index(i)])
        for i in range(num_vars)
    )


def reference_run(graph, spec, tables, max_sweeps, inner_tol=SolverParams.inner_tol):
    """Returns duals, primals, the smallest block drop and the assignment;
    updates ``tables`` in place."""
    duals, primals, min_drop = [], [], float("inf")
    g_prev = reference_dual(tables)
    for _ in range(max_sweeps):
        for c in spec.extended_clusters:
            subs = spec.proper_subs_of(c)
            if subs:
                min_drop = min(min_drop, reference_update(tables, c, subs))
        duals.append(reference_dual(tables))
        primals.append(energy(graph, reference_decode(tables, graph.num_vars)))
        if abs(duals[-1] - g_prev) < inner_tol:
            break
        g_prev = duals[-1]
    min_drop = 0.0 if min_drop == float("inf") else min_drop
    return duals, primals, min_drop, reference_decode(tables, graph.num_vars)


def float_bytes(x):
    return np.float64(x).tobytes()


def assert_same_run(graph, spec, max_sweeps, beliefs=None):
    """Run both sweeps from equal states; returns the compiled run."""
    state = beliefs if beliefs is not None else init_beliefs(graph, spec)
    ref_tables = {t: v.copy() for t, v in state.items()}
    duals, primals, min_drop, assignment = reference_run(graph, spec, ref_tables, max_sweeps)
    result = run(graph, spec, SolverParams(max_sweeps=max_sweeps), beliefs=state)
    assert result.trace.duals == duals
    assert result.trace.primals == primals
    assert float_bytes(result.min_update_decrease) == float_bytes(min_drop)
    assert result.assignment == assignment
    assert list(result.beliefs) == list(ref_tables)
    for t, table in ref_tables.items():
        assert np.array_equal(result.beliefs[t], table), t
    return result


@pytest.mark.parametrize("builder", SIX_SPECS)
def test_grids_match_reference_exactly(builder):
    for seed in (0, 1):
        g = random_grid(6, 6, 3, seed)
        assert_same_run(g, builder(g), max_sweeps=25)


@pytest.mark.parametrize("builder", SIX_SPECS)
def test_twelve_variable_instances_match_reference_exactly(builder):
    for seed in range(6):
        g = random_clusters_graph(100 + seed, max_vars=12)
        assert_same_run(g, builder(g), max_sweeps=20)


def test_pursuit_grown_spec_matches_reference_exactly():
    """Two rounds of stealth additions: new extended clusters at the end of
    the sweep and new zero tables appended to a warm-started state."""
    g = random_grid(4, 4, 2, seed=3)
    spec = dd_spec(g)
    result = assert_same_run(g, spec, max_sweeps=40)
    for _ in range(2):
        candidates = stealth_candidates(spec, result.beliefs)
        assert candidates
        chosen = candidates[:4]
        spec = spec.with_clusters({c.union: c.sub_clusters for c in chosen})
        for cand in chosen:
            if cand.union not in result.beliefs:
                result.beliefs[cand.union] = np.zeros((2,) * len(cand.union))
        result = assert_same_run(g, spec, max_sweeps=15, beliefs=result.beliefs)


def test_single_update_matches_reference_exactly():
    g = random_grid(3, 3, 3, seed=5)
    spec = gmplp_spec(g)
    c = g.clusters[-1]
    subs = spec.proper_subs_of(c)
    state = init_beliefs(g, spec)
    ref_tables = {t: v.copy() for t, v in state.items()}
    expected = reference_update(ref_tables, c, subs)
    assert update_cluster_beliefs(state, c, spec.subs_of(c)) == expected
    for t, table in ref_tables.items():
        assert np.array_equal(state[t], table), t


def test_returned_tables_share_storage():
    g = random_grid(3, 3, 2, seed=0)
    spec = dd_spec(g)
    beliefs = init_beliefs(g, spec)
    result = run(g, spec, SolverParams(max_sweeps=2), beliefs=beliefs)
    assert result.beliefs is beliefs
    pairs = [t for t in beliefs if len(t) == 2]
    base = beliefs[pairs[0]].base
    assert base is not None and all(beliefs[t].base is base for t in pairs)
