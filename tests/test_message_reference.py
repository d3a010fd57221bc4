"""Message mode against a per-cluster message loop.

``reference_message_run`` is the sweep the driver runs in message mode: the
public ``update_cluster_messages`` on every extended cluster in insertion
order, the beliefs rebuilt from potentials and messages, the dual summed
left to right in table order, decoding from the smallest owner table and the
primal summed in potential order.  Running message mode through the shared
driver must not change a single bit, so every comparison here is exact
``==``.
"""

import numpy as np
import pytest

from maplp import (
    SolverParams,
    dd_spec,
    energy,
    init_messages,
    random_grid,
    run,
    stealth_candidates,
    update_cluster_messages,
)
from maplp.engine import _MessageContext, _run

from conftest import random_clusters_graph
from test_compiled_sweep import SIX_SPECS, reference_decode, reference_dual


def reference_message_run(graph, spec, msgs, max_sweeps, inner_tol=SolverParams.inner_tol):
    """Returns duals, primals, the assignment and the final belief tables;
    updates ``msgs`` in place."""
    ctx = _MessageContext(graph, spec)
    tables = ctx.beliefs(msgs)
    duals, primals = [], []
    g_prev = reference_dual(tables)
    for _ in range(max_sweeps):
        for c in spec.extended_clusters:
            update_cluster_messages(msgs, graph, spec, c)
        tables = ctx.beliefs(msgs)
        duals.append(reference_dual(tables))
        primals.append(energy(graph, reference_decode(tables, graph.num_vars)))
        if abs(duals[-1] - g_prev) < inner_tol:
            break
        g_prev = duals[-1]
    return duals, primals, reference_decode(tables, graph.num_vars), tables


def assert_same_message_run(graph, spec, max_sweeps, messages=None):
    """Run both loops from equal messages; returns the driver's run.  A
    passed ``messages`` warm-starts the driver through the entry pursuit
    uses, since public ``run`` starts message mode from zero."""
    params = SolverParams(max_sweeps=max_sweeps)
    if messages is None:
        ref_msgs = init_messages(spec, graph.cardinalities)
        result = run(graph, spec, params, "messages")
    else:
        ref_msgs = {e: v.copy() for e, v in messages.items()}
        result = _run(graph, spec, params, "messages", messages=messages)
    duals, primals, assignment, tables = reference_message_run(graph, spec, ref_msgs, max_sweeps)
    assert result.trace.duals == duals
    assert result.trace.primals == primals
    assert result.assignment == assignment
    assert result.min_update_decrease == 0.0
    assert list(result.beliefs) == list(tables)
    for t, table in tables.items():
        assert np.array_equal(result.beliefs[t], table), t
    assert list(result.messages) == list(ref_msgs)
    for e, table in ref_msgs.items():
        assert np.array_equal(result.messages[e], table), e
    return result


@pytest.mark.parametrize("builder", SIX_SPECS)
def test_grid_matches_reference_exactly(builder):
    g = random_grid(6, 6, 3, seed=0)
    assert_same_message_run(g, builder(g), max_sweeps=20)


@pytest.mark.parametrize("builder", SIX_SPECS)
def test_twelve_variable_instances_match_reference_exactly(builder):
    for seed in range(3):
        g = random_clusters_graph(100 + seed, max_vars=12)
        assert_same_message_run(g, builder(g), max_sweeps=20)


def test_messages_carried_into_grown_spec_match_reference_exactly():
    """Pursuit's message warm start: the previous messages on the old edges,
    zero messages on the edges of the added clusters."""
    g = random_grid(4, 4, 2, seed=3)
    spec = dd_spec(g)
    result = assert_same_message_run(g, spec, max_sweeps=40)
    candidates = stealth_candidates(spec, result.beliefs)
    assert candidates
    spec = spec.with_clusters({c.union: c.sub_clusters for c in candidates[:4]})
    messages = init_messages(spec, g.cardinalities)
    messages.update(result.messages)
    assert_same_message_run(g, spec, max_sweeps=15, messages=messages)
