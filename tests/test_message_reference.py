"""Message mode against a per-cluster message loop.

``reference_message_run`` is the sweep the driver runs in message mode: the
public ``update_cluster_messages`` on every extended cluster in insertion
order, the beliefs rebuilt from potentials and messages, the dual summed
left to right in table order, decoding from the smallest owner table and the
primal summed in potential order.  Running message mode through the shared
driver must not change a single bit, so every comparison here is exact
``==``.

That reference shares ``_MessageContext`` with the driver, so
``closed_form_message_run`` also writes the closed-form update out from
``table_shape``, ``_embed_index`` and ``_max_axes`` alone.
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
from maplp.engine import _embed_index, _max_axes, _MessageContext, _run
from maplp.factor_graph import table_shape

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


def closed_form_message_run(graph, spec, max_sweeps, inner_tol=SolverParams.inner_tol):
    """Message mode from the closed form: for ``c`` with proper subs ``S``,
    ``bracket = theta_c + in_c + sum_s piece_s`` (embedded), where
    ``piece_s = theta_s - out_s + in_s - m_cs``, and each new ``m_cs`` is
    ``max over c\\s of bracket, divided by |S|, minus piece_s``.  A belief
    is ``theta_t + in_t - out_t``.  Returns duals, primals, the assignment,
    the final beliefs and the messages."""
    msgs = init_messages(spec, graph.cardinalities)
    theta = {p.scope: p.values for p in graph.potentials}
    senders = {t: [c for c in spec.extended_clusters if t in spec.proper_subs_of(c)]
               for t in spec.support}

    def potential(t):
        return theta[t] if t in theta else np.zeros(table_shape(t, graph.cardinalities))

    def incoming(t):
        total = np.zeros(table_shape(t, graph.cardinalities))
        for c in senders[t]:
            total += msgs[(c, t)]
        return total

    def outgoing(t):
        total = np.zeros(table_shape(t, graph.cardinalities))
        for s in spec.proper_subs_of(t):
            total += msgs[(t, s)][_embed_index(s, t)]
        return total

    def beliefs():
        return {t: potential(t) + incoming(t) - outgoing(t) for t in spec.support}

    duals, primals = [], []
    g_prev = reference_dual(beliefs())
    for _ in range(max_sweeps):
        for c in spec.extended_clusters:
            subs = spec.proper_subs_of(c)
            if not subs:
                continue
            pieces = [potential(s) - outgoing(s) + incoming(s) - msgs[(c, s)] for s in subs]
            bracket = potential(c) + incoming(c)
            for s, piece in zip(subs, pieces):
                bracket = bracket + piece[_embed_index(s, c)]
            for s, piece in zip(subs, pieces):
                msgs[(c, s)] = bracket.max(axis=_max_axes(s, c)) * (1.0 / len(subs)) - piece
        tables = beliefs()
        duals.append(reference_dual(tables))
        primals.append(energy(graph, reference_decode(tables, graph.num_vars)))
        if abs(duals[-1] - g_prev) < inner_tol:
            break
        g_prev = duals[-1]
    return duals, primals, reference_decode(tables, graph.num_vars), tables, msgs


def assert_closed_form_run(graph, spec, max_sweeps):
    result = run(graph, spec, SolverParams(max_sweeps=max_sweeps), "messages")
    duals, primals, assignment, tables, msgs = closed_form_message_run(graph, spec, max_sweeps)
    assert result.trace.duals == duals
    assert result.trace.primals == primals
    assert result.assignment == assignment
    assert list(result.beliefs) == list(tables)
    for t, table in tables.items():
        assert np.array_equal(result.beliefs[t], table), t
    assert list(result.messages) == list(msgs)
    for e, table in msgs.items():
        assert np.array_equal(result.messages[e], table), e


@pytest.mark.parametrize("builder", SIX_SPECS)
def test_closed_form_matches_message_mode_exactly(builder):
    g = random_grid(5, 5, 3, seed=1)
    assert_closed_form_run(g, builder(g), max_sweeps=20)
    for seed in range(3):
        g = random_clusters_graph(200 + seed, max_vars=12)
        assert_closed_form_run(g, builder(g), max_sweeps=20)


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
