"""Properties of the compiled belief sweep on random small graphs: the
same trace as the one-cluster-at-a-time reference, a monotone dual, and
weak duality against exhaustive MAP."""

import numpy as np
import pytest

from maplp import FactorGraph, brute_force_map

from test_compiled_sweep import SIX_SPECS, assert_same_run

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def small_graphs(draw):
    """Two to six variables of two or three states, up to eight clusters of
    up to three variables, every variable covered."""
    n = draw(st.integers(2, 6))
    cards = draw(st.lists(st.integers(2, 3), min_size=n, max_size=n))
    scopes = draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=3),
        min_size=1, max_size=8,
    ))
    clusters = [tuple(sorted(s)) for s in scopes]
    covered = set().union(*scopes)
    clusters += [(v,) for v in range(n) if v not in covered]
    tables = []
    for c in clusters:
        size = int(np.prod([cards[v] for v in c]))
        tables.append(draw(st.lists(
            st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
            min_size=size, max_size=size,
        )))
    return FactorGraph(cards, clusters, [np.array(t) for t in tables])


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(graph=small_graphs(), builder=st.sampled_from(SIX_SPECS))
def test_trace_identity_monotone_dual_weak_duality(graph, builder):
    result = assert_same_run(graph, builder(graph), max_sweeps=15)
    duals = result.trace.duals
    assert all(b <= a + 1e-9 for a, b in zip(duals, duals[1:]))
    exact = brute_force_map(graph)
    assert all(d >= exact.value - 1e-9 for d in duals)
