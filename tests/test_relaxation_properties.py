"""The incidence-indexed builders equal the all-pairs references on random
cluster families."""

import numpy as np
import pytest

from maplp import FactorGraph

from test_incidence_index import assert_same_specs

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def cluster_families(draw):
    """Up to ten clusters over up to eight variables, sometimes joined by
    one cluster that contains all the others."""
    scopes = draw(st.lists(
        st.sets(st.integers(0, 7), min_size=1, max_size=5), min_size=1, max_size=10,
    ))
    if draw(st.booleans()):
        scopes.append(set().union(*scopes))
    return [tuple(sorted(s)) for s in scopes]


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(family=cluster_families())
@hypothesis.example(family=[(0,), (1,), (2,), (3,)])
@hypothesis.example(family=[(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (6,)])
@hypothesis.example(family=[(0, 1), (1, 2, 3), (2, 3), (4,), (0, 1, 2, 3, 4)])
def test_builders_match_reference_on_random_families(family):
    n = 1 + max(v for c in family for v in c)
    assert_same_specs(FactorGraph([2] * n, family, [np.zeros(2 ** len(c)) for c in family]))
