"""Bad belief tables fail at every public entry point that reads them: with a
typed error naming the cluster, before any of the caller's tables is
written or replaced."""

import re

import numpy as np
import pytest

from maplp import (
    CoverageError,
    InvalidModelError,
    SolverParams,
    dd_spec,
    decode,
    dual_decrease,
    dual_objective,
    init_beliefs,
    random_grid,
    run,
    stealth_candidates,
    update_cluster_beliefs,
)

PAIR, SINGLE = (0, 1), (0,)

ENTRY_POINTS = {
    "run": lambda g, spec, b: run(g, spec, SolverParams(max_sweeps=2), beliefs=b),
    "decode": lambda g, spec, b: decode(b, g),
    "dual_objective": lambda g, spec, b: dual_objective(b),
    "update_cluster_beliefs": lambda g, spec, b: update_cluster_beliefs(b, PAIR, spec.subs_of(PAIR)),
    "dual_decrease": lambda g, spec, b: dual_decrease(b, PAIR, spec.subs_of(PAIR)),
    "stealth_candidates": lambda g, spec, b: stealth_candidates(spec, b),
    # A search on good tables first leaves nothing behind for the next.
    "stealth_candidates (index built)": lambda g, spec, b: (
        stealth_candidates(spec, init_beliefs(g, spec)), stealth_candidates(spec, b)),
}

CASES = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf, "missing": None, "mis-shaped": None,
         "empty": None}


def corrupt(beliefs, case):
    """Apply one bad-input case; returns the cluster the error must name.
    A non-finite entry goes into the pair table, which every entry point
    reads (the candidate search decodes it as a parent).  ``empty`` gives
    variable 0 no states in every table holding it, so that the shapes
    agree with each other."""
    if case == "missing":
        del beliefs[SINGLE]
        return SINGLE
    if case == "mis-shaped":
        beliefs[SINGLE] = np.zeros(3)
        return SINGLE
    if case == "empty":
        for t in [t for t in beliefs if 0 in t]:
            beliefs[t] = np.zeros([0 if v == 0 else 2 for v in t])
        return SINGLE
    beliefs[PAIR][0, 1] = CASES[case]
    return PAIR


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry in ENTRY_POINTS for case in CASES
    # decode and dual_objective take no relaxation: no table of theirs is missing.
    if not (case == "missing" and entry in ("decode", "dual_objective"))
])
def test_bad_table_rejected_at_the_boundary(entry, case):
    g = random_grid(3, 3, 2, 0)
    spec = dd_spec(g)
    beliefs = init_beliefs(g, spec)
    bad = corrupt(beliefs, case)
    before = {t: (v, v.tobytes()) for t, v in beliefs.items()}
    error = CoverageError if case == "missing" else InvalidModelError
    with pytest.raises(error, match=re.escape(str(bad))):
        ENTRY_POINTS[entry](g, spec, beliefs)
    assert list(beliefs) == list(before)
    for t, (table, bits) in before.items():
        assert beliefs[t] is table and table.tobytes() == bits, t


@pytest.mark.parametrize("update", [update_cluster_beliefs, dual_decrease])
def test_sub_outside_the_cluster_rejected(update):
    g = random_grid(3, 3, 2, 0)
    beliefs = init_beliefs(g, dd_spec(g))
    before = {t: v.tobytes() for t, v in beliefs.items()}
    with pytest.raises(InvalidModelError, match=re.escape("[(2,)] are not inside (0, 1)")):
        update(beliefs, PAIR, [(0,), (2,)])
    assert {t: v.tobytes() for t, v in beliefs.items()} == before


def test_candidate_search_rejects_a_table_it_does_not_read():
    # Converged: the singleton (24,) is neither a parent nor a sub of any
    # union the search scores, so only a pass over the whole support sees it.
    g = random_grid(5, 5, 2, 1)
    spec = dd_spec(g)
    beliefs = run(g, spec, SolverParams(max_sweeps=300)).beliefs
    beliefs[(24,)][0] = np.nan
    with pytest.raises(InvalidModelError, match=re.escape("(24,)")):
        stealth_candidates(spec, beliefs)
