"""Stealth candidate generation, scoring and the tightening loop."""

import copy
import re

import numpy as np
import pytest

import maplp.engine
from maplp import (
    BeliefState,
    CoverageError,
    FactorGraph,
    InvalidModelError,
    RelaxationSpec,
    SolverParams,
    brute_force_map,
    dd_spec,
    energy,
    init_beliefs,
    dual_decrease,
    max_intersection_spec,
    random_grid,
    run,
    run_with_pursuit,
    stealth_candidates,
)
from conftest import GRID_CLIQUES, build_graph, frustrated_cycle, maximiser_projections


def grid_mi_beliefs(clique_grid, disagree=True):
    """Beliefs for the clique-grid MI relaxation in which the two top
    cliques either disagree or agree on their shared pair (1, 4)."""
    spec = max_intersection_spec(clique_grid)
    tables = {}
    for t in spec.support:
        tables[t] = np.zeros((2,) * len(t))
    a, b = GRID_CLIQUES[0], GRID_CLIQUES[1]
    # clique a prefers (1,4) = (0,0); clique b prefers (0,0) or (1,1)
    tables[a][0, 0, 0, 0] = 1.0
    if disagree:
        tables[b][1, 0, 1, 0] = 1.0  # (1,4) -> (1,1) on b's axes (1,2,4,5)
    else:
        tables[b][0, 0, 0, 0] = 1.0
    return spec, BeliefState(tables)


class TestCandidates:
    def test_disagreeing_cliques_form_candidate(self, clique_grid):
        spec, beliefs = grid_mi_beliefs(clique_grid, disagree=True)
        cands = stealth_candidates(spec, beliefs)
        unions = {c.union for c in cands}
        assert (0, 1, 2, 3, 4, 5) in unions
        cand = next(c for c in cands if c.union == (0, 1, 2, 3, 4, 5))
        assert set(cand.parents) == {GRID_CLIQUES[0], GRID_CLIQUES[1]}
        assert all(set(s) < set(cand.union) for s in cand.sub_clusters)

    def test_agreeing_cliques_do_not_qualify(self, clique_grid):
        spec, beliefs = grid_mi_beliefs(clique_grid, disagree=False)
        cands = stealth_candidates(spec, beliefs)
        assert all(
            set(c.parents) != {GRID_CLIQUES[0], GRID_CLIQUES[1]} for c in cands
        )

    def test_pair_without_shared_sub_cluster_never_considered(self):
        # two disjoint pairs share nothing; beliefs disagree everywhere
        spec = RelaxationSpec(
            ((0, 1), (2, 3), (0,), (1,), (2,), (3,)),
            {(0, 1): ((0,), (1,)), (2, 3): ((2,), (3,))},
        )
        tables = {t: np.zeros((2,) * len(t)) for t in spec.support}
        cands = stealth_candidates(spec, BeliefState(tables))
        assert cands == []

    def test_common_parent_excludes_pair(self):
        # both pairs are sub-clusters of the triple, so their union is not
        # a stealth cluster even when they disagree on the shared singleton
        spec = RelaxationSpec(
            ((0, 1, 2), (0, 1), (1, 2), (0,), (1,), (2,)),
            {
                (0, 1, 2): ((0, 1), (1, 2)),
                (0, 1): ((0,), (1,)),
                (1, 2): ((1,), (2,)),
            },
        )
        tables = {t: np.zeros((2,) * len(t)) for t in spec.support}
        tables[(0, 1)][0, 0] = 1.0
        tables[(1, 2)][1, 1] = 1.0
        cands = stealth_candidates(spec, BeliefState(tables))
        assert all(set(c.parents) != {(0, 1), (1, 2)} for c in cands)

    def test_union_order_cap_drops_candidate(self, caplog):
        spec = RelaxationSpec(
            (tuple(range(5)), tuple(range(4, 9)), (4,)),
            {
                tuple(range(5)): ((4,),),
                tuple(range(4, 9)): ((4,),),
            },
        )
        tables = {t: np.zeros((2,) * len(t)) for t in spec.support}
        tables[tuple(range(5))][(0,) * 5] = 1.0
        tables[tuple(range(4, 9))].flat[-1] = 1.0
        with caplog.at_level("WARNING", logger="maplp.pursuit"):
            cands = stealth_candidates(spec, BeliefState(tables), max_order=8)
        assert cands == []
        assert "order cap" in caplog.text


    def test_missing_support_table_named(self, clique_grid):
        spec, beliefs = grid_mi_beliefs(clique_grid)
        del beliefs[GRID_CLIQUES[0]]
        with pytest.raises(CoverageError, match=r"\[\(0, 1, 3, 4\)\] have no belief table"):
            stealth_candidates(spec, beliefs)


class TestBeliefsReadInPlace:
    """The search reads the belief tables where they are: the solver's store
    views and an independent deep copy give equal candidates, and neither
    is written."""

    def test_store_views_and_deep_copy_agree(self):
        g = random_grid(3, 3, 2, 0)
        spec = dd_spec(g)
        views = run(g, spec, SolverParams(max_sweeps=500)).beliefs
        assert len({id(v.base) for v in views.values()}) == 1
        deep = copy.deepcopy(views)
        assert all(deep[t].base is not views[t].base for t in views)
        before = {t: v.tobytes() for t, v in views.items()}
        got = stealth_candidates(spec, views)
        assert got and stealth_candidates(spec, deep) == got
        for t, bits in before.items():
            assert views[t].tobytes() == bits and deep[t].tobytes() == bits, t

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["parent", "shared"])
    def test_non_finite_table_named(self, value, which):
        # Sorting on a NaN score gives no defined order, so a non-finite
        # table the search reads is rejected.  Under dd the shared singleton
        # is read only when scoring the unions, a parent when decoding.
        g = random_grid(3, 3, 2, 0)
        spec = dd_spec(g)
        beliefs = copy.deepcopy(run(g, spec, SolverParams(max_sweeps=500)).beliefs)
        first = stealth_candidates(spec, beliefs)[0]
        t = first.parents[0] if which == "parent" else first.shared
        beliefs[t].flat[-1] = value
        with pytest.raises(InvalidModelError, match=rf"\[{re.escape(str(t))}\]: non-finite"):
            stealth_candidates(spec, beliefs)

    @pytest.mark.parametrize("t, shape, message", [
        ((0, 1), (2, 3), "clusters (1,) and (0, 1) give variable 1 2 and 3 states"),
        ((0, 1), (4,), "cluster (0, 1) has shape (4,): 1 axes for 2 variables"),
        ((4,), (3,), "clusters (4,) and (1, 4) give variable 4 3 and 2 states"),
    ])
    def test_mis_shaped_table_named(self, t, shape, message):
        # The search has no cardinalities: a table must have one axis per
        # variable, and a variable one axis length in every table.
        g = random_grid(3, 3, 2, 0)
        spec = dd_spec(g)
        beliefs = copy.deepcopy(run(g, spec, SolverParams(max_sweeps=500)).beliefs)
        beliefs[t] = np.zeros(shape)
        with pytest.raises(InvalidModelError, match=re.escape(message)):
            stealth_candidates(spec, beliefs)


class TestScore:
    """A candidate's score is the drop of one block update of its union
    from a zero union table."""

    def test_all_zero_beliefs_score_zero(self):
        beliefs = BeliefState({
            (0,): np.zeros(2), (1,): np.zeros(2), (0, 1): np.zeros((2, 2)),
        })
        assert dual_decrease(beliefs, (0, 1), ((0,), (1,))) == 0.0

    def test_hand_worked_score_is_zero_when_consistent(self):
        beliefs = BeliefState({
            (0,): np.array([1.0, 0.0]), (1,): np.array([0.0, 1.0]), (0, 1): np.zeros((2, 2)),
        })
        assert dual_decrease(beliefs, (0, 1), ((0,), (1,))) == pytest.approx(0.0, abs=1e-12)

    def test_score_positive_when_no_joint_maximiser(self):
        # sub-beliefs over the two pairs of a triple pull variable 1 both ways
        beliefs = BeliefState({
            (0, 1): np.array([[1.0, 0.0], [0.0, 0.0]]),
            (1, 2): np.array([[0.0, 0.0], [1.0, 0.0]]),
            (0, 1, 2): np.zeros((2, 2, 2)),
        })
        drop = dual_decrease(beliefs, (0, 1, 2), ((0, 1), (1, 2)))
        assert drop == pytest.approx(1.0, abs=1e-12)


class TestPursuitLoop:
    def test_already_exact_instance_needs_no_rounds(self):
        g = build_graph([2] * 5, ((0, 1), (1, 2), (2, 3), (3, 4)), seed=3)
        result = run_with_pursuit(g, dd_spec(g), SolverParams(max_sweeps=300))
        assert result.closed
        assert result.rounds == 0

    def test_frustrated_cycle_family_closed_exactly(self):
        params = SolverParams(max_sweeps=500, pursuit_sweeps=50)
        for seed in range(20):
            g = frustrated_cycle(seed)
            exact = brute_force_map(g)
            plain = run(g, dd_spec(g), params)
            assert plain.gap > 0.1
            result = run_with_pursuit(g, dd_spec(g), params)
            assert result.gap <= 1e-6
            assert energy(g, result.assignment) == exact.value
            assert result.rounds >= 1
            assert result.spec.extended_clusters != dd_spec(g).extended_clusters

    def test_candidate_scores_never_negative(self):
        # separate maxima always dominate the joint maximum, so a single
        # block update of a new cluster can only lower the dual
        for seed in range(20):
            g = frustrated_cycle(seed)
            r = run(g, dd_spec(g), SolverParams(max_sweeps=500))
            for cand in stealth_candidates(dd_spec(g), r.beliefs):
                assert cand.score >= -1e-9

    def test_trace_stays_monotone_across_rounds(self):
        params = SolverParams(max_sweeps=200, pursuit_sweeps=30)
        for seed in range(20):
            g = frustrated_cycle(seed)
            result = run_with_pursuit(g, dd_spec(g), params)
            duals = result.trace.duals
            assert all(b <= a + 1e-9 for a, b in zip(duals, duals[1:]))

    def test_added_clusters_restore_overlap_agreement(self):
        g = frustrated_cycle(0)
        result = run_with_pursuit(
            g, dd_spec(g), SolverParams(max_sweeps=500, pursuit_sweeps=50)
        )
        spec = result.spec
        added = [c for c in spec.extended_clusters if len(c) > 2]
        assert added
        beliefs = result.beliefs
        for c in added:
            for s in spec.proper_subs_of(c):
                proj_c = maximiser_projections(beliefs[c], c, s)
                proj_s = maximiser_projections(beliefs[s], s, s)
                assert proj_c & proj_s

    def test_message_mode_pursuit_matches(self):
        params = SolverParams(max_sweeps=500, pursuit_sweeps=50)
        for seed in range(5):
            g = frustrated_cycle(seed)
            exact = brute_force_map(g)
            result = run_with_pursuit(g, dd_spec(g), params, mode="messages")
            assert result.gap <= 1e-6
            assert energy(g, result.assignment) == exact.value

    def test_time_limit_sets_truncated_flag(self):
        g = frustrated_cycle(1)
        params = SolverParams(
            max_sweeps=2, pursuit_sweeps=1, time_limit=1e-6
        )
        result = run_with_pursuit(g, dd_spec(g), params)
        assert result.truncated
        assert not result.closed
        assert len(result.assignment) == g.num_vars

    def test_nan_potential_rejected_before_any_sweep(self):
        g = FactorGraph([2, 2], [(0, 1), (1,)],
                        [np.array([[0.0, np.nan], [1.0, 0.0]]), np.zeros(2)])
        for mode in ("beliefs", "messages"):
            with pytest.raises(InvalidModelError, match=r"cluster 0 \(0, 1\)"):
                run_with_pursuit(g, dd_spec(g), mode=mode)

    def test_graph_validated_once_across_rounds(self, monkeypatch):
        calls = []
        validate = maplp.engine.validate
        monkeypatch.setattr(maplp.engine, "validate", lambda g: calls.append(g) or validate(g))
        g = frustrated_cycle(0)
        result = run_with_pursuit(g, dd_spec(g), SolverParams(max_sweeps=500, pursuit_sweeps=50))
        assert result.rounds >= 1
        assert calls == [g]


@pytest.mark.parametrize("max_order", [float("nan"), 2.5, True, 0, -3, "8"])
def test_bad_max_order_rejected(max_order):
    # NaN would switch the union order cap off: len(union) > nan is False
    g = frustrated_cycle(0)
    spec = dd_spec(g)
    with pytest.raises(ValueError, match="max_order"):
        run_with_pursuit(g, spec, max_order=max_order)
    with pytest.raises(ValueError, match="max_order"):
        stealth_candidates(spec, init_beliefs(g, spec), max_order=max_order)


def test_numpy_integer_max_order_accepted():
    g = frustrated_cycle(0)
    result = run_with_pursuit(g, dd_spec(g), SolverParams(max_sweeps=500, pursuit_sweeps=50),
                              max_order=np.int64(4))
    assert result.closed
