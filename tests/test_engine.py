"""Solver updates, dual bookkeeping, decoding and storage accounting."""

import gc
import inspect
import re
import weakref

import numpy as np
import pytest

import maplp
from maplp import (
    BeliefState,
    CoverageError,
    FactorGraph,
    InvalidModelError,
    RelaxationSpec,
    SolverParams,
    XorShift64Star,
    brute_force_map,
    dd_spec,
    decode,
    dual_decrease,
    dual_objective,
    energy,
    gmplp_spec,
    init_beliefs,
    init_messages,
    max_intersection_spec,
    memory_report,
    pi_system_spec,
    powerset_spec,
    random_grid,
    run,
    sweep_scalar_updates,
    update_cluster_beliefs,
    update_cluster_messages,
)
from maplp.engine import _MessageContext, _update_messages

from conftest import CHAIN_CLUSTERS, build_graph, maximiser_projections, random_clusters_graph

FIVE_SPECS = [gmplp_spec, dd_spec, powerset_spec, pi_system_spec,
              max_intersection_spec]


def potts_pair_beliefs():
    """The worked two-variable example used across several checks."""
    return BeliefState({
        (0, 1): np.array([[0.0, -5.0], [-5.0, 0.0]]),
        (0,): np.array([1.0, 0.0]),
        (1,): np.array([0.0, 1.0]),
    })


class TestInitBeliefs:
    def test_original_clusters_get_potentials(self, chain_of_triples_random):
        g = chain_of_triples_random
        beliefs = init_beliefs(g, dd_spec(g))
        np.testing.assert_array_equal(beliefs[(0, 1, 2)], g.potential((0, 1, 2)))
        np.testing.assert_array_equal(beliefs[(0,)], np.zeros(2))

    def test_singleton_cluster_keeps_its_potential(self, chain_of_triples_random):
        g = chain_of_triples_random
        beliefs = init_beliefs(g, dd_spec(g))
        np.testing.assert_array_equal(beliefs[(2,)], g.potential((2,)))

    def test_initial_dual_is_sum_of_table_maxima(self, chain_of_triples_random):
        g = chain_of_triples_random
        beliefs = init_beliefs(g, dd_spec(g))
        expected = sum(float(p.values.max()) for p in g.potentials)
        assert dual_objective(beliefs) == pytest.approx(expected, abs=1e-12)

    def test_uncovered_cluster_rejected(self, chain_of_triples_random):
        spec = RelaxationSpec(((0, 1),), {(0, 1): ((0,), (1,))})
        with pytest.raises(CoverageError):
            init_beliefs(chain_of_triples_random, spec)


class TestBlockUpdate:
    def test_zero_beliefs_stay_zero(self):
        beliefs = BeliefState({
            (0, 1): np.zeros((2, 2)), (0,): np.zeros(2), (1,): np.zeros(2),
        })
        drop = update_cluster_beliefs(beliefs, (0, 1), ((0,), (1,)))
        assert drop == 0.0
        np.testing.assert_array_equal(beliefs[(0, 1)], np.zeros((2, 2)))

    def test_hand_worked_pair_update(self):
        beliefs = potts_pair_beliefs()
        before = dual_objective(beliefs)
        predicted = dual_decrease(beliefs, (0, 1), ((0,), (1,)))
        drop = update_cluster_beliefs(beliefs, (0, 1), ((0,), (1,)))
        after = dual_objective(beliefs)

        np.testing.assert_allclose(beliefs[(0,)], [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(beliefs[(1,)], [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(
            beliefs[(0, 1)], [[0.0, -4.0], [-6.0, 0.0]], atol=1e-12
        )
        assert before == pytest.approx(2.0, abs=1e-12)
        assert after == pytest.approx(1.0, abs=1e-12)
        assert predicted == pytest.approx(1.0, abs=1e-12)
        assert drop == pytest.approx(1.0, abs=1e-12)

    def test_fixed_point_case_no_decrease(self):
        beliefs = BeliefState({
            (0, 1): np.array([[0.0, -5.0], [-5.0, 0.0]]),
            (0,): np.array([1.0, 0.0]),
            (1,): np.array([0.0, 0.0]),
        })
        before = dual_objective(beliefs)
        predicted = dual_decrease(beliefs, (0, 1), ((0,), (1,)))
        update_cluster_beliefs(beliefs, (0, 1), ((0,), (1,)))
        assert predicted == pytest.approx(0.0, abs=1e-12)
        assert dual_objective(beliefs) == pytest.approx(before, abs=1e-12)

    def test_no_proper_subs_is_noop(self):
        beliefs = BeliefState({(0, 1): np.ones((2, 2))})
        assert update_cluster_beliefs(beliefs, (0, 1), ((0, 1),)) == 0.0

    def test_shape_mismatch_rejected(self):
        beliefs = BeliefState({
            (0, 1): np.zeros((2, 2)), (0,): np.zeros((2, 2)), (1,): np.zeros(2),
        })
        with pytest.raises(ValueError):
            update_cluster_beliefs(beliefs, (0, 1), ((0,), (1,)))


class TestMessageUpdates:
    def test_zero_potentials_keep_zero_messages(self, chain_of_triples):
        g = chain_of_triples
        spec = dd_spec(g)
        msgs = init_messages(spec, g.cardinalities)
        update_cluster_messages(msgs, g, spec, (0, 1, 2))
        for table in msgs.values():
            np.testing.assert_array_equal(table, 0.0)

    def test_beliefs_from_messages_match_belief_update(self):
        g = FactorGraph(
            [2, 2],
            [(0, 1), (0,), (1,)],
            [np.array([[0.0, -5.0], [-5.0, 0.0]]), np.array([1.0, 0.0]),
             np.array([0.0, 1.0])],
        )
        spec = dd_spec(g)
        belief_state = init_beliefs(g, spec)
        update_cluster_beliefs(belief_state, (0, 1), spec.subs_of((0, 1)))

        ctx = _MessageContext(g, spec)
        msgs = init_messages(spec, g.cardinalities)
        update_cluster_messages(msgs, g, spec, (0, 1))
        reconstructed = ctx.beliefs(msgs)
        for t in belief_state:
            np.testing.assert_allclose(
                reconstructed[t], belief_state[t], atol=1e-9
            )

    def test_alternating_graphs_and_specs_match_fresh_contexts(self):
        """Calls alternate between two specs and two graphs of one
        structure; each must match an update with a context of its own."""
        g1, g2 = random_grid(3, 3, 2, seed=4), random_grid(3, 3, 2, seed=5)
        calls = [(g1, dd_spec(g1)), (g1, gmplp_spec(g1)), (g2, dd_spec(g1))]
        got = [init_messages(spec, g.cardinalities) for g, spec in calls]
        want = [init_messages(spec, g.cardinalities) for g, spec in calls]
        for _ in range(3):
            for i in range(max(len(spec.extended_clusters) for _, spec in calls)):
                for (g, spec), msgs, ref in zip(calls, got, want):
                    c = spec.extended_clusters[i % len(spec.extended_clusters)]
                    update_cluster_messages(msgs, g, spec, c)
                    _update_messages(ref, _MessageContext(g, spec), c)
        for msgs, ref in zip(got, want):
            assert list(msgs) == list(ref)
            for e, table in ref.items():
                assert np.array_equal(msgs[e], table), e

    def test_kept_context_holds_neither_graph_nor_spec(self):
        g = random_grid(3, 3, 2, seed=4)
        spec = dd_spec(g)
        msgs = init_messages(spec, g.cardinalities)
        update_cluster_messages(msgs, g, spec, spec.extended_clusters[-1])
        refs = weakref.ref(g), weakref.ref(spec)
        del g, spec
        gc.collect()
        assert refs[0]() is None and refs[1]() is None

    @pytest.mark.parametrize("builder", FIVE_SPECS)
    def test_mode_equivalence_on_seeded_grids(self, builder):
        g = random_grid(3, 3, 2, seed=11)
        spec = builder(g)
        params = SolverParams(max_sweeps=25)
        by_beliefs = run(g, spec, params, "beliefs")
        by_messages = run(g, spec, params, "messages")
        assert len(by_beliefs.trace) == len(by_messages.trace)
        np.testing.assert_allclose(
            by_beliefs.trace.duals, by_messages.trace.duals, atol=1e-9
        )


class TestDualObjective:
    def test_empty_support_is_zero(self):
        assert dual_objective(BeliefState({})) == 0.0

    def test_sum_starts_from_positive_zero(self):
        # Left to right from 0.0: all-negative-zero maxima sum to +0.0, and
        # the order is sequential, not pairwise.
        zeros = dual_objective({(v,): np.array([-0.0]) for v in range(3)})
        assert zeros == 0.0 and np.copysign(1.0, zeros) == 1.0
        maxima = [1.0] + [1e-16] * 11
        total = 0.0
        for m in maxima:
            total += m
        assert total == 1.0 and np.sum(maxima) > total
        assert dual_objective({(v,): np.array([m]) for v, m in enumerate(maxima)}) == total

    def test_weak_duality_along_runs(self):
        for seed in range(8):
            g = random_clusters_graph(seed, max_vars=8)
            exact = brute_force_map(g)
            r = run(g, dd_spec(g), SolverParams(max_sweeps=50))
            assert all(d >= exact.value - 1e-9 for d in r.trace.duals)


class TestDecode:
    def test_singleton_argmax(self):
        g = FactorGraph([2], [(0,)], [np.array([0.3, 0.7])])
        beliefs = BeliefState({(0,): np.array([0.3, 0.7])})
        assert decode(beliefs, g) == (1,)

    def test_tie_takes_lowest_state(self):
        g = FactorGraph([2], [(0,)], [np.zeros(2)])
        beliefs = BeliefState({(0,): np.array([0.5, 0.5])})
        assert decode(beliefs, g) == (0,)

    def test_smallest_containing_cluster_used_without_singletons(self):
        g = FactorGraph([2, 2, 2], [(0, 1, 2)], [np.zeros((2, 2, 2))])
        table = np.zeros((2, 2, 2))
        table[1, 0, 1] = 3.0
        pair = np.zeros((2, 2))
        pair[1, 0] = 1.0
        beliefs = BeliefState({(0, 1, 2): table, (0, 1): pair})
        # variables 0,1 come from the pair table, variable 2 from the triple
        assert decode(beliefs, g) == (1, 0, 1)

    def test_uncovered_variable_rejected(self):
        g = FactorGraph([2, 2], [(0,)], [np.zeros(2)])
        beliefs = BeliefState({(0,): np.zeros(2)})
        with pytest.raises(CoverageError):
            decode(beliefs, g)

    def test_mis_shaped_table_rejected(self):
        # a 5-cell table on a binary variable would decode to state 4
        g = FactorGraph([2], [(0,)], [np.zeros(2)])
        beliefs = BeliefState({(0,): np.arange(5.0)})
        with pytest.raises(InvalidModelError, match=r"\(0,\) has shape \(5,\)"):
            decode(beliefs, g)

    @pytest.mark.parametrize("extra", [(5,), (1, 2), (-1,)])
    def test_table_outside_graph_rejected(self, extra):
        g = FactorGraph([2, 2], [(0, 1)], [np.zeros((2, 2))])
        beliefs = BeliefState({(0, 1): np.zeros((2, 2)), extra: np.zeros((2,) * len(extra))})
        with pytest.raises(InvalidModelError, match=rf"{re.escape(str(extra))}: variables outside"):
            decode(beliefs, g)

    def test_gap_below_tolerance_means_exact(self):
        hits = 0
        for seed in range(30):
            g = random_clusters_graph(seed, max_vars=10)
            exact = brute_force_map(g)
            r = run(g, dd_spec(g), SolverParams(max_sweeps=120))
            if r.gap <= 1e-6:
                hits += 1
                assert energy(g, r.assignment) == exact.value
        assert hits > 5  # the check must actually exercise exact cases


class TestRun:
    def test_binary_chain_exact_over_seeds(self):
        for seed in range(50):
            rng = XorShift64Star(seed)
            n = 8
            clusters = [(i,) for i in range(n)] + [(i, i + 1) for i in range(n - 1)]
            tables = [rng.normals(2) for _ in range(n)] + [
                rng.normals(4).reshape(2, 2) for _ in range(n - 1)
            ]
            g = FactorGraph([2] * n, clusters, tables)
            exact = brute_force_map(g)
            r = run(g, dd_spec(g), SolverParams(max_sweeps=400, inner_tol=1e-10))
            assert r.dual == pytest.approx(exact.value, abs=1e-6)
            assert energy(g, r.assignment) == exact.value

    def test_zero_potentials_converge_in_one_sweep(self, chain_of_triples):
        r = run(chain_of_triples, dd_spec(chain_of_triples))
        assert r.converged
        assert len(r.trace) == 1
        assert r.trace.duals[0] == 0.0

    def test_trace_monotone_for_all_specs(self):
        g = random_grid(4, 4, 3, seed=0)
        for builder in FIVE_SPECS:
            r = run(g, builder(g), SolverParams(max_sweeps=30))
            duals = r.trace.duals
            assert all(b <= a + 1e-9 for a, b in zip(duals, duals[1:]))
            assert r.min_update_decrease >= -1e-9

    def test_sweep_counter_and_labels(self, chain_of_triples_random):
        g = chain_of_triples_random
        r = run(g, dd_spec(g), SolverParams(max_sweeps=7), label="dd")
        assert [rec.sweep for rec in r.trace.records] == list(
            range(1, len(r.trace) + 1)
        )
        assert all(rec.algorithm == "dd" for rec in r.trace.records)
        seconds = [rec.seconds for rec in r.trace.records]
        assert seconds == sorted(seconds)


class TestInputErrors:
    def test_nan_potential_rejected_in_both_modes(self):
        g = FactorGraph([2, 2], [(0, 1), (1,)],
                        [np.array([[0.0, np.nan], [1.0, 0.0]]), np.zeros(2)])
        for mode in ("beliefs", "messages"):
            with pytest.raises(InvalidModelError, match=r"cluster 0 \(0, 1\)"):
                run(g, dd_spec(g), mode=mode)

    def test_mis_sized_potential_rejected(self):
        g = FactorGraph([2, 2], [(0, 1)], [np.zeros(3)])
        with pytest.raises(InvalidModelError, match="table size 3, expected 4"):
            run(g, dd_spec(g))

    def test_mis_shaped_belief_table_rejected(self):
        g = build_graph([2] * 5, CHAIN_CLUSTERS, seed=1)
        spec = dd_spec(g)
        beliefs = init_beliefs(g, spec)
        beliefs[(3,)] = np.zeros(3)
        with pytest.raises(InvalidModelError, match=r"\(3,\)"):
            run(g, spec, beliefs=beliefs)

    @pytest.mark.parametrize("extra", [(5,), (1, 2), (-1,)])
    def test_belief_table_outside_graph_rejected(self, extra):
        g = FactorGraph([2, 2], [(0, 1)], [np.zeros((2, 2))])
        spec = dd_spec(g)
        beliefs = init_beliefs(g, spec)
        beliefs[extra] = np.zeros((2,) * len(extra))
        with pytest.raises(InvalidModelError, match=rf"{re.escape(str(extra))}: variables outside"):
            run(g, spec, beliefs=beliefs)

    def test_variable_in_no_table_rejected(self):
        g = FactorGraph([2, 2, 2], [(0, 1)], [np.zeros((2, 2))])
        with pytest.raises(CoverageError, match="variable 2"):
            run(g, gmplp_spec(g))

    def test_missing_belief_table_rejected(self):
        g = build_graph([2] * 5, CHAIN_CLUSTERS, seed=1)
        spec = dd_spec(g)
        beliefs = init_beliefs(g, spec)
        del beliefs[(4,)]
        with pytest.raises(CoverageError):
            run(g, spec, beliefs=beliefs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_belief_table_rejected(self, bad):
        g = build_graph([2] * 5, CHAIN_CLUSTERS, seed=1)
        spec = dd_spec(g)
        beliefs = init_beliefs(g, spec)
        beliefs[(3,)][1] = bad
        with pytest.raises(InvalidModelError, match=r"clusters \[\(3,\)\]: non-finite"):
            run(g, spec, beliefs=beliefs)

    def test_warm_start_rejected_in_message_mode(self):
        # message mode starts from zero messages and would ignore the tables
        g = random_grid(3, 3, 2, seed=0)
        spec = dd_spec(g)
        with pytest.raises(ValueError, match="message mode"):
            run(g, spec, mode="messages", beliefs=init_beliefs(g, spec))


class TestSolverParams:
    @pytest.mark.parametrize("name", ["inner_tol", "outer_tol", "max_sweeps",
                                      "pursuit_sweeps", "clusters_per_round",
                                      "time_limit"])
    def test_nan_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            SolverParams(**{name: float("nan")})

    @pytest.mark.parametrize("name", ["max_sweeps", "pursuit_sweeps",
                                      "clusters_per_round"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True])
    def test_non_integer_counts_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SolverParams(**{name: value})

    def test_unbounded_time_limit_and_numpy_counts_accepted(self, chain_of_triples_random):
        g = chain_of_triples_random
        params = SolverParams(time_limit=float("inf"), max_sweeps=np.int64(3))
        r = run(g, dd_spec(g), params)
        assert 1 <= len(r.trace) <= 3 and not r.truncated


def test_public_api_surface():
    for name in maplp.__all__:
        assert getattr(maplp, name) is not None, name
    for gone in ("MessageState", "merge_traces", "EdgeEquivalenceClasses", "pursuit_score"):
        assert gone not in maplp.__all__ and not hasattr(maplp, gone)
    assert not hasattr(maplp.engine, "MessageState")
    assert not hasattr(maplp.io, "merge_traces")
    assert not hasattr(maplp.diagram, "EdgeEquivalenceClasses")
    assert list(inspect.signature(run).parameters) == [
        "graph", "spec", "params", "mode", "label", "beliefs",
    ]


class TestFixedPointConsistency:
    def test_maximiser_sets_intersect_at_fixed_points(self):
        g = build_graph([2] * 5, CHAIN_CLUSTERS, seed=4)
        spec = gmplp_spec(g)
        r = run(g, spec, SolverParams(max_sweeps=500, inner_tol=1e-12))
        assert r.converged
        for c in spec.extended_clusters:
            for s in spec.proper_subs_of(c):
                assert dual_decrease(r.beliefs, c, spec.subs_of(c)) <= 1e-8
                proj_c = maximiser_projections(r.beliefs[c], c, s)
                proj_s = maximiser_projections(r.beliefs[s], s, s)
                assert proj_c & proj_s

    def test_common_maximiser_certifies_exactness(self):
        certified = 0
        for seed in range(10):
            g = build_graph([2] * 5, CHAIN_CLUSTERS, seed=seed)
            r = run(g, dd_spec(g), SolverParams(max_sweeps=500, inner_tol=1e-12))
            x = r.assignment
            if all(
                table[tuple(x[v] for v in t)] >= table.max() - 1e-9
                for t, table in r.beliefs.items()
            ):
                certified += 1
                assert energy(g, x) == pytest.approx(r.dual, abs=1e-8)
        assert certified >= 3  # the certificate must actually fire


class TestAccounting:
    def test_ten_variable_configuration(self):
        from itertools import combinations

        t = tuple(range(10))
        g = FactorGraph([2] * 10, [t], [np.zeros((2,) * 10)])
        subs = tuple(
            s for r in range(1, 10) for s in combinations(t, r)
        )
        spec = RelaxationSpec((t,), {t: subs})
        report = memory_report(g, spec, support=[t])
        assert report.beliefs == 1024
        assert report.message_side == 59048

    @pytest.mark.parametrize("builder", FIVE_SPECS)
    def test_beliefs_never_exceed_message_side(self, builder):
        for seed in (0, 1):
            g = random_grid(3, 4, 3, seed)
            report = memory_report(g, builder(g))
            assert report.beliefs <= report.message_side

    def test_sweep_scalar_updates_count(self):
        g = FactorGraph(
            [2, 2], [(0, 1), (0,), (1,)],
            [np.zeros((2, 2)), np.zeros(2), np.zeros(2)],
        )
        spec = dd_spec(g)
        # one updating cluster: rewrites its 4-entry table and two 2-entry subs
        assert sweep_scalar_updates(spec, g.cardinalities) == 8
