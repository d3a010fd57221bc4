"""Model construction, energy and the grid generator."""

import numpy as np
import pytest

from maplp import (
    FactorGraph,
    InvalidAssignmentError,
    InvalidModelError,
    XorShift64Star,
    brute_force_map,
    dd_spec,
    energy,
    random_grid,
    run,
    validate,
)

from conftest import CHAIN_CLUSTERS, build_graph


class TestEnergy:
    def test_single_table_lookup(self):
        g = FactorGraph([2, 2], [(0, 1)], [np.array([[0.0, 1.0], [2.0, 3.0]])])
        assert energy(g, (1, 0)) == 2.0

    def test_all_zero_potentials(self):
        g = build_graph([2] * 5, CHAIN_CLUSTERS)
        assert energy(g, (0, 1, 0, 1, 0)) == 0.0

    def test_energy_at_brute_force_argmax_equals_reported_value(self):
        g = build_graph([2] * 5, CHAIN_CLUSTERS, seed=0)
        sol = brute_force_map(g)
        assert energy(g, sol.argmax) == sol.value

    def test_out_of_range_state_rejected(self):
        g = FactorGraph([2, 2], [(0, 1)], [np.zeros((2, 2))])
        with pytest.raises(InvalidAssignmentError):
            energy(g, (0, 2))
        with pytest.raises(InvalidAssignmentError):
            energy(g, (0,))

    @pytest.mark.parametrize("state", [0.5, 1.0, np.float64(0), True, np.bool_(False), "1", None])
    def test_non_integer_state_rejected(self, state):
        g = FactorGraph([2, 2], [(0, 1)], [np.zeros((2, 2))])
        with pytest.raises(InvalidAssignmentError, match="variable 1 is not an integer"):
            energy(g, (0, state))

    def test_numpy_integer_states_accepted(self):
        g = FactorGraph([2, 3], [(0, 1)], [np.arange(6.0).reshape(2, 3)])
        assert energy(g, (np.int64(1), np.uint8(2))) == 5.0
        assert energy(g, np.array([1, 2])) == 5.0

    def test_linearity_in_potentials(self):
        a = build_graph([2] * 5, CHAIN_CLUSTERS, seed=1)
        b = build_graph([2] * 5, CHAIN_CLUSTERS, seed=2)
        both = FactorGraph(
            [2] * 5,
            CHAIN_CLUSTERS,
            [pa.values + pb.values for pa, pb in zip(a.potentials, b.potentials)],
        )
        rng = XorShift64Star(3)
        for _ in range(25):
            x = tuple(int(rng.next_u64() % 2) for _ in range(5))
            assert energy(both, x) == pytest.approx(energy(a, x) + energy(b, x), abs=1e-12)


class TestConstructionAndValidate:
    def test_index_out_of_range_reported(self):
        g = FactorGraph([2] * 5, [(0, 9)], [np.zeros(4)])
        problems = validate(g)
        assert len(problems) == 1 and "out of range" in problems[0]

    def test_table_size_mismatch_reported(self):
        g = FactorGraph([2, 2], [(0, 1)], [np.zeros(3)])
        problems = validate(g)
        assert len(problems) == 1 and "table size" in problems[0]

    def test_duplicates_merge_by_summing(self):
        t1 = np.array([[0.0, 1.0], [2.0, 3.0]])
        t2 = np.array([[1.0, 1.0], [1.0, 1.0]])
        g = FactorGraph([2, 2], [(0, 1), (0, 1)], [t1, t2])
        assert validate(g) == []
        assert len(g.clusters) == 1
        np.testing.assert_array_equal(g.potentials[0].values, t1 + t2)

    @pytest.mark.parametrize("first, second", [(3, 4), (4, 3)], ids=["bad-first", "bad-second"])
    def test_duplicate_scope_with_mis_sized_table_reported(self, first, second):
        # the two tables cannot be summed; neither may be dropped silently
        g = FactorGraph([2, 2], [(0, 1), (0, 1)], [np.zeros(first), np.ones(second)])
        problems = validate(g)
        assert len(problems) == 2
        assert any("duplicate cluster set (0, 1)" in p for p in problems)
        assert any("table size 3, expected 4" in p for p in problems)
        spec = dd_spec(FactorGraph([2, 2], [(0, 1)], [np.zeros(4)]))
        with pytest.raises(InvalidModelError, match="duplicate cluster set"):
            run(g, spec)

    def test_unsorted_scope_is_normalised(self):
        table = np.arange(6.0).reshape(3, 2)  # axes: (var1 with 3 states, var0 with 2)
        g = FactorGraph([2, 3], [(1, 0)], [table])
        assert g.clusters == ((0, 1),)
        np.testing.assert_array_equal(g.potentials[0].values, table.T)
        assert energy(g, (1, 2)) == table[2, 1]

    def test_mis_sized_input_table_stays_writeable(self):
        a = np.zeros(3)
        g = FactorGraph([2, 2], [(0, 1)], [a])
        assert a.flags.writeable
        assert not g.potentials[0].values.flags.writeable

    def test_input_table_is_copied(self):
        b = np.zeros(4)
        g = FactorGraph([2, 2], [(0, 1)], [b])
        b[0] = 5.0
        assert g.potentials[0].values[0, 0] == 0.0
        assert b.flags.writeable

    def test_clean_graph_validates(self):
        g = random_grid(3, 3, 2, 0)
        assert validate(g) == []


class TestRandomGrid:
    def test_2x2_table_inventory(self):
        g = random_grid(2, 2, 3, seed=5)
        sizes = sorted(p.values.size for p in g.potentials)
        assert sizes == [3, 3, 3, 3, 9, 9, 9, 9, 81]

    @pytest.mark.parametrize("states,seed", [(2, 0), (3, 1), (4, 99)])
    def test_2x2_cluster_count_is_nine(self, states, seed):
        assert len(random_grid(2, 2, states, seed).clusters) == 9

    def test_structural_count_formula(self):
        for w, h in [(2, 3), (4, 4), (5, 2)]:
            g = random_grid(w, h, 2, 0)
            expected = w * h + (w * (h - 1) + h * (w - 1)) + (w - 1) * (h - 1)
            assert len(g.clusters) == expected

    def test_determinism(self):
        a = random_grid(3, 4, 3, seed=42)
        b = random_grid(3, 4, 3, seed=42)
        for pa, pb in zip(a.potentials, b.potentials):
            assert pa.scope == pb.scope
            np.testing.assert_array_equal(pa.values, pb.values)

    def test_seed_changes_tables(self):
        a = random_grid(2, 2, 2, seed=0)
        b = random_grid(2, 2, 2, seed=1)
        assert any(
            not np.array_equal(pa.values, pb.values)
            for pa, pb in zip(a.potentials, b.potentials)
        )

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            random_grid(1, 5, 2, 0)
        with pytest.raises(ValueError):
            random_grid(3, 3, 1, 0)


class TestPrng:
    def test_stream_is_stable(self):
        rng = XorShift64Star(0)
        first = [rng.next_u64() for _ in range(3)]
        rng2 = XorShift64Star(0)
        assert first == [rng2.next_u64() for _ in range(3)]

    def test_normals_look_standard(self):
        z = XorShift64Star(123).normals(20000)
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.03

    def test_uniform_in_open_interval(self):
        rng = XorShift64Star(9)
        us = [rng.uniform() for _ in range(1000)]
        assert all(0.0 < u < 1.0 for u in us)
