"""Model construction, energy and the grid generator."""

from types import SimpleNamespace

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
    table_cells,
    table_shape,
    validate,
)
from maplp.factor_graph import PotentialTable

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


class TestConstructionRejectsBadInput:
    """Indices and cardinalities must be integers (numpy integers included,
    bools not), every cluster needs a table and tables must hold numbers;
    each failure is an :class:`InvalidModelError` naming what is wrong."""

    @pytest.mark.parametrize("index", [1.7, 1.0, np.float64(1), True, np.bool_(True), "1"])
    def test_non_integer_variable_index(self, index):
        with pytest.raises(InvalidModelError, match=r"cluster 1 \(0, .*\): variable indices"):
            FactorGraph([2, 2], [(0,), (0, index)], [np.zeros(2), np.zeros(4)])

    @pytest.mark.parametrize("card", [2.5, 2.0, True, None])
    def test_non_integer_cardinality(self, card):
        with pytest.raises(InvalidModelError, match="of variable 1 is not an integer"):
            FactorGraph([2, card], [(0,)], [np.zeros(2)])

    def test_numpy_integers_accepted(self):
        g = FactorGraph([np.int64(2), np.uint8(3)], [(np.int32(1), np.int64(0))],
                        [np.arange(6.0).reshape(3, 2)])
        assert g.cardinalities == (2, 3) and g.clusters == ((0, 1),)
        assert all(type(k) is int for k in g.cardinalities + g.clusters[0])
        np.testing.assert_array_equal(g.potentials[0].values, np.arange(6.0).reshape(3, 2).T)

    @pytest.mark.parametrize("table", [[0.0, "x", 1.0, 2.0], [[0.0, 1.0], [2.0]], [{}, 0, 0, 0]],
                             ids=["string", "ragged", "object"])
    def test_table_that_is_not_numbers(self, table):
        with pytest.raises(InvalidModelError, match=r"cluster 1 \(0, 1\): table entries"):
            FactorGraph([2, 2], [(0,), (0, 1)], [np.zeros(2), table])

    @pytest.mark.parametrize("tables", [1, 3])
    def test_table_count_must_match_cluster_count(self, tables):
        with pytest.raises(InvalidModelError, match=f"2 clusters but {tables} tables"):
            FactorGraph([2, 2], [(0,), (1,)], [np.zeros(2)] * tables)

    def test_cluster_that_is_not_a_sequence(self):
        with pytest.raises(InvalidModelError, match="cluster 3 is not a sequence"):
            FactorGraph([2], [3], [np.zeros(2)])


def reference_tables(cardinalities, clusters, potentials):
    """The per-table construction the one-buffer :class:`FactorGraph`
    replaced: one ``argsort``, one ``np.array`` and one reshape/transpose
    per table.  Returns a graph-like namespace for :func:`reference_validate`."""
    cards = tuple(int(k) for k in cardinalities)
    tables, by_scope = [], {}
    for scope_in, values_in in zip(clusters, potentials, strict=True):
        raw = tuple(int(v) for v in scope_in)
        perm = tuple(int(p) for p in np.argsort(raw, kind="stable"))
        scope = tuple(raw[p] for p in perm)
        values = np.array(values_in, dtype=np.float64)
        ok = (bool(scope) and all(0 <= v < len(cards) for v in scope)
              and all(a < b for a, b in zip(scope, scope[1:])))
        if ok and values.size == table_cells(scope, cards):
            shaped = values.reshape(table_shape(raw, cards))
            values = np.ascontiguousarray(shaped.transpose(perm))
        prev = by_scope.get(scope)
        if prev is not None and prev.values.shape == values.shape:
            prev.values = prev.values + values
        else:
            table = PotentialTable(scope, values)
            by_scope.setdefault(scope, table)
            tables.append(table)
    for table in tables:
        table.values.flags.writeable = False
    return SimpleNamespace(cardinalities=cards, num_vars=len(cards), potentials=tables)


def reference_validate(graph):
    """:func:`validate` with one finiteness test per table."""
    problems = []
    if any(k < 1 for k in graph.cardinalities):
        problems.append("cardinalities must all be >= 1")
    seen = set()
    for i, p in enumerate(graph.potentials):
        scope = p.scope
        if not scope:
            problems.append(f"cluster {i}: empty scope")
            continue
        if any(v < 0 or v >= graph.num_vars for v in scope):
            problems.append(f"cluster {i}: index out of range in {scope}")
            continue
        if any(a >= b for a, b in zip(scope, scope[1:])):
            problems.append(f"cluster {i}: scope not strictly ascending")
            continue
        if scope in seen:
            problems.append(f"cluster {i}: duplicate cluster set {scope}")
        seen.add(scope)
        want = table_cells(scope, graph.cardinalities)
        if p.values.size != want:
            problems.append(f"cluster {i} {scope}: table size {p.values.size}, expected {want}")
            continue
        if not np.all(np.isfinite(p.values)):
            problems.append(f"cluster {i} {scope}: non-finite table entries")
    return problems


def assert_same_as_reference(cards, clusters, tables):
    got, want = FactorGraph(cards, clusters, tables), reference_tables(cards, clusters, tables)
    assert got.clusters == tuple(p.scope for p in want.potentials)
    for p, q in zip(got.potentials, want.potentials, strict=True):
        assert p.values.shape == q.values.shape and p.values.dtype == q.values.dtype
        assert p.values.tobytes() == q.values.tobytes()
        assert not p.values.flags.writeable and not q.values.flags.writeable
    assert validate(got) == reference_validate(want)


class TestConstructionMatchesPerTableReference:
    """The one-buffer construction equals the per-table one: clusters,
    table values bit for bit, shapes, dtypes, read-only flags and
    ``validate`` messages, on unsorted scopes, duplicates of equal and
    unequal shape, mis-sized tables and bad scopes."""

    def test_examples(self):
        nan, inf = float("nan"), float("inf")
        cards = [2, 3, 2]
        clusters = [(1, 0), (0, 1), (0, 1), (2,), (0, 2, 1), (2,), (1,), (0, 5), (1, 1), ()]
        tables = [np.arange(6.0).reshape(3, 2), np.ones(6), np.full((2, 3), 0.5),
                  [nan, 1.0], np.arange(12.0), np.zeros(3), [inf, 0.0, 1.0],
                  np.zeros(4), np.zeros(9), np.zeros(1)]
        assert_same_as_reference(cards, clusters, tables)

    def test_random_models(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        entries = st.one_of(st.floats(-4, 4), st.sampled_from([float("nan"), float("inf")]))

        @st.composite
        def models(draw):
            cards = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
            n = len(cards)
            # Few distinct scopes, so that duplicates are common.
            pool = draw(st.lists(st.lists(st.integers(-1, n), max_size=3), min_size=1, max_size=4))
            clusters, tables = [], []
            for _ in range(draw(st.integers(1, 8))):
                raw = tuple(draw(st.sampled_from(pool)))
                in_range = all(0 <= v < n for v in raw)
                cells = table_cells(raw, cards) if in_range else 2
                size = max(0, cells + draw(st.sampled_from([0, 0, 0, -1, 1])))
                values = np.array(draw(st.lists(entries, min_size=size, max_size=size)))
                shape = draw(st.sampled_from(["flat", "scope", "row"]))
                if shape == "scope" and in_range and raw and size == cells:
                    values = values.reshape(table_shape(raw, cards))
                elif shape == "row":
                    values = values.reshape(1, size)
                clusters.append(raw)
                tables.append(values.tolist() if draw(st.booleans()) else values)
            return cards, clusters, tables

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(model=models())
        def check(model):
            assert_same_as_reference(*model)

        check()


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
