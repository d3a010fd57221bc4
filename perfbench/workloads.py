"""The three workloads: grid solve, cycle pursuit, small-instance certification.

Each workload generates every input from the workload seed in
``make_inputs`` (untimed), then ``repeat`` runs one pass over those inputs
through the public ``maplp`` API, gating every result.  Traced repeats also
run a few probes (bookkeeping, energy, storage, the first-round candidate
search) outside the timed phases and fill ``rep.layers``.

Pursuit on grids is left out on purpose: its only stopping rule there is the
wall clock, so the work it does would depend on the host.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import maplp
from harness import (
    DUAL_SLACK,
    RelStats,
    Rep,
    all_sweeps_ms,
    median,
    percentile,
    sweep_deltas_ms,
    trace_digest,
    trace_problems,
)

# The five relaxations compared on grids, in the order of the baseline table.
GRID_RELAXATIONS = {
    "gmplp": maplp.gmplp_spec,
    "dd": maplp.dd_spec,
    "ps": maplp.powerset_spec,
    "pi-s": maplp.pi_system_spec,
    "mi": maplp.max_intersection_spec,
}
# All six builders, as `maplp verify` and the CLI name them.
ALL_RELAXATIONS = {**GRID_RELAXATIONS, "cycle": maplp.cycle_spec}

# Belief scalars one sweep writes on any 16x16 grid with 3 states; the
# structure, not the seed, fixes them.
GRID_SCALARS_PER_SWEEP = {
    "dd": 28_125, "gmplp": 36_225, "pi-s": 33_525, "mi": 29_025, "ps": 105_075,
}

EXACT_TOL = 1e-6


# ---------------------------------------------------------------------------
# Calls shared by the workloads
# ---------------------------------------------------------------------------


def model_problems(loaded: maplp.FactorGraph, ref: maplp.FactorGraph) -> list[str]:
    same = (
        loaded.cardinalities == ref.cardinalities
        and loaded.clusters == ref.clusters
        and all(np.array_equal(a.values, b.values)
                for a, b in zip(loaded.potentials, ref.potentials))
    )
    return [] if same else ["loaded model differs from the saved one"]


def load(rep: Rep, path: Path, ref: maplp.FactorGraph) -> maplp.FactorGraph:
    with rep.rec.span("io.load_model", "setup"):
        graph = maplp.load_model(path)
    rep.checks.record(f"load_model {path.name}", model_problems(graph, ref))
    return graph


def build(rep: Rep, rel: str, builder, graph: maplp.FactorGraph) -> maplp.RelaxationSpec:
    with rep.rec.span("relaxations.build", "setup", rel=rel):
        return builder(graph)


def init_beliefs(rep: Rep, rel: str, graph, spec, phase: str | None = "setup"):
    with rep.rec.span("engine.init_beliefs", phase, rel=rel):
        return maplp.init_beliefs(graph, spec)


def solve(rep: Rep, graph, spec, rel: str, params, *, mode="beliefs",
          beliefs=None, probe=False):
    """One ``run``; returns the result and its gate problems.

    A probe solve is untimed, adds no end-to-end sweep samples, and counts
    its work apart from the workload's own.
    """
    with rep.rec.span("engine.run", None if probe else "solve", rel=rel, mode=mode) as t:
        result = maplp.run(graph, spec, params, mode, label=rel, beliefs=beliefs)
    problems = trace_problems(result.trace)
    if result.truncated:
        problems.append("truncated")
    deltas = sweep_deltas_ms(result.trace)
    sweeps = len(result.trace)
    rep.bump(f"sweeps.{rel}.{mode}", sweeps, probe)
    if not probe:
        rep.sweep_ms[mode].extend(deltas)
    if mode == "beliefs":
        updates = sum(1 for c in spec.extended_clusters if spec.proper_subs_of(c))
        scalars = maplp.sweep_scalar_updates(spec, graph.cardinalities)
        rep.bump(f"updates_per_sweep.{rel}", updates, probe)
        rep.bump(f"scalars_per_sweep.{rel}", scalars, probe)
        st = rep.rels.setdefault(rel, RelStats())
        st.solves += 1
        st.support += len(spec.support)
        st.updates += updates
        st.scalars += scalars
        st.written += scalars * sweeps
        st.run_s += t.seconds
        st.deltas_ms.extend(deltas)
        st.first_ms.append(result.trace.records[0].seconds * 1e3)
    return result, problems


def probe_state(rep: Rep, graph, spec, beliefs, assignment) -> None:
    """Traced repeats only: time the per-sweep bookkeeping and the primal
    evaluation on a final state, and count the storage of both modes."""
    if not rep.rec.traced:
        return
    with rep.rec.span("engine.bookkeeping"):
        maplp.dual_objective(beliefs)
        maplp.decode(beliefs, graph)
    with rep.rec.span("factor_graph.energy"):
        maplp.energy(graph, assignment)
    report = maplp.memory_report(graph, spec)
    rep.memory[0] += 8 * report.beliefs
    rep.memory[1] += 8 * report.message_side


def common_layers(rep: Rep) -> None:
    """Per-layer values every workload derives the same way.  Support size,
    updates and scalars per sweep are means over a relaxation's solves, so
    they mean the same on one grid solve and on many tiny ones."""
    rec, layers = rep.rec, rep.layers
    for rel in GRID_RELAXATIONS:
        st = rep.rels.get(rel)
        if st is None:
            continue
        layers[f"relaxations.build_s.{rel}"] = rec.total("relaxations.build", rel=rel)
        layers[f"relaxations.support_size.{rel}"] = st.support / st.solves
        layers[f"engine.sweep_ms.{rel}"] = median(st.deltas_ms)
        layers[f"engine.first_sweep_ms.{rel}"] = median(st.first_ms)
        layers[f"engine.updates_per_sweep.{rel}"] = st.updates / st.solves
        layers[f"engine.scalars_per_sweep.{rel}"] = st.scalars / st.solves
        layers[f"engine.mscalars_per_s.{rel}"] = st.written / st.run_s / 1e6
    bookkeeping = rec.durations("engine.bookkeeping")
    energies = rec.durations("factor_graph.energy")
    layers["engine.bookkeeping_ms"] = 1e3 * sum(bookkeeping) / len(bookkeeping)
    layers["factor_graph.energy_ms"] = 1e3 * sum(energies) / len(energies)
    layers["engine.sweep_p90_ms"] = percentile(all_sweeps_ms(rep), 90)
    layers["engine.beliefs_sweep_ms"] = median(rep.sweep_ms["beliefs"])
    layers["engine.messages_sweep_ms"] = median(rep.sweep_ms["messages"])
    layers["engine.belief_scalars"], layers["engine.message_scalars"] = rep.memory
    layers["engine.gap_sum"] = rep.gap_sum
    layers["oracle.brute_force_s"] = rec.total("oracle.brute_force_map")
    layers["oracle.constraint_system_s"] = rec.total("oracle.constraint_system")
    layers["oracle.rank_s"] = rec.total("oracle.rank")
    layers["io.load_model_s"] = rec.total("io.load_model")
    layers["io.emit_trace_s"] = rec.total("io.emit_trace")


def emit(rep: Rep, trace, path: Path) -> None:
    with rep.rec.span("io.emit_trace"):
        maplp.emit_trace(trace, path)


# ---------------------------------------------------------------------------
# grid-solve: `maplp generate` then `maplp solve --trace` per relaxation
# ---------------------------------------------------------------------------


@dataclass
class GridInputs:
    graph: maplp.FactorGraph
    path: Path
    workdir: Path


class GridSolve:
    """16x16x3 grid: load, five relaxation builds, 30 belief sweeps each.

    The sweep budget is the first-round budget of the paper's synthetic
    experiment; ``time_limit`` keeps its default and never binds.
    """

    SIZE = 16
    STATES = 3
    SWEEPS = 30

    def make_inputs(self, seed: int, workdir: Path) -> GridInputs:
        graph = maplp.random_grid(self.SIZE, self.SIZE, self.STATES, seed)
        path = workdir / "grid.json"
        maplp.save_model(graph, path)
        return GridInputs(graph, path, workdir)

    def repeat(self, inp: GridInputs, rep: Rep) -> None:
        graph = load(rep, inp.path, inp.graph)
        staged = []
        for rel, builder in GRID_RELAXATIONS.items():
            spec = build(rep, rel, builder, graph)
            staged.append((rel, spec, init_beliefs(rep, rel, graph, spec)))
        params = maplp.SolverParams(max_sweeps=self.SWEEPS)
        for rel, spec, beliefs in staged:
            result, problems = solve(rep, graph, spec, rel, params, beliefs=beliefs)
            scalars = rep.counts[f"scalars_per_sweep.{rel}"]
            if scalars != GRID_SCALARS_PER_SWEEP[rel]:
                problems.append(
                    f"{scalars} scalars per sweep, expected {GRID_SCALARS_PER_SWEEP[rel]}"
                )
            rep.checks.record(f"run {rel}", problems)
            rep.digests[rel] = trace_digest(result.trace)
            rep.gap_sum += result.gap
            emit(rep, result.trace, inp.workdir / f"trace-{rel}.csv")
            probe_state(rep, graph, spec, result.beliefs, result.assignment)
        if rep.rec.traced:
            common_layers(rep)
            rep.layers["io.model_bytes"] = inp.path.stat().st_size


# ---------------------------------------------------------------------------
# cycles-pursuit: `maplp solve --alg dd --pursuit stealth` on frustrated cycles
# ---------------------------------------------------------------------------


def frustrated_cycle(seed: int) -> maplp.FactorGraph:
    """Four binary variables in a cycle; three edges reward disagreement and
    one rewards agreement, with seeded entry-wise perturbations."""
    rng = maplp.XorShift64Star(seed)
    agree = np.array([[1.0, 0.0], [0.0, 1.0]])
    disagree = np.array([[0.0, 1.0], [1.0, 0.0]])
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    tables = [
        (agree if i == 3 else disagree) + rng.normals(4).reshape(2, 2) * 0.02
        for i in range(len(edges))
    ]
    return maplp.FactorGraph([2] * 4, edges, tables)


def disjoint_union(graphs: list[maplp.FactorGraph]) -> maplp.FactorGraph:
    cards, clusters, tables = [], [], []
    for g in graphs:
        offset = len(cards)
        cards.extend(g.cardinalities)
        for p in g.potentials:
            clusters.append(tuple(v + offset for v in p.scope))
            tables.append(p.values)
    return maplp.FactorGraph(cards, clusters, tables)


@dataclass
class CycleInputs:
    graph: maplp.FactorGraph
    path: Path
    cycles: list[maplp.FactorGraph]
    workdir: Path


class CyclesPursuit:
    """One graph of disjoint frustrated 4-cycles, tightened by stealth
    pursuit with the paper's cycle parameters until its gap closes."""

    CYCLES = 100
    PARAMS = dict(max_sweeps=500, pursuit_sweeps=50)

    def make_inputs(self, seed: int, workdir: Path) -> CycleInputs:
        master = maplp.XorShift64Star(seed)
        cycles = [frustrated_cycle(master.next_u64()) for _ in range(self.CYCLES)]
        graph = disjoint_union(cycles)
        path = workdir / "cycles.json"
        maplp.save_model(graph, path)
        return CycleInputs(graph, path, cycles, workdir)

    def repeat(self, inp: CycleInputs, rep: Rep) -> None:
        rec = rep.rec
        graph = load(rep, inp.path, inp.graph)
        spec = build(rep, "dd", maplp.dd_spec, graph)
        params = maplp.SolverParams(**self.PARAMS)
        with rec.span("pursuit.run_with_pursuit", "solve") as t:
            result = maplp.run_with_pursuit(graph, spec, params, label="dd")
        deltas = sweep_deltas_ms(result.trace)
        rep.sweep_ms["beliefs"].extend(deltas)

        problems = trace_problems(result.trace)
        if result.truncated:
            problems.append("truncated")
        if not result.closed or result.gap > params.outer_tol:
            problems.append(f"gap {result.gap:.3e} not closed")
        optimum, off = 0.0, 0
        for k, cycle in enumerate(inp.cycles):
            with rec.span("oracle.brute_force_map"):
                exact = maplp.brute_force_map(cycle)
            optimum += exact.value
            if maplp.energy(cycle, result.assignment[4 * k: 4 * k + 4]) != exact.value:
                off += 1
        if off:
            problems.append(f"{off} cycles decode off their exhaustive optimum")
        if abs(maplp.energy(graph, result.assignment) - optimum) > DUAL_SLACK:
            problems.append("decoded energy differs from the summed optima")
        rep.checks.record("run_with_pursuit", problems)
        rep.digests["dd+pursuit"] = trace_digest(result.trace)
        rep.gap_sum += result.gap
        added = len(result.spec.extended_clusters) - len(spec.extended_clusters)
        rep.bump("pursuit.rounds", result.rounds)
        rep.bump("pursuit.sweeps", len(result.trace))
        rep.bump("pursuit.clusters_added", added)
        emit(rep, result.trace, inp.workdir / "trace-dd-pursuit.csv")
        if not rec.traced:
            return

        probe_state(rep, graph, result.spec, result.beliefs, result.assignment)
        # The first pursuit round's solve, repeated to time the candidate
        # search on exactly the beliefs pursuit searches first.
        beliefs = init_beliefs(rep, "dd", graph, spec, phase=None)
        first, problems = solve(rep, graph, spec, "dd", params, beliefs=beliefs, probe=True)
        rep.checks.record("first-round solve", problems)
        with rec.span("pursuit.stealth_candidates"):
            candidates = maplp.stealth_candidates(spec, first.beliefs)
        rep.bump("pursuit.first_candidates", len(candidates), probe=True)
        common_layers(rep)
        sweep_s = sum(deltas) / 1e3
        rep.layers.update({
            "pursuit.stealth_candidates_s": rec.total("pursuit.stealth_candidates"),
            "pursuit.sweep_s": sweep_s,
            "pursuit.outer_s": t.seconds - sweep_s,
            "pursuit.rounds": result.rounds,
            "pursuit.sweeps": len(result.trace),
            "pursuit.first_candidates": len(candidates),
            "pursuit.clusters_added": added,
            "pursuit.added_per_candidate": added / len(candidates) if candidates else 0.0,
            "io.model_bytes": inp.path.stat().st_size,
        })


# ---------------------------------------------------------------------------
# small-certify: `maplp verify` and the exactness criteria
# ---------------------------------------------------------------------------

CHAIN_CLUSTERS = ((0, 1, 2), (1, 2, 3), (2, 3, 4), (2,))
GRID_CLIQUES = ((0, 1, 3, 4), (1, 2, 4, 5), (3, 4, 6, 7), (4, 5, 7, 8))
# Redundant nodes the paper's clique-grid figure shows.
CLIQUE_GRID_REDUNDANT = {(1, 3, 4), (1, 4, 5), (3, 4, 7), (4, 5, 7), (4,)}


def random_clusters_graph(seed: int, n: int) -> maplp.FactorGraph:
    """Random binary instance over ``n`` variables: all singletons plus ``2n``
    drawn scopes of two to four variables (duplicates dropped)."""
    rng = maplp.XorShift64Star(seed)
    clusters = [(i,) for i in range(n)]
    seen = set(clusters)
    for _ in range(2 * n):
        order = 2 + rng.next_u64() % 3
        scope = set()
        while len(scope) < order:
            scope.add(rng.next_u64() % n)
        c = tuple(sorted(scope))
        if c not in seen:
            seen.add(c)
            clusters.append(c)
    tables = [rng.normals(2 ** len(c)) for c in clusters]
    return maplp.FactorGraph([2] * n, clusters, tables)


def zero_graph(n: int, clusters) -> maplp.FactorGraph:
    return maplp.FactorGraph([2] * n, clusters, [np.zeros(2 ** len(c)) for c in clusters])


@dataclass
class SmallInputs:
    instances: list[tuple[maplp.FactorGraph, Path]]
    grids: list[maplp.FactorGraph]
    diagram_graphs: list[tuple[str, maplp.FactorGraph]]


class SmallCertify:
    """Many tiny solves checked against exhaustive MAP, belief-vs-message
    pairs, and diagram reductions certified by the exact rank oracle."""

    # Every instance has the full 12 variables and every solve a short
    # sweep cap that most solves reach, so the work hardly depends on the seed.
    INSTANCES = 12
    VARS = 12
    SWEEPS = 20
    PAIRED_GRIDS = 10
    PAIRED_SWEEPS = 25

    def make_inputs(self, seed: int, workdir: Path) -> SmallInputs:
        master = maplp.XorShift64Star(seed)
        instances = []
        for i in range(self.INSTANCES):
            graph = random_clusters_graph(master.next_u64(), self.VARS)
            path = workdir / f"instance-{i}.json"
            maplp.save_model(graph, path)
            instances.append((graph, path))
        grids = [maplp.random_grid(3, 3, 2, master.next_u64())
                 for _ in range(self.PAIRED_GRIDS)]
        diagram_graphs = [
            ("chain", zero_graph(5, CHAIN_CLUSTERS)),
            ("clique-grid", zero_graph(9, GRID_CLIQUES)),
        ]
        return SmallInputs(instances, grids, diagram_graphs)

    def repeat(self, inp: SmallInputs, rep: Rep) -> None:
        digests: list[str] = []
        self._exhaustive(inp, rep, digests)
        self._paired(inp, rep, digests)
        for name, graph in inp.diagram_graphs:
            self._diagrams(name, graph, rep)
        rep.digests["all-runs"] = hashlib.sha256("".join(digests).encode()).hexdigest()[:16]
        if rep.rec.traced:
            rec = rep.rec
            common_layers(rep)
            rep.layers.update({
                "oracle.rows": rep.counts["oracle.rows"],
                "oracle.columns": rep.counts["oracle.columns"],
                "diagram.reduce_s": sum(rec.total(n) for n in (
                    "diagram.redundant_nodes", "diagram.reduce_edges", "diagram.remove_node")),
                "diagram.nodes_removed": rep.counts["diagram.nodes_removed"],
                "diagram.edges_removed": rep.counts["diagram.edges_removed"],
                "io.model_bytes": sum(p.stat().st_size for _, p in inp.instances),
            })

    def _exhaustive(self, inp: SmallInputs, rep: Rep, digests: list[str]) -> None:
        """Weak duality against exhaustive MAP under all six builders, and
        exact decoding whenever the gap closes."""
        params = maplp.SolverParams(max_sweeps=self.SWEEPS)
        for ref, path in inp.instances:
            graph = load(rep, path, ref)
            with rep.rec.span("oracle.brute_force_map", "solve"):
                exact = maplp.brute_force_map(graph)
            for rel, builder in ALL_RELAXATIONS.items():
                spec = build(rep, rel, builder, graph)
                beliefs = init_beliefs(rep, rel, graph, spec)
                result, problems = solve(rep, graph, spec, rel, params, beliefs=beliefs)
                if any(d < exact.value - DUAL_SLACK for d in result.trace.duals):
                    problems.append("dual below the exhaustive optimum")
                if (result.gap <= EXACT_TOL
                        and maplp.energy(graph, result.assignment) != exact.value):
                    problems.append("closed gap decodes off the exhaustive optimum")
                rep.checks.record(f"{path.name} {rel}", problems)
                digests.append(trace_digest(result.trace))
                rep.gap_sum += result.gap
                probe_state(rep, graph, spec, result.beliefs, result.assignment)

    def _paired(self, inp: SmallInputs, rep: Rep, digests: list[str]) -> None:
        """Belief and message modes must give the same dual trace."""
        params = maplp.SolverParams(max_sweeps=self.PAIRED_SWEEPS)
        for j, graph in enumerate(inp.grids):
            for rel, builder in GRID_RELAXATIONS.items():
                spec = build(rep, rel, builder, graph)
                beliefs = init_beliefs(rep, rel, graph, spec)
                a, problems = solve(rep, graph, spec, rel, params, beliefs=beliefs)
                b, more = solve(rep, graph, spec, rel, params, mode="messages")
                problems += more
                if len(a.trace) != len(b.trace):
                    problems.append("belief and message traces differ in length")
                elif max(abs(x - y) for x, y in zip(a.trace.duals, b.trace.duals)) > DUAL_SLACK:
                    problems.append("belief and message traces disagree")
                rep.checks.record(f"paired grid {j} {rel}", problems)
                digests += [trace_digest(a.trace), trace_digest(b.trace)]

    def _diagrams(self, name: str, graph: maplp.FactorGraph, rep: Rep) -> None:
        """Reduced relaxations and every reduction, certified equal to the
        unreduced baseline by exact rank."""
        rec, cards, anchors = rep.rec, graph.cardinalities, graph.clusters

        def diagram(rel, builder):
            spec = build(rep, rel, builder, graph)
            with rec.span("diagram.from_relaxation", "setup"):
                return maplp.diagram_from_relaxation(spec, anchors)

        def system(d):
            with rec.span("oracle.constraint_system", "solve"):
                s = maplp.constraint_system(d, cards)
            rep.bump("oracle.rows", len(s.rows))
            rep.bump("oracle.columns", len(s.variable_index))
            return s

        def rank(test, a, b) -> bool:
            with rec.span("oracle.rank", "solve"):
                return test(a, b)

        def certify(label, d) -> None:
            ok = rank(maplp.affine_system_equal, base_sys, system(d))
            rep.checks.record(f"{name} {label}", [] if ok else ["not certified equal"])

        base = diagram("all-subsets", maplp.all_subsets_spec)
        base_sys = system(base)
        for rel in ("ps", "pi-s", "mi"):
            certify(f"{rel} vs all-subsets", diagram(rel, ALL_RELAXATIONS[rel]))
        if name == "chain":
            g_sys = system(diagram("gmplp", maplp.gmplp_spec))
            d_sys = system(diagram("dd", maplp.dd_spec))
            strict = (rank(maplp.affine_system_implies, g_sys, d_sys)
                      and not rank(maplp.affine_system_implies, d_sys, g_sys))
            rep.checks.record("chain gmplp strictly tighter than dd",
                              [] if strict else ["inclusion not strict"])

        with rec.span("diagram.redundant_nodes", "solve"):
            redundant = maplp.redundant_nodes(base)
        if name == "clique-grid":
            missing = CLIQUE_GRID_REDUNDANT - redundant
            rep.checks.record("clique-grid redundant nodes",
                              [f"missing {sorted(missing)}"] if missing else [])
        with rec.span("diagram.reduce_edges", "solve"):
            reduced = maplp.reduce_edges(base)
        certify("reduce_edges", reduced)
        rep.bump("diagram.edges_removed", len(base.edges) - len(reduced.edges))
        for v in sorted(redundant):
            with rec.span("diagram.remove_node", "solve"):
                smaller = maplp.remove_node(base, v)
            certify(f"remove {v}", smaller)
        rep.bump("diagram.nodes_removed", len(redundant))


WORKLOADS = {
    "grid-solve": GridSolve,
    "cycles-pursuit": CyclesPursuit,
    "small-certify": SmallCertify,
}
