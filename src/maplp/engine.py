"""Coordinate descent on the relaxation dual, in two equivalent modes.

The dual objective is the sum over the support of each table's maximum.
Sweeping the extended clusters in insertion order, one block update per
cluster, never increases it.  The two modes are:

* ``beliefs`` -- tables are updated directly.  For a cluster ``c`` with
  proper sub-clusters ``S``, let ``F = b_c + sum_s b_s`` (sub-tables
  broadcast into the scope of ``c``).  Then each new sub-table is
  ``max over c\\s of F, divided by |S|``, and the new cluster table is
  ``F minus the sum of the new sub-tables``.  No messages or original
  potentials are needed after initialisation (``b_t = theta_t`` on original
  clusters, zero elsewhere).
* ``messages`` -- one table per (cluster, proper sub-cluster) edge, updated
  by the equivalent closed form; beliefs are reconstructed from potentials
  and messages to evaluate the dual.  Kept as an independent cross-check of
  belief mode and for storage comparisons; both modes produce identical dual
  traces up to floating-point noise.

Self sub-clusters (a cluster listed among its own sub-clusters) carry a
vacuous constraint; they are skipped everywhere and their message is pinned
to zero.

Both modes run through one driver: one sweep loop, one trace record per
sweep, one set of stopping rules (inner tolerance, sweep cap,
``time_limit``).  The modes differ only in how the state is set up and in
what one step of a sweep is.  In both, the state's tables are packed (see
*Packed storage*) and the returned tables are views into the packs.  A
message-mode sweep is a single step: every message update in insertion
order, then the beliefs rebuilt into the packs.  It reports no block drop,
so ``min_update_decrease`` applies to belief mode only and reads 0.0 in
message mode.

In belief mode the driver compiles the sweep once per call into steps:

* **Levels.** ``level(c) = 1 + max level of the earlier updating clusters
  that share a table with c``.  The updates of one level touch disjoint
  tables and commute, so running the levels in order gives exactly the
  insertion-order iterates (any schedule that respects these dependencies
  does; Globerson & Jaakkola, NIPS 2007; Kolmogorov, PAMI 2006).
* **Shape groups.** Within a level, the clusters with one table shape and
  one sub-cluster layout (the kept axes of each sub, in sub order) run as
  one numpy update.  A group of one runs on basic-index views with scalar
  maxima, as cheap as a lone update.
* **Packed storage.** The state's tables are stacked into one array per
  table shape, one table per row, so a group gathers each role with one
  row index per member.  On return every table of the ``BeliefState`` is a
  view into this shared storage.  Tables added to the state afterwards
  (pursuit adds zero tables for new clusters) are packed by the next run.
* **Summation order.** Each cluster keeps its float operations in the
  one-cluster order: ``joint = b_c + b_s1 + ...``, then each new sub-table
  ``max * (1/|S|)``, then the subtractions in sub order.  The dual adds the
  table maxima left to right in the state's own table order, and the
  primal adds the potential entries left to right in potential order.  So
  dual and primal traces, final tables, the assignment and
  ``min_update_decrease`` are bit-identical to the one-cluster-at-a-time
  sweep.

What a pursuit round costs.  Pursuit keeps one :class:`_Sweep` across its
belief-mode rounds.  A round that only appends clusters packs just the new
tables (a full pack is reallocated with twice the rows), schedules just the
new clusters against the kept level map, and rebuilds only the steps of the
batches they join and of the batches reading a reallocated pack: the steps
equal those of a full compile of the grown spec, at a cost that grows with
what the round adds.  Only a round in
which an existing extended cluster gains sub-clusters compiles from
scratch; on 100 frustrated 4-cycles (seed 3) that is 2 of 13 rounds, so a
solve makes 3 full compiles instead of 14.  Message mode rebuilds its
state each round.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from numbers import Integral
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .factor_graph import (
    Cluster,
    FactorGraph,
    InvalidModelError,
    table_cells,
    table_shape,
    validate,
)
from .relaxations import RelaxationSpec


class CoverageError(ValueError):
    """The relaxation does not give a table to something that needs one."""


@dataclass
class SolverParams:
    """Stopping rules for the solver and the pursuit loop around it."""

    inner_tol: float = 1e-8
    outer_tol: float = 1e-6
    max_sweeps: int = 1000
    pursuit_sweeps: int = 20
    clusters_per_round: int = 20
    time_limit: float = 3600.0

    def __post_init__(self):
        for name in ("max_sweeps", "pursuit_sweeps", "clusters_per_round"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer")
        for name in ("inner_tol", "outer_tol", "max_sweeps", "pursuit_sweeps",
                     "clusters_per_round", "time_limit"):
            # Written so that NaN, which compares false, is rejected too.
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class TraceRecord:
    sweep: int
    seconds: float
    dual: float
    primal: float
    pursuit_round: int = 0
    algorithm: str = ""


@dataclass
class DualTrace:
    records: list[TraceRecord] = field(default_factory=list)

    def append(self, record: TraceRecord) -> None:
        self.records.append(record)

    @property
    def duals(self) -> list[float]:
        return [r.dual for r in self.records]

    @property
    def primals(self) -> list[float]:
        return [r.primal for r in self.records]

    def __len__(self) -> int:
        return len(self.records)


class BeliefState:
    """One table per support cluster, indexed like potential tables."""

    def __init__(self, tables: dict[Cluster, np.ndarray]):
        self.tables = tables

    def __getitem__(self, t: Cluster) -> np.ndarray:
        return self.tables[t]

    def __setitem__(self, t: Cluster, v: np.ndarray) -> None:
        self.tables[t] = v

    def __contains__(self, t: Cluster) -> bool:
        return t in self.tables

    def copy(self) -> "BeliefState":
        return BeliefState({t: v.copy() for t, v in self.tables.items()})


#: Message-mode state: one table per (cluster, proper sub-cluster) edge, over
#: the sub scope.
Messages = dict[tuple[Cluster, Cluster], np.ndarray]


def _embed_index(sub: Cluster, sup: Cluster) -> tuple:
    """Indexing tuple that reshapes a sub-scope table for broadcasting into
    the super scope (both scopes sorted, sub contained in sup)."""
    sub_set = set(sub)
    return tuple(slice(None) if v in sub_set else None for v in sup)


def _max_axes(sub: Cluster, sup: Cluster) -> tuple[int, ...]:
    sub_set = set(sub)
    return tuple(i for i, v in enumerate(sup) if v not in sub_set)


def init_beliefs(graph: FactorGraph, spec: RelaxationSpec) -> BeliefState:
    """Tables equal the log-potentials on original clusters, zero elsewhere."""
    support = spec.support
    tables: dict[Cluster, np.ndarray] = {}
    shape_of = lambda t: table_shape(t, graph.cardinalities)
    for t in support:
        tables[t] = np.zeros(shape_of(t))
    missing = [c for c in graph.clusters if c not in tables]
    if missing:
        raise CoverageError(
            f"original clusters {missing} have no table under this relaxation"
        )
    for p in graph.potentials:
        tables[p.scope] = p.values.copy()
    return BeliefState(tables)


def init_messages(spec: RelaxationSpec, cardinalities: Sequence[int]) -> Messages:
    """A zero message on every edge of ``spec``."""
    return {
        (c, s): np.zeros(table_shape(s, cardinalities))
        for c in spec.extended_clusters
        for s in spec.proper_subs_of(c)
    }


class _Packing:
    """The tables of a state stacked by shape: one array per table shape,
    one table per row.  The dual and the decoder read all tables with one
    numpy reduction per shape.

    A packing can grow: :meth:`grow` appends tables as new rows, into a
    pack's spare rows when it has some, else into a reallocated pack with
    twice the rows.  A table's ``(pack, row)`` never changes, but views and
    references into a reallocated pack go stale.

    With ``cardinalities`` given, every table must have the shape of its
    scope.
    """

    def __init__(
        self,
        tables: Mapping[Cluster, np.ndarray],
        cardinalities: Sequence[int] | None = None,
    ):
        self.cardinalities = cardinalities
        self.packs: list[np.ndarray] = []
        # The tables of each pack, by row; rows past them are spare.
        self.members: list[list[Cluster]] = []
        self.where: dict[Cluster, tuple[int, int]] = {}
        # A variable's owner is the smallest, then lexicographically first,
        # table containing it; the decoder reads its state there.  Found
        # when first decoding, then kept up to date as the packing grows.
        self._owner: dict[int, Cluster] | None = None
        self._pack_of: dict[tuple[int, ...], int] = {}
        self.grow(tables)

    def grow(self, tables: Mapping[Cluster, np.ndarray]) -> list[Cluster]:
        """Pack the tables of ``tables`` that are not packed yet, and take
        ``tables``' order as the dual's summation order.  Returns the tables
        whose views changed: the new ones and those of reallocated packs."""
        by_shape: dict[tuple[int, ...], list[Cluster]] = {}
        cards = self.cardinalities
        for t, v in tables.items():
            if t in self.where:
                continue
            if cards is not None and v.shape != table_shape(t, cards):
                raise InvalidModelError(
                    f"table for cluster {t} has shape {v.shape}, "
                    f"expected {table_shape(t, cards)}"
                )
            by_shape.setdefault(v.shape, []).append(t)
        moved: list[Cluster] = []
        for shape, ts in by_shape.items():
            block = np.stack([tables[t] for t in ts], dtype=np.float64)
            k = self._pack_of.get(shape)
            if k is None:
                k = self._pack_of[shape] = len(self.packs)
                self.packs.append(block)
                self.members.append([])
            else:
                pack, n = self.packs[k], len(self.members[k])
                if n + len(ts) > len(pack):
                    grown = np.empty((max(n + len(ts), 2 * len(pack)), *shape))
                    grown[:n] = pack[:n]
                    self.packs[k] = pack = grown
                    moved += self.members[k]
                pack[n:n + len(ts)] = block
            for t in ts:
                self.where[t] = (k, len(self.members[k]))
                self.members[k].append(t)
            if self._owner is not None:
                self._claim(ts)
            moved += ts
        offsets = [0]
        for ts in self.members:
            offsets.append(offsets[-1] + len(ts))
        self._order = np.array(
            [offsets[k] + row for k, row in map(self.where.__getitem__, tables)],
            dtype=np.intp,
        )
        self._decoder: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] | None = None
        return moved

    def bind(self, tables: dict[Cluster, np.ndarray], clusters: Iterable[Cluster]) -> None:
        """Point ``tables[t]`` at its view into the packs, for each ``t``."""
        for t in clusters:
            tables[t] = self.view(t)

    def refill(self, tables: Mapping[Cluster, np.ndarray]) -> None:
        """Copy new values of the packed tables into the packs."""
        for t, v in tables.items():
            k, row = self.where[t]
            self.packs[k][row] = v

    def view(self, t: Cluster) -> np.ndarray:
        """Table ``t`` as a view into its pack."""
        k, row = self.where[t]
        return self.packs[k][row]

    def dual(self) -> float:
        """Sum of the table maxima, left to right in table order.  Not
        ``np.sum``, which adds pairwise, nor builtin ``sum``, which
        compensates float lists from Python 3.12 on: dual traces are
        defined by this order."""
        total = 0.0
        if self.packs:
            maxima = np.concatenate([self._rows(k).max(axis=1) for k in range(len(self.packs))])
            for m in maxima[self._order].tolist():
                total += m
        return total

    def _rows(self, k: int) -> np.ndarray:
        """The tables of pack ``k``, one flattened table per row."""
        pack, n = self.packs[k], len(self.members[k])
        return pack.reshape(n, -1) if n == len(pack) else pack[:n].reshape(n, -1)

    def first_maximisers(self, k: int) -> np.ndarray:
        """The first (lowest flat index) maximiser of each table in pack
        ``k``: one row per axis, one column per table."""
        first = self._rows(k).argmax(axis=1)
        return np.array(np.unravel_index(first, self.packs[k].shape[1:]))

    def states(self, num_vars: int) -> list[int]:
        """Decoded state of every variable (see :func:`decode`)."""
        if self._decoder is None:
            self._decoder = self._owner_axes(num_vars)
        states = np.zeros(num_vars, dtype=np.intp)
        for k, variables, axes, rows in self._decoder:
            states[variables] = self.first_maximisers(k)[axes, rows]
        return states.tolist()

    def _claim(self, tables: Iterable[Cluster]) -> None:
        """Make each of ``tables`` the owner of its variables where it is
        smaller, or as small and lexicographically first."""
        owner = self._owner
        for t in tables:
            for v in t:
                o = owner.get(v)
                if o is None or len(t) < len(o) or (len(t) == len(o) and t < o):
                    owner[v] = t

    def _owner_axes(self, num_vars: int) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """Per pack holding owner tables: the variables they own, with the
        axis and row of each."""
        if self._owner is None:
            self._owner = {}
            self._claim(self.where)
        by_pack: dict[int, list[tuple[int, int, int]]] = {}
        for i in range(num_vars):
            t = self._owner.get(i)
            if t is None:
                raise CoverageError(f"variable {i} appears in no support cluster")
            k, row = self.where[t]
            by_pack.setdefault(k, []).append((i, t.index(i), row))
        return [
            (k, *(np.array(column, dtype=np.intp) for column in zip(*owned)))
            for k, owned in by_pack.items()
        ]


def dual_objective(beliefs: BeliefState) -> float:
    """Sum over the support of each table's maximum entry, added left to
    right in the state's table order."""
    return _Packing(beliefs.tables).dual()


def dual_decrease(beliefs: BeliefState, c: Cluster, sub_clusters: Sequence[Cluster]) -> float:
    """Objective drop a block update of ``c`` would achieve right now:
    separate maxima minus the joint maximum."""
    subs = [s for s in sub_clusters if s != c]
    if not subs:
        return 0.0
    bc = beliefs[c]
    joint = bc.copy()
    separate = float(bc.max())
    for s in subs:
        bs = beliefs[s]
        joint += bs[_embed_index(s, c)]
        separate += float(bs.max())
    return separate - float(joint.max())


def _block_update(bc, bss, embeds, axes, inv, out_c, out_subs) -> float:
    """The block update kernel for one cluster; returns its dual drop.

    ``joint = b_c + b_s1 + ...``; every new sub-table is ``max over c\\s of
    joint, times 1/|S|``, all from the same pre-update joint; the new cluster
    table is ``joint`` minus the new sub-tables in sub order.  The outputs
    may alias the inputs.
    """
    joint = bc.copy()
    before = float(bc.max())
    for bs, e in zip(bss, embeds):
        joint += bs[e]
        before += float(bs.max())
    after = 0.0
    for ax, out in zip(axes, out_subs):
        np.multiply(joint.max(axis=ax), inv, out=out)
        after += float(out.max())
    for out, e in zip(out_subs, embeds):
        joint -= out[e]
    out_c[...] = joint
    after += float(joint.max())
    return before - after


def _group_update(cpack, crows, subs, inv) -> float:
    """:func:`_block_update` for a group of clusters sharing one table shape
    and sub-cluster layout, with the same operations per member; one row
    per member in each pack.  Returns the smallest member drop."""
    n = len(crows)
    joint = cpack[crows]
    before = joint.reshape(n, -1).max(axis=1)
    for spack, srows, e, _ in subs:
        bs = spack[srows]
        joint += bs[e]
        before += bs.reshape(n, -1).max(axis=1)
    after = 0.0
    news = []
    for _, _, _, ax in subs:
        ns = joint.max(axis=ax)
        ns *= inv
        after = after + ns.reshape(n, -1).max(axis=1)
        news.append(ns)
    for ns, (spack, srows, e, _) in zip(news, subs):
        joint -= ns[e]
        spack[srows] = ns
    cpack[crows] = joint
    after = after + joint.reshape(n, -1).max(axis=1)
    return float((before - after).min())


def update_cluster_beliefs(
    beliefs: BeliefState, c: Cluster, sub_clusters: Sequence[Cluster]
) -> float:
    """One block update in belief mode; returns the realised dual drop.

    All new sub-tables are computed from the same pre-update joint table, so
    the block is updated simultaneously, not sequentially.  The updated
    tables are new arrays; the previous ones are left as they were.
    """
    subs = [s for s in sub_clusters if s != c]
    if not subs:
        return 0.0
    bc = beliefs[c]
    if bc.ndim != len(c):
        raise InvalidModelError(f"table for {c} has {bc.ndim} axes, expected {len(c)}")
    bss = [beliefs[s] for s in subs]
    axes = [_max_axes(s, c) for s in subs]
    for s, bs, ax in zip(subs, bss, axes):
        want = tuple(n for i, n in enumerate(bc.shape) if i not in ax)
        if bs.shape != want:
            raise InvalidModelError(f"table for {s} has shape {bs.shape}, expected {want}")
    new_c = np.empty(bc.shape)
    new_subs = [np.empty(bs.shape) for bs in bss]
    embeds = [_embed_index(s, c) for s in subs]
    drop = _block_update(bc, bss, embeds, axes, 1.0 / len(subs), new_c, new_subs)
    for s, ns in zip(subs, new_subs):
        beliefs[s] = ns
    beliefs[c] = new_c
    return drop


def decode(beliefs: BeliefState, graph: FactorGraph) -> tuple[int, ...]:
    """Integer assignment from belief maximisers.

    Variables with a singleton table use its argmax; anything else takes its
    state from the argmax of the smallest table containing it, the
    lexicographically first among equal sizes.  Ties resolve to the lowest
    flat index, hence the lexicographically smallest configuration.
    """
    return tuple(_Packing(beliefs.tables).states(graph.num_vars))


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    trace: DualTrace
    beliefs: BeliefState
    assignment: tuple[int, ...]
    messages: Messages | None = None
    converged: bool = False
    truncated: bool = False
    min_update_decrease: float = 0.0

    @property
    def dual(self) -> float:
        return self.trace.records[-1].dual if self.trace.records else float("nan")

    @property
    def primal(self) -> float:
        return self.trace.records[-1].primal if self.trace.records else float("nan")

    @property
    def gap(self) -> float:
        return abs(self.dual - self.primal)


def _schedule(
    spec: RelaxationSpec,
    clusters: Sequence[Cluster],
    cardinalities: Sequence[int],
    levels: dict[Cluster, int],
    batches: dict[tuple, list[Cluster]],
) -> set[tuple]:
    """Add the updating clusters among ``clusters`` to ``batches``; returns
    the keys of the batches that changed.

    ``level(c) = 1 + max level of the earlier updating clusters sharing a
    table with c``; clusters of one level touch disjoint tables, so running
    the levels in order reproduces the insertion-order sweep.  Within a
    level, clusters with one table shape and one sub-cluster layout (the
    kept axes of each sub, in sub order) form one batch, in insertion order,
    keyed by ``(level, shape, layout)``.  ``levels`` holds the level of the
    latest cluster touching each table and is updated, so clusters appended
    to a spec land in exactly the batches a schedule of the whole spec has.
    """
    changed = set()
    for c in clusters:
        subs = spec.proper_subs_of(c)
        if not subs:
            continue
        touched = (c, *subs)
        level = 1 + max(levels.get(t, 0) for t in touched)
        for t in touched:
            levels[t] = level
        layout = tuple(tuple(i for i, v in enumerate(c) if v in s) for s in subs)
        key = (level, table_shape(c, cardinalities), layout)
        batches.setdefault(key, []).append(c)
        changed.add(key)
    return changed


def _batch_step(
    spec: RelaxationSpec, members: list[Cluster], packing: _Packing
) -> Callable[[], float]:
    """A call that applies the block updates of one batch to the packed
    tables and returns the smallest drop among them.  It holds the packs it
    reads, so it goes stale when one of them is reallocated."""
    where, packs = packing.where, packing.packs
    c = members[0]
    subs = spec.proper_subs_of(c)
    inv = 1.0 / len(subs)
    if len(members) == 1:
        # Basic-index views and scalar maxima: no gather for one table.
        bc = packing.view(c)
        bss = [packing.view(s) for s in subs]
        embeds = [_embed_index(s, c) for s in subs]
        axes = [_max_axes(s, c) for s in subs]
        return partial(_block_update, bc, bss, embeds, axes, inv, bc, bss)
    member_subs = [spec.proper_subs_of(m) for m in members]
    batch_subs = []
    for i, s in enumerate(subs):
        rows = np.array([where[ms[i]][1] for ms in member_subs], dtype=np.intp)
        embed = (slice(None),) + _embed_index(s, c)
        axes = tuple(a + 1 for a in _max_axes(s, c))
        batch_subs.append((packs[where[s][0]], rows, embed, axes))
    crows = np.array([where[m][1] for m in members], dtype=np.intp)
    return partial(_group_update, packs[where[c][0]], crows, batch_subs, inv)


class _Sweep:
    """The compiled belief-mode sweep of a spec over a packed state: one
    step per batch of :func:`_schedule`, in level order.

    :meth:`prepare` compiles it, or grows it in place when the new spec
    only appends clusters to the one compiled before, over the same state.
    Then the new tables are packed, the appended clusters get their levels
    from the kept level map and join the batches a full compile would put
    them in, and only the steps of those batches, and of the batches whose
    packs were reallocated to grow, are built again.  The steps are
    therefore those of a full compile.  Anything else (an existing cluster
    gaining sub-clusters, another state) compiles from scratch.
    """

    def __init__(self, cardinalities: Sequence[int]):
        self.cardinalities = cardinalities
        self.spec: RelaxationSpec | None = None
        self.state: BeliefState | None = None

    def prepare(self, spec: RelaxationSpec, state: BeliefState) -> None:
        old = self.spec
        if (
            state is self.state
            and spec.extended_clusters[:len(old.extended_clusters)] == old.extended_clusters
            and old.sub_clusters.items() <= spec.sub_clusters.items()
        ):
            clusters = spec.extended_clusters[len(old.extended_clusters):]
            packs = list(self.packing.packs)
            self.packing.bind(state.tables, self.packing.grow(state.tables))
            stale = {
                key
                for k, pack in enumerate(packs) if self.packing.packs[k] is not pack
                for key in self._readers.get(k, ())
            }
        else:
            clusters = spec.extended_clusters
            self._compile(state)
            stale = set()
        where = self.packing.where
        for key in stale | _schedule(spec, clusters, self.cardinalities, self.levels, self.batches):
            members = self.batches[key]
            self._step_of[key] = _batch_step(spec, members, self.packing)
            for t in (members[0], *spec.proper_subs_of(members[0])):
                self._readers.setdefault(where[t][0], set()).add(key)
        self.steps = [self._step_of[key] for key in sorted(self.batches, key=itemgetter(0))]
        self.spec, self.state = spec, state

    def _compile(self, state: BeliefState) -> None:
        """Start over: pack the whole state and forget every batch."""
        self.packing = _Packing(state.tables, self.cardinalities)
        self.packing.bind(state.tables, list(self.packing.where))
        self.levels: dict[Cluster, int] = {}
        self.batches: dict[tuple, list[Cluster]] = {}
        self._step_of: dict[tuple, Callable[[], float]] = {}
        # The batches whose steps read each pack.
        self._readers: dict[int, set[tuple]] = {}


class _Primal:
    """:func:`energy` with the lookups prepared once: each potential's
    entry at the decoded states, added left to right in potential order."""

    def __init__(self, graph: FactorGraph):
        self.lookups = [(p.values.item, itemgetter(*p.scope)) for p in graph.potentials]

    def __call__(self, states: list[int]) -> float:
        total = 0.0
        for entry, scope_states in self.lookups:
            total += entry(scope_states(states))
        return total


def run(
    graph: FactorGraph,
    spec: RelaxationSpec,
    params: SolverParams | None = None,
    mode: str = "beliefs",
    *,
    label: str = "",
    beliefs: BeliefState | None = None,
) -> RunResult:
    """Sweep the extended clusters until the dual stalls or a cap is hit.

    A passed ``beliefs`` warm-starts belief mode.  Returns the trace, final
    state and decoded assignment.  In both modes the returned tables (and
    those of a passed ``beliefs``) are views into storage shared by all
    tables of one shape.

    Raises :class:`InvalidModelError` when ``validate(graph)`` reports a
    problem or a passed table has the wrong shape.
    """
    _check_model(graph)
    return _run(graph, spec, params, mode, label=label, beliefs=beliefs)


def _check_model(graph: FactorGraph) -> None:
    problems = validate(graph)
    if problems:
        raise InvalidModelError("invalid model: " + "; ".join(problems))


def _run(
    graph: FactorGraph,
    spec: RelaxationSpec,
    params: SolverParams | None = None,
    mode: str = "beliefs",
    *,
    label: str = "",
    beliefs: BeliefState | None = None,
    messages: Messages | None = None,
    max_sweeps: int | None = None,
    pursuit_round: int = 0,
    start_time: float | None = None,
    sweep_offset: int = 0,
    sweep: _Sweep | None = None,
) -> RunResult:
    """:func:`run` on a graph already checked by :func:`_check_model`.

    Pursuit re-enters here once per round with its warm state (``beliefs``
    or ``messages``), its round budget, the start time and sweep count
    that keep the trace cumulative across rounds and, in belief mode, the
    :class:`_Sweep` it keeps across rounds.
    """
    if params is None:
        params = SolverParams()
    if mode not in ("beliefs", "messages"):
        raise ValueError(f"unknown mode {mode!r}")
    cap = params.max_sweeps if max_sweeps is None else max_sweeps
    t0 = time.perf_counter() if start_time is None else start_time

    if mode == "beliefs":
        state = beliefs if beliefs is not None else init_beliefs(graph, spec)
        missing = [t for t in spec.support if t not in state]
        if missing:
            raise CoverageError(f"support clusters {missing} have no belief table")
        sweep = _Sweep(graph.cardinalities) if sweep is None else sweep
        sweep.prepare(spec, state)
        packing, steps = sweep.packing, sweep.steps
    else:
        ctx = _MessageContext(graph, spec)
        if messages is None:
            messages = init_messages(spec, graph.cardinalities)
        for c in graph.clusters:
            if c not in ctx.theta:
                raise CoverageError(
                    f"original cluster {c} has no table under this relaxation"
                )
        state = ctx.beliefs(messages)
        packing = _Packing(state.tables, graph.cardinalities)
        packing.bind(state.tables, list(packing.where))
        steps = [partial(_message_sweep, messages, ctx, packing)]

    trace = DualTrace()
    min_drop = float("inf")
    truncated = False
    converged = False
    primal = _Primal(graph)
    # Decoding once up front reports a variable in no table before any sweep.
    x = packing.states(graph.num_vars)
    g_prev = packing.dual()
    for sweep in range(1, cap + 1):
        for step in steps:
            drop = step()
            if drop < min_drop:
                min_drop = drop
        g = packing.dual()
        x = packing.states(graph.num_vars)
        trace.append(TraceRecord(
            sweep=sweep_offset + sweep,
            seconds=time.perf_counter() - t0,
            dual=g,
            primal=primal(x),
            pursuit_round=pursuit_round,
            algorithm=label,
        ))
        if abs(g - g_prev) < params.inner_tol:
            converged = True
            break
        g_prev = g
        if time.perf_counter() - t0 > params.time_limit:
            truncated = True
            break
    return RunResult(
        trace=trace,
        beliefs=state,
        assignment=tuple(x),
        messages=messages,
        converged=converged,
        truncated=truncated,
        min_update_decrease=0.0 if min_drop == float("inf") else min_drop,
    )


# ---------------------------------------------------------------------------
# Message mode
# ---------------------------------------------------------------------------


class _MessageContext:
    """Static structure shared by all message-mode updates: who sends to
    whom, and the potential table of each support cluster (zero if absent)."""

    def __init__(self, graph: FactorGraph, spec: RelaxationSpec):
        self.spec = spec
        self.cards = graph.cardinalities
        self.support = spec.support
        self.theta: dict[Cluster, np.ndarray] = {}
        for t in self.support:
            p = graph._by_scope.get(t)
            self.theta[t] = p.values if p is not None else np.zeros(table_shape(t, self.cards))
        self.senders: dict[Cluster, list[Cluster]] = {t: [] for t in self.support}
        for c in spec.extended_clusters:
            for s in spec.proper_subs_of(c):
                self.senders[s].append(c)
        self.outgoing: dict[Cluster, list[Cluster]] = {
            c: list(spec.proper_subs_of(c)) for c in spec.extended_clusters
        }

    def incoming_sum(self, msgs: Messages, t: Cluster) -> np.ndarray:
        total = np.zeros(table_shape(t, self.cards))
        for c in self.senders[t]:
            total += msgs[(c, t)]
        return total

    def outgoing_sum(self, msgs: Messages, t: Cluster) -> np.ndarray:
        """Outgoing messages of ``t`` embedded and summed over ``t``'s scope."""
        total = np.zeros(table_shape(t, self.cards))
        for s in self.outgoing.get(t, ()):
            total += msgs[(t, s)][_embed_index(s, t)]
        return total

    def belief(self, msgs: Messages, t: Cluster) -> np.ndarray:
        return self.theta[t] + self.incoming_sum(msgs, t) - self.outgoing_sum(msgs, t)

    def beliefs(self, msgs: Messages) -> BeliefState:
        return BeliefState({t: self.belief(msgs, t) for t in self.support})


def update_cluster_messages(
    messages: Messages, graph: FactorGraph, spec: RelaxationSpec, c: Cluster
) -> None:
    """One block update of all messages out of ``c`` (closed form)."""
    ctx = _MessageContext(graph, spec)
    _update_messages(messages, ctx, c)


def _update_messages(msgs: Messages, ctx: _MessageContext, c: Cluster) -> None:
    subs = ctx.outgoing.get(c, ())
    if not subs:
        return
    bracket = ctx.theta[c] + ctx.incoming_sum(msgs, c)
    pieces = {}
    for s in subs:
        piece = (
            ctx.theta[s]
            - ctx.outgoing_sum(msgs, s)
            + ctx.incoming_sum(msgs, s)
            - msgs[(c, s)]
        )
        pieces[s] = piece
        bracket = bracket + piece[_embed_index(s, c)]
    inv = 1.0 / len(subs)
    for s in subs:
        new = bracket.max(axis=_max_axes(s, c)) * inv - pieces[s]
        msgs[(c, s)] = new


def _message_sweep(msgs: Messages, ctx: _MessageContext, packing: _Packing) -> float:
    """Message mode's whole sweep as one step: every extended cluster in
    insertion order, then the beliefs rebuilt into the packs.  Reports no
    block drop."""
    for c in ctx.spec.extended_clusters:
        _update_messages(msgs, ctx, c)
    packing.refill(ctx.beliefs(msgs).tables)
    return float("inf")


# ---------------------------------------------------------------------------
# Storage accounting and per-sweep work
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemoryReport:
    """Table-entry counts: beliefs versus potentials-plus-messages."""

    beliefs: int
    potentials: int
    messages: int

    @property
    def message_side(self) -> int:
        return self.potentials + self.messages


def memory_report(
    graph: FactorGraph,
    spec: RelaxationSpec,
    support: Sequence[Cluster] | None = None,
) -> MemoryReport:
    """Count stored scalars for both update styles.

    ``beliefs`` is one table per support cluster; ``potentials`` one table
    per original cluster; ``messages`` one sub-scope table per (extended
    cluster, proper sub-cluster) pair.  ``support`` may be overridden to
    account for belief sets chosen independently of the sub-cluster map.
    """
    cards = graph.cardinalities
    sup = spec.support if support is None else tuple(support)
    beliefs = sum(table_cells(t, cards) for t in sup)
    potentials = sum(table_cells(c, cards) for c in graph.clusters)
    messages = sum(
        table_cells(s, cards)
        for c in spec.extended_clusters
        for s in spec.proper_subs_of(c)
    )
    return MemoryReport(beliefs, potentials, messages)


def sweep_scalar_updates(spec: RelaxationSpec, cardinalities: Sequence[int]) -> int:
    """Belief-table scalars written by one full sweep in belief mode: every
    updating cluster rewrites its own table and each proper sub-table."""
    total = 0
    for c in spec.extended_clusters:
        subs = spec.proper_subs_of(c)
        if not subs:
            continue
        total += table_cells(c, cardinalities)
        total += sum(table_cells(s, cardinalities) for s in subs)
    return total
