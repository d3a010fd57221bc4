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
``time_limit``).  The state's tables live in one flat float64 store, each
at a fixed offset; the returned state is a plain dict of views into it
(:data:`BeliefState`); the solver's dual and decoder read the store too,
and pursuit's candidate search reads the tables in place.  A message-mode
sweep is one step: every message update in insertion order, then the
beliefs rebuilt into the store.  It reports no block drop, so
``min_update_decrease`` reads 0.0 in message mode.  Each table's shape and
each edge's embed index and max axes are computed once per run, in the
message context; public ``update_cluster_messages`` builds one per call over
the tables it reads, so no state outlives a call.  Every store checks the
tables it copies: a non-finite entry raises ``InvalidModelError``.

In belief mode the sweep is compiled into one step per level.
``level(c) = 1 + max level of the earlier updating clusters that share a
table with c``; the updates of one level touch disjoint tables and commute,
so running the levels in order gives exactly the insertion-order iterates
(any schedule that respects these dependencies does; Globerson & Jaakkola,
NIPS 2007; Kolmogorov, PAMI 2006).  A :class:`_Level` step runs every
update of its level in numpy calls that grow with its depths and batches,
not its members or subs.  Its per-cell index maps
come from shared templates; the compiled sweep keeps them, with the
``1/|S|`` scale of each new cell, for its first parts, within 64 KiB
(``_KEPT_CELLS``), and the rest are rebuilt per call, since all of a large
grid's maps would outweigh its tables.  A 12-variable instance keeps every
map.  On a 16x16 grid with 3 states that is 47 / 47 / 121 / 61 / 43 steps
per sweep for ``gmplp`` / ``dd`` / ``ps`` / ``pi-s`` / ``mi``.

Each cluster keeps its float operations in the one-cluster order: ``joint
= b_c + b_s1 + ...``, each new sub-table ``max * (1/|S|)``, then the
subtractions in sub order.  A step makes each role sum over a part's cells
in one ``np.subtract.reduce`` down the role axis, in role order: the joint
with the sub rows negated (``x0 - (-x1)`` is ``x0 + x1`` to the bit,
signed zeros included), then the member table as ``joint - new1 - ...``.
``np.add.reduce`` would add the role axis pairwise where it is contiguous,
in a part of one cell.  Block drops are taken once per sweep: the steps write their
members' role maxima into a buffer of the run, which :class:`_Drops` sums
the same way, rows 0..K before and 1..K, then 0, after the update.  Maxima
are exact in any order.  The dual adds the table maxima left to right in
store order, which is the state's table order (a store grows only by tables
appended to its state), from ``0.0``, with one sequential accumulate; the
primal gathers the potential entries at the decoded states and adds them
the same way, in potential order.  So traces, tables, the assignment and
``min_update_decrease`` are bit-identical to the one-cluster-at-a-time
sweep.

Pursuit keeps one :class:`_Sweep` across its belief-mode rounds and tells
it what each round added.  It stores just the new tables (a full store is
reallocated at twice the size; the decoder stays unless a variable changes
owner) and schedules the appended clusters on the kept level map; each
level they join keeps its parts and extends its last one from the member
offsets it keeps, so a round's work grows with what it added.  When a
cluster gained sub-clusters, every cluster is scheduled afresh, with keys
built only for the clusters that gained, and the levels whose batches
change are rebuilt.  The steps run a full compile's levels and batches,
and a pursuit compiles once.  Message mode rebuilds its state each round.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, islice, repeat
from math import prod
from operator import mul
from numbers import Integral
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .factor_graph import (
    Cluster,
    FactorGraph,
    InvalidModelError,
    table_cells,
    table_shape,
    validate,
    views,
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


#: Belief-mode state: one table per support cluster, indexed like potential
#: tables.  After a run the tables are views into the solver's store.
BeliefState = dict[Cluster, np.ndarray]

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
    """Tables equal the log-potentials on original clusters, zero elsewhere.
    The originals are views of one copy of :attr:`FactorGraph.flat`, and
    the zero tables views of one zero array, allocated at once."""
    tables: BeliefState = dict.fromkeys(spec.support)
    _check_support(tables, graph.clusters)
    shapes = [p.values.shape for p in graph.potentials]
    tables.update(zip(graph.clusters, views(graph.flat.copy(), shapes)))
    zeros = [t for t, table in tables.items() if table is None]
    shapes = [table_shape(t, graph.cardinalities) for t in zeros]
    tables.update(zip(zeros, views(np.zeros(sum(map(prod, shapes))), shapes)))
    return tables


def init_messages(spec: RelaxationSpec, cardinalities: Sequence[int]) -> Messages:
    """A zero message on every edge of ``spec``."""
    return {
        (c, s): np.zeros(table_shape(s, cardinalities))
        for c in spec.extended_clusters
        for s in spec.proper_subs_of(c)
    }


class _Store:
    """A state's tables in one flat float64 array :attr:`buf`, each at a
    fixed offset; cell 0 stays zero for padded roles.  :meth:`grow` appends
    tables, reallocating at twice the size when they do not fit, so steps
    read :attr:`buf` per call.  With ``cardinalities``, shapes are checked.
    """

    def __init__(self, tables: Mapping[Cluster, np.ndarray],
                 cardinalities: Sequence[int] | None = None):
        self.cardinalities = cardinalities
        self.buf = np.zeros(1)
        self.used = 1
        self.where: dict[Cluster, int] = {}
        self.shape: dict[Cluster, tuple[int, ...]] = {}
        # Each variable's owner, the smallest then lexicographically first
        # table containing it, found when first decoding and kept up to date.
        self._owner: dict[int, Cluster] | None = None
        self._offsets = np.zeros(0, np.intp)
        self.grow(tables)

    def grow(self, tables: Mapping[Cluster, np.ndarray]) -> tuple[list[Cluster], bool]:
        """Store the tables of ``tables`` not stored yet, after the stored
        ones; a caller passes only the tables it added, so the work grows
        with them.  Returns them and whether the array was reallocated.
        Raises :class:`InvalidModelError`, storing nothing, when one has a
        non-finite entry or, with cardinalities, the wrong shape."""
        new = [t for t in tables if t not in self.where]
        start, cards, shapes = self.used, self.cardinalities, {}
        for t in new if cards is not None else ():
            if t and (min(t) < 0 or max(t) >= len(cards)):
                raise InvalidModelError(f"table for cluster {t}: variables outside "
                                        f"the graph's {len(cards)}")
            if tables[t].shape != tuple(map(cards.__getitem__, t)):
                raise InvalidModelError(f"table for cluster {t} has shape "
                                        f"{tables[t].shape}, expected {table_shape(t, cards)}")
        values = [tables[t] for t in new]
        end = start + sum(v.size for v in values)
        buf = self.buf
        if end > len(buf):
            spare = np.zeros(max(0, 2 * len(buf) - end))
            buf = np.concatenate([buf[:start], *values, spare], axis=None)
        elif new:
            buf[start:end] = np.concatenate(values, axis=None)
        # One pass over the new cells, past the used ones; tables are
        # searched only on failure.
        if not np.isfinite(buf[start:end]).all():
            bad = [t for t in new if not np.isfinite(tables[t]).all()]
            raise InvalidModelError(f"tables for clusters {bad}: non-finite entries")
        moved, self.buf = buf is not self.buf, buf
        offsets = []
        for t in new:
            self.where[t], shape = self.used, tables[t].shape
            self.shape[t] = shape = shapes.setdefault(shape, shape)
            offsets.append(self.used)
            self.used += prod(shape)
        if self._owner is None or self._claim(new):  # else the decoder stays valid
            self._decoder: list[tuple] | None = None
        self._offsets = np.concatenate([self._offsets, np.array(offsets, np.intp)])
        return new, moved

    def bind(self, tables: dict[Cluster, np.ndarray], clusters: list[Cluster]) -> None:
        """Point ``tables[t]`` at its view into the store, for each of
        ``clusters``, stored one after another in store order (see
        :func:`~maplp.factor_graph.views`)."""
        if clusters:
            shapes = map(self.shape.__getitem__, clusters)
            tables.update(zip(clusters, views(self.buf[self.where[clusters[0]]:], shapes)))

    def view(self, t: Cluster) -> np.ndarray:
        """Table ``t`` as a view into the store."""
        shape, offset = self.shape[t], self.where[t]
        return self.buf[offset:offset + prod(shape)].reshape(shape)

    def dual(self) -> float:
        """Sum of the table maxima, left to right in store order and added
        to ``0.0``: one sequential ``np.add.accumulate``, not ``np.sum``
        (pairwise) nor builtin ``sum`` (compensated from Python 3.12 on),
        since dual traces are defined by this order.  Adding the zero last
        gives the same bits as adding it first: the partial sums differ at
        most in the sign of a zero, which the final ``0.0 +`` clears."""
        if not self.where:
            return 0.0
        maxima = np.maximum.reduceat(self.buf[:self.used], self._offsets)
        return 0.0 + np.add.accumulate(maxima)[-1].item()

    def states(self, num_vars: int) -> list[int]:
        """Decoded state of every variable (see :func:`decode`)."""
        if self._decoder is None:
            self._decoder = self._owner_cells(num_vars)
        states = np.zeros(num_vars, dtype=np.intp)
        for shape, cells, variables, axes, rows in self._decoder:
            first = np.unravel_index(self.buf[cells].argmax(axis=1), shape)
            states[variables] = np.array(first)[axes, rows]
        return states.tolist()

    def _claim(self, tables: Iterable[Cluster]) -> bool:
        """Make each of ``tables`` the owner of its variables where it is
        smaller, or as small and lexicographically first; True if an owner changed."""
        owner, changed = self._owner, False
        for t in tables:
            for v in t:
                o = owner.get(v)
                if o is None or len(t) < len(o) or (len(t) == len(o) and t < o):
                    owner[v], changed = t, True
        return changed

    def _owner_cells(self, num_vars: int) -> list[tuple]:
        """Per shape of owner tables: the shape, the owners' cells, and the
        variables they own with the axis and owner row of each."""
        if self._owner is None:
            self._owner = {}
            self._claim(self.where)
        by_shape: dict[tuple[int, ...], tuple[dict[Cluster, int], list]] = {}
        for i in range(num_vars):
            t = self._owner.get(i)
            if t is None:
                raise CoverageError(f"variable {i} appears in no support cluster")
            rows, owned = by_shape.setdefault(self.shape[t], ({}, []))
            owned.append((i, t.index(i), rows.setdefault(t, len(rows))))
        return [
            (shape, np.array([self.where[t] for t in rows])[:, None] + np.arange(prod(shape)),
             *(np.array(column, dtype=np.intp) for column in zip(*owned)))
            for shape, (rows, owned) in by_shape.items()
        ]


def dual_objective(beliefs: BeliefState) -> float:
    """Sum over the support of each table's maximum entry, added left to
    right in the state's table order.  Raises :class:`InvalidModelError`
    as :func:`update_cluster_beliefs` does."""
    _check_shapes(beliefs, tuple(beliefs))
    return _Store(beliefs).dual()


def _check_support(beliefs: BeliefState, ts: Iterable[Cluster]) -> None:
    missing = [t for t in ts if t not in beliefs]
    if missing:
        raise CoverageError(f"clusters {missing} have no belief table")


def _check_shapes(beliefs: BeliefState, ts: tuple[Cluster, ...]) -> None:
    """Each of the tables ``ts`` has one axis per variable of its cluster,
    none of length zero, and each variable one axis length in all of them,
    for callers with no cardinalities to check against.  Checked in C-level
    passes; the clusters to name are searched only on failure."""
    shapes = [beliefs[t].shape for t in ts]
    length = dict(zip(chain.from_iterable(ts), chain.from_iterable(shapes)))
    if (list(map(len, shapes)) == list(map(len, ts))
            and list(map(length.__getitem__, chain.from_iterable(ts)))
            == list(chain.from_iterable(shapes)) and 0 not in length.values()):
        return
    holder: dict[int, tuple[int, Cluster]] = {}
    for t, shape in zip(ts, shapes):
        if len(shape) != len(t):
            raise InvalidModelError(f"table for cluster {t} has shape {shape}: "
                                    f"{len(shape)} axes for {len(t)} variables")
        for v, n in zip(t, shape):
            m, first = holder.setdefault(v, (n, t))
            if m != n:
                raise InvalidModelError(f"tables for clusters {first} and {t} give "
                                        f"variable {v} {m} and {n} states")
    empty = [t for t, shape in zip(ts, shapes) if 0 in shape]
    raise InvalidModelError(f"tables for clusters {empty}: an axis of length zero")


def _block(beliefs: BeliefState, c: Cluster,
           sub_clusters: Sequence[Cluster]) -> tuple[list[Cluster], _Store]:
    """The proper sub-clusters of a block update of ``c`` and a store of the
    tables it reads, checked as :func:`update_cluster_beliefs` says."""
    subs = [s for s in sub_clusters if s != c]
    touched = (c, *subs)
    _check_support(beliefs, touched)
    outside = [s for s in subs if not set(s) <= set(c)]
    if outside:
        raise InvalidModelError(f"sub-clusters {outside} are not inside {c}")
    _check_shapes(beliefs, touched)
    return subs, _Store({t: beliefs[t] for t in touched})


def dual_decrease(beliefs: BeliefState, c: Cluster, sub_clusters: Sequence[Cluster]) -> float:
    """Objective drop a block update of ``c`` would achieve right now:
    separate maxima minus the joint maximum.  Raises as
    :func:`update_cluster_beliefs` does."""
    subs, store = _block(beliefs, c, sub_clusters)
    if not subs:
        return 0.0
    bc = store.view(c)
    joint = bc.copy()
    separate = float(bc.max())
    for s in subs:
        bs = store.view(s)
        joint += bs[_embed_index(s, c)]
        separate += float(bs.max())
    return separate - float(joint.max())


def _projection(shape: tuple[int, ...], kept: tuple[int, ...], cache: dict) -> tuple:
    """For a table of ``shape`` and a sub keeping its axes ``kept``: the sub
    cell each cell projects to, and a column per sub cell listing the cells
    projecting to it."""
    key = ("projection", shape, kept)
    if key not in cache:
        sub = np.arange(prod(shape[i] for i in kept)).reshape([shape[i] for i in kept])
        embed = tuple(slice(None) if i in kept else None for i in range(len(shape)))
        dropped = [i for i in range(len(shape)) if i not in kept]
        cells = np.arange(prod(shape)).reshape(shape).transpose([*kept, *dropped])
        cache[key] = (np.broadcast_to(sub[embed], shape).reshape(-1),
                      cells.reshape(sub.size, -1).T)
    return cache[key]


def _template(shape: tuple[int, ...], layout: tuple, cache: dict) -> tuple:
    """Index maps shared by one table shape and sub layout (the kept axes of
    each sub).  ``gather``: per role, the cell itself or the sub cell each
    cell projects to.  ``groups``: per depth (cells per sub cell), a column
    per sub cell listing the cells projecting to it.  ``place``: each sub's
    depth, first column and the columns of its depth.  Each sub's maps are
    built once per shape (:func:`_projection`)."""
    key = (shape, layout)
    if key not in cache:
        codes, by_cells = zip(*(_projection(shape, kept, cache) for kept in layout))
        gather = np.stack([np.arange(prod(shape)), *codes])
        groups: dict[int, list[np.ndarray]] = {}
        place = []
        for by_cell in by_cells:
            columns = groups.setdefault(len(by_cell), [])
            place.append((len(by_cell), sum(c.shape[1] for c in columns)))
            columns.append(by_cell)
        groups = {d: _joined(columns) for d, columns in groups.items()}
        cache[key] = (gather, groups, [(d, column, groups[d].shape[1]) for d, column in place])
    return cache[key]


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


class _Level:
    """The block updates of one level as one step over a :class:`_Store`.
    ``batches`` maps each (table shape, sub layout) to its members' offsets,
    ``(1 + subs, members)``: each member's table, then its subs in order
    (:func:`_member_offsets`).  A step gathers ``X``, one row per role and
    one column per member cell: the members' tables, then each member's
    ``r``-th sub broadcast into its cells (the store's zero cell past its
    last sub).  New sub-table cells are one maximum per depth (cells
    projecting to one) over a ``(depth, new cells)`` gather of the joint,
    scaled by their member's ``1/|S|``, and gathered back into ``X`` to
    subtract; ``X`` is then scattered to the store.  A call writes its
    members' role maxima, ``(roles, members)``, for :class:`_Drops`.
    :meth:`extended` makes the part with more members from the offsets it
    keeps."""

    def __init__(self, store: _Store, batches: Mapping[tuple, np.ndarray], templates: dict):
        self.store, self.templates = store, templates
        self.K = K = max(len(layout) for _, layout in batches)
        found = [(key, offsets, _template(*key, templates)) for key, offsets in batches.items()]
        counts: dict[int, int] = {}
        for _, offsets, (_, groups, _) in found:
            for d, columns in groups.items():
                counts[d] = counts.get(d, 0) + offsets.shape[1] * columns.shape[1]
        # The new cells, past a zero at 0: by depth, then batch, member, sub.
        depths = sorted(counts)
        bounds = dict(zip(depths, accumulate([1] + [counts[d] for d in depths])))
        self.size = 1 + sum(counts.values())
        self.keys, self.gather, self.depths, blocks = [], [], {}, {}
        members = np.array([offsets.shape[1] for _, offsets, _ in found])
        self.cells = np.array([gather.shape[1] for _, _, (gather, _, _) in found]).repeat(members)
        self.starts = self.cells.cumsum() - self.cells
        self.width = int(self.starts[-1] + self.cells[-1])
        # Each member's store offsets, the zero cell past its last sub.
        self.offsets = np.zeros((K + 1, len(self.cells)), dtype=np.intp)
        # Per batch and role, where the batch's first new sub-table starts
        # and how far each next member's is.
        starts, strides = [], []
        lo = 0
        for key, offsets, (gather, groups, place) in found:
            n, k = offsets.shape[1], len(place)
            starts.append([bounds[d] + column for d, column, _ in place] + [0] * (K - k))
            strides.append([w for _, _, w in place] + [0] * (K - k))
            for d, columns in groups.items():
                self.depths.setdefault(d, []).append((columns, self.starts[lo:lo + n]))
                blocks.setdefault(d, []).append((1.0 / k, n * columns.shape[1]))
                bounds[d] += n * columns.shape[1]
            self.offsets[:k + 1, lo:lo + n] = offsets
            self.keys.append(key)
            self.gather.append((gather, self.offsets[:k + 1, lo:lo + n]))
            lo += n
        self.depths = sorted(self.depths.items())
        self.inv, self.new_cells = map(np.array, zip(*(b for d in depths for b in blocks[d])))
        # Where each role's new sub-table starts, minus its store offset.
        index = np.arange(lo) - (members.cumsum() - members).repeat(members)
        self.delta = np.array(strides).T.repeat(members, axis=1) * index
        self.delta += np.array(starts).T.repeat(members, axis=1)
        self.delta -= self.offsets[1:]
        # Cells of the maps a call builds (``G``, the ``Q``s, ``R`` and the
        # scale), and the maps themselves if the compiled sweep keeps them.
        self.map_cells = ((2 * K + 1) * self.width + sum(d * n for d, n in counts.items())
                          + self.size - 1)
        self.kept: tuple | None = None

    def fits(self, batches: Mapping[tuple, np.ndarray]) -> bool:
        """Whether this part with the members of ``batches`` added stays
        within ``_PART_CELLS`` cells times roles."""
        roles = 1 + max(self.K, *(len(layout) for _, layout in batches))
        cells = sum(prod(shape) * offsets.shape[1] for (shape, _), offsets in batches.items())
        return roles * (self.width + cells) <= _PART_CELLS

    def extended(self, batches: Mapping[tuple, np.ndarray]) -> _Level:
        """This part with the members of ``batches`` (keyed and laid out as
        the constructor's) added after its own, from its kept offsets; the
        new members must touch tables no member of this part touches."""
        merged = {key: offsets for key, (_, offsets) in zip(self.keys, self.gather)}
        for key, offsets in batches.items():
            merged[key] = np.hstack([merged[key], offsets]) if key in merged else offsets
        return _Level(self.store, merged, self.templates)

    def maps(self) -> tuple[np.ndarray, list[np.ndarray], np.ndarray, np.ndarray]:
        """The index maps of a call: ``G`` gathers ``X`` from the store, each
        depth's ``Q`` the joint cells under each new cell, and ``R`` each
        role's new sub-table cell back into ``X``; with them the scale of
        each new cell, ``1/|S|`` of its member."""
        K = self.K
        pieces = [(g[:, None, :] + o[:, :, None]).reshape(len(g), -1) for g, o in self.gather]
        if len(pieces) == 1 and len(pieces[0]) == K + 1:
            G = pieces[0]
        else:  # past a member's last sub, the zero cell
            G = np.zeros((K + 1, self.width), dtype=np.intp)
            lo = 0
            for piece in pieces:
                G[:len(piece), lo:lo + piece.shape[1]] = piece
                lo += piece.shape[1]
        Qs = [_joined([(q[:, None, :] + b[:, None]).reshape(d, -1) for q, b in parts])
              for d, parts in self.depths]
        R = np.repeat(self.delta, self.cells, axis=1)
        R += G[1:]
        return G, Qs, R, np.repeat(self.inv, self.new_cells)

    def __call__(self, before: np.ndarray, after: np.ndarray) -> None:
        buf = self.store.buf
        G, Qs, R, scale = self.kept or self.maps()
        X = buf[G]
        sub_rows = X[1:]
        np.maximum.reduceat(X, self.starts, axis=1, out=before)
        # Negated by a product: a first ``np.negative`` call pages in numpy code.
        sub_rows *= -1.0
        X[0] = joint = np.subtract.reduce(X, axis=0)
        new = np.zeros(self.size)
        start = 1
        for Q in Qs:
            np.maximum.reduce(joint[Q], axis=0, out=new[start:start + Q.shape[1]])
            start += Q.shape[1]
        new[1:] *= scale
        # In range by construction; "clip" writes to X without a buffer.
        np.take(new, R, out=sub_rows, mode="clip")
        X[0] = np.subtract.reduce(X, axis=0)
        np.maximum.reduceat(X, self.starts, axis=1, out=after)
        buf[G] = X


class _Drops:
    """:attr:`calls` runs each part, writing its members' role maxima before
    and after its update into a buffer ``(2, max roles + 1, updates)``
    padded with ``-0.0``, which adds nothing, a zero included.  A call
    returns the sweep's smallest drop (``inf`` for none): per update, the
    maxima added in order 0..K before, minus 1..K, 0 after, each sum one
    ``np.subtract.reduce`` over rows negated in place, into the last row."""

    def __init__(self, parts: Sequence[_Level]):
        bounds = [0, *accumulate(len(p.cells) for p in parts)]
        buf = np.full((2, 2 + max((p.K for p in parts), default=0), bounds[-1]), -0.0)
        self.calls = [partial(p, buf[0, :p.K + 1, lo:hi], buf[1, :p.K + 1, lo:hi])
                      for p, lo, hi in zip(parts, bounds, bounds[1:])]
        # Views made once, so that a call allocates nothing but its result.
        (self.before, after), (self.drops, self.later) = buf[:, :-1], buf[:, -1]
        self.after_subs, self.after_first = after[1:], after[0]
        self.negated = (self.before[1:], after[:1], after[2:])

    def __call__(self) -> float:
        if not self.drops.size:
            return float("inf")
        for rows in self.negated:
            rows *= -1.0
        np.subtract.reduce(self.after_subs, axis=0, out=self.later)
        self.later -= self.after_first
        np.subtract.reduce(self.before, axis=0, out=self.drops)
        self.drops -= self.later
        for rows in self.negated:
            rows *= -1.0
        return self.drops.min().item()


def update_cluster_beliefs(
    beliefs: BeliefState, c: Cluster, sub_clusters: Sequence[Cluster]
) -> float:
    """One block update in belief mode; returns the realised dual drop.

    All new sub-tables are computed from the same pre-update joint table, so
    the block is updated simultaneously, not sequentially.  The updated
    tables are new arrays; the previous ones are left as they were.  Raises
    :class:`CoverageError` for a missing table and :class:`InvalidModelError`
    for a sub not inside ``c``, a table :func:`_check_shapes` rejects or a
    non-finite entry, writing nothing.
    """
    subs, store = _block(beliefs, c, sub_clusters)
    if not subs:
        return 0.0
    key = (store.shape[c], tuple(tuple(map(c.index, s)) for s in subs))
    drops = _Drops([_Level(store, {key: _member_offsets(store, [c], lambda _: subs)}, {})])
    drops.calls[0]()
    store.bind(beliefs, list(store.where))
    return drops()


def decode(beliefs: BeliefState, graph: FactorGraph) -> tuple[int, ...]:
    """Integer assignment from belief maximisers.

    Variables with a singleton table use its argmax; anything else takes its
    state from the argmax of the smallest table containing it, the
    lexicographically first among equal sizes.  Ties resolve to the lowest
    flat index, hence the lexicographically smallest configuration.
    """
    return tuple(_Store(beliefs, graph.cardinalities).states(graph.num_vars))


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


class _TraceEnd:
    """``dual``, ``primal`` and ``gap`` of a result's last trace record
    (NaN before any sweep)."""

    trace: DualTrace

    @property
    def dual(self) -> float:
        return self.trace.records[-1].dual if self.trace.records else float("nan")

    @property
    def primal(self) -> float:
        return self.trace.records[-1].primal if self.trace.records else float("nan")

    @property
    def gap(self) -> float:
        return abs(self.dual - self.primal)


@dataclass
class RunResult(_TraceEnd):
    trace: DualTrace
    beliefs: BeliefState
    assignment: tuple[int, ...]
    messages: Messages | None = None
    converged: bool = False
    truncated: bool = False
    min_update_decrease: float = 0.0


def _schedule(
    spec: RelaxationSpec,
    clusters: Sequence[Cluster],
    cardinalities: Sequence[int],
    levels: dict[Cluster, int],
    batches: dict[int, dict[tuple, list[Cluster]]],
    known: Mapping[Cluster, tuple] | None = None,
) -> set[int]:
    """Add the updating clusters among ``clusters`` to their levels in
    ``batches``, by table shape and sub layout; returns the changed levels.
    ``levels``, the level of the latest cluster touching each table, is
    updated, so appended clusters land where a full schedule puts them.
    ``known`` holds (shape, layout) keys of an earlier schedule, kept for
    each cluster with as many subs as then (subs are only ever added)."""
    changed = set()
    known = {} if known is None else known
    for c in clusters:
        subs = spec.proper_subs_of(c)
        if not subs:
            continue
        touched = (c, *subs)
        level = 1 + max(map(levels.get, touched, repeat(0)))
        for t in touched:
            levels[t] = level
        key = known.get(c)
        if key is None or len(key[1]) != len(subs):
            # Each sub's kept axes: its variables' positions in c,
            # increasing since both are sorted.
            key = (table_shape(c, cardinalities), tuple([tuple(map(c.index, s)) for s in subs]))
        batches.setdefault(level, {}).setdefault(key, []).append(c)
        changed.add(level)
    return changed


def _member_offsets(store: _Store, members: Sequence[Cluster],
                    subs_of: Callable[[Cluster], Sequence[Cluster]]) -> np.ndarray:
    """``(1 + subs, members)``: each member's table offset in ``store``,
    then its subs' (all members of one batch have as many subs)."""
    n, k = len(members), len(subs_of(members[0]))
    touched = chain.from_iterable((c, *subs_of(c)) for c in members)
    return np.fromiter(map(store.where.__getitem__, touched), np.intp,
                       n * (k + 1)).reshape(n, k + 1).T


# Cells times roles one part of a step gathers at most, so a call's arrays
# stay within 64 KiB each; no level of the 16x16x3 grid needs two parts.
_PART_CELLS = 8192

# Cells of index maps and new-cell scales a compiled sweep keeps across calls
# (64 KiB of intp or float64), first come, first served; a part past the
# budget rebuilds its maps and scale per call.  A 12-variable instance keeps
# every part's maps, a 16x16x3 grid those of its first levels: all of them
# (2.2-4.7 MiB) would outweigh its tables.
_KEPT_CELLS = 8192


def _parts(batches: Mapping[tuple, list[Cluster]]) -> list[dict[tuple, list[Cluster]]]:
    """A level's batches split into parts within ``_PART_CELLS``, batches
    with fewer subs first so that a part pads few roles."""
    parts, cells = [{}], 0
    for key, members in sorted(batches.items(), key=lambda kv: len(kv[0][1])):
        roles, size = len(key[1]) + 1, prod(key[0])
        for c in members:
            if cells and roles * (cells + size) > _PART_CELLS:
                parts.append({})
                cells = 0
            parts[-1].setdefault(key, []).append(c)
            cells += size
    return parts


class _Sweep:
    """The compiled belief-mode sweep of ``spec`` over ``state``, whose
    tables it stores and points at their views: :attr:`steps` holds, per
    level, the :class:`_Level` parts that run it.  :meth:`grow` follows a
    spec grown from the last one over the same state and leaves steps
    that run a full compile's levels and batches, split into parts
    differently perhaps, which changes no result: the members of a level
    touch disjoint tables and :class:`_Drops` takes one minimum over them.
    Parts keep their index maps and scale while :attr:`kept_cells` stays
    within ``_KEPT_CELLS``; a replaced part gives its kept cells back."""

    def __init__(self, spec: RelaxationSpec, state: BeliefState,
                 cardinalities: Sequence[int]):
        _check_support(state, spec.support)
        self.cardinalities, self.state = cardinalities, state
        self.store = _Store({}, cardinalities)
        self.levels: dict[Cluster, int] = {}
        self.batches: dict[int, dict[tuple, list[Cluster]]] = {}
        self.steps: list[list[_Level]] = []
        self.kept_cells = self.clusters = 0
        # Index templates by (table shape, sub layout, roles).
        self._templates: dict[tuple, tuple] = {}
        self.grow(spec, False)

    def grow(self, spec: RelaxationSpec, gained: bool) -> None:
        """Store the tables appended to the state since the last call and
        follow ``spec``, the last spec with clusters appended and, if
        ``gained``, subs added to existing ones.  Appended clusters alone
        take their levels from the kept level map, and each level they join
        keeps its parts: the new members extend its last part, or make new
        parts where they do not fit, so a round's work grows with what it
        added.  A gain schedules every cluster afresh, building keys only
        for the clusters that gained subs, and rebuilds the levels whose
        batches changed.  A grown spec has no
        fewer levels: its clusters only touch more tables."""
        stored = len(self.store.where)
        new, moved = self.store.grow({t: self.state[t] for t in islice(self.state, stored, None)})
        self.store.bind(self.state, list(self.store.where) if moved else new)
        subs_of = spec.proper_subs_of
        if gained:
            previous, self.levels, self.batches = self.batches, {}, {}
            known = {c: key for by_key in previous.values()
                     for key, members in by_key.items() for c in members}
            changed = _schedule(spec, spec.extended_clusters, self.cardinalities,
                                self.levels, self.batches, known)
            for level in sorted(changed):
                if list(self.batches[level].items()) != list(previous.get(level, {}).items()):
                    self._place(level, [_Level(self.store, self._offsets(part, subs_of),
                                               self._templates)
                                        for part in _parts(self.batches[level])])
        else:
            added: dict[int, dict[tuple, list[Cluster]]] = {}
            _schedule(spec, spec.extended_clusters[self.clusters:], self.cardinalities,
                      self.levels, added)
            for level, batches in sorted(added.items()):
                into = self.batches.setdefault(level, {})
                for key, members in batches.items():
                    into.setdefault(key, []).extend(members)
                fresh = [self._offsets(part, subs_of) for part in _parts(batches)]
                parts = self.steps[level - 1] if level <= len(self.steps) else []
                if parts and parts[-1].fits(fresh[0]):
                    parts = [*parts[:-1], parts[-1].extended(fresh.pop(0))]
                self._place(level, [*parts, *(_Level(self.store, offsets, self._templates)
                                              for offsets in fresh)])
        self.clusters = len(spec.extended_clusters)

    def _offsets(self, batches: Mapping[tuple, list[Cluster]],
                 subs_of: Callable[[Cluster], Sequence[Cluster]]) -> dict[tuple, np.ndarray]:
        return {key: _member_offsets(self.store, members, subs_of)
                for key, members in batches.items()}

    def _place(self, level: int, parts: list[_Level]) -> None:
        """Make ``parts`` the steps of ``level``: the parts they replace give
        back their kept cells, and new parts keep theirs while they fit."""
        old = self.steps[level - 1] if level <= len(self.steps) else []
        self.kept_cells -= sum(p.map_cells for p in old if p.kept and p not in parts)
        for p in parts:
            if p.kept is None and p not in old and self.kept_cells + p.map_cells <= _KEPT_CELLS:
                p.kept = p.maps()
                self.kept_cells += p.map_cells
        self.steps[level - 1:level] = [parts]


class _Primal:
    """:func:`energy` with its lookups prepared once: one gather of each
    potential's entry at the decoded states (from the graph's tables laid
    end to end, :attr:`FactorGraph.flat`, each entry at its table's base
    plus the states times the table's strides), added left to right in
    potential order with one sequential accumulate from ``0.0``, as
    :meth:`_Store.dual` adds."""

    def __init__(self, graph: FactorGraph):
        potentials = graph.potentials
        count, width = len(potentials), max((len(p.scope) for p in potentials), default=0)
        # Per potential and axis, zero past its last: the variable, and the
        # row-major stride (the product of the axis lengths past the axis).
        pads = [(0,) * (width - n) for n in range(width + 1)]
        strides_of = {}
        for shape in {p.values.shape for p in potentials}:
            past = accumulate(reversed(shape[1:]), mul, initial=1)
            strides_of[shape] = (*reversed(list(past)), *pads[len(shape)])
        self.variables = np.fromiter(chain.from_iterable(
            p.scope + pads[len(p.scope)] for p in potentials), np.intp, count * width)
        self.variables = self.variables.reshape(count, width)
        self.strides = np.fromiter(chain.from_iterable(
            strides_of[p.values.shape] for p in potentials), np.intp, count * width)
        self.strides = self.strides.reshape(count, width)
        self.base = np.fromiter(accumulate((p.values.size for p in potentials), initial=0),
                                np.intp, count)
        self.values = graph.flat

    def __call__(self, states: Sequence[int]) -> float:
        if not self.base.size:
            return 0.0
        x = np.asarray(states, dtype=np.intp)
        entries = self.values[self.base + (x[self.variables] * self.strides).sum(axis=1)]
        return 0.0 + np.add.accumulate(entries)[-1].item()


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

    A passed ``beliefs`` warm-starts belief mode; message mode raises
    ``ValueError`` for one.  Returns the trace, final state and decoded
    assignment; the returned tables (and those of a passed ``beliefs``) are
    views into one flat array shared by all tables.

    Raises :class:`InvalidModelError` when ``validate(graph)`` reports a
    problem or a passed table has the wrong shape or a non-finite entry,
    and :class:`CoverageError` when a support cluster has no table.
    """
    _check_model(graph)
    if beliefs is not None and mode == "messages":
        raise ValueError("message mode takes no beliefs warm start")
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
    pursuit_round: int = 0,
    start_time: float | None = None,
    sweep_offset: int = 0,
    sweep: _Sweep | None = None,
    primal: _Primal | None = None,
) -> RunResult:
    """:func:`run` on a graph already checked by :func:`_check_model`.

    Pursuit re-enters here once per round with its warm state (``beliefs``
    or ``messages``), ``params`` with its round budget as ``max_sweeps``,
    the start time and sweep count that keep the trace cumulative across
    rounds, its :class:`_Primal` and, in belief mode, the :class:`_Sweep`
    it keeps across rounds, already grown to ``spec`` over ``beliefs``.
    """
    if params is None:
        params = SolverParams()
    if mode not in ("beliefs", "messages"):
        raise ValueError(f"unknown mode {mode!r}")
    t0 = time.perf_counter() if start_time is None else start_time

    if mode == "beliefs":
        if sweep is None:
            state = beliefs if beliefs is not None else init_beliefs(graph, spec)
            sweep = _Sweep(spec, state, graph.cardinalities)
        state, store = sweep.state, sweep.store
        drops = _Drops(list(chain.from_iterable(sweep.steps)))
    else:
        ctx = _MessageContext(graph, spec)
        if messages is None:
            messages = init_messages(spec, graph.cardinalities)
        _check_support(ctx.theta, graph.clusters)
        state = ctx.beliefs(messages)
        store = _Store(state, graph.cardinalities)
        store.bind(state, list(store.where))
        drops = _Drops([])  # a message sweep reports no block drop
        drops.calls.append(partial(_message_sweep, messages, ctx, store))

    trace = DualTrace()
    min_drop = float("inf")
    truncated = False
    converged = False
    primal = _Primal(graph) if primal is None else primal
    # Decoding once up front reports a variable in no table before any sweep.
    x = store.states(graph.num_vars)
    g_prev = store.dual()
    for sweep in range(1, params.max_sweeps + 1):
        for step in drops.calls:
            step()
        min_drop = min(min_drop, drops())
        g = store.dual()
        x = store.states(graph.num_vars)
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
    """Static structure of message-mode updates over ``tables``, by default
    the whole support: the sweep order, who sends to whom, each table's
    shape and potential table (zero if absent), and the embed index and max
    axes of each edge out of a table.  It holds neither the graph nor the
    spec."""

    def __init__(self, graph: FactorGraph, spec: RelaxationSpec,
                 tables: Sequence[Cluster] | None = None):
        self.order = spec.extended_clusters
        self.support = spec.support if tables is None else tables
        self.shape = {t: table_shape(t, graph.cardinalities) for t in self.support}
        self.theta: dict[Cluster, np.ndarray] = {}
        for t in self.support:
            p = graph._by_scope.get(t)
            self.theta[t] = p.values if p is not None else np.zeros(self.shape[t])
        self.senders = spec._senders
        # Per table, each proper sub with its embed index and max axes.
        self.outgoing: dict[Cluster, list[tuple[Cluster, tuple, tuple[int, ...]]]] = {
            c: [(s, _embed_index(s, c), _max_axes(s, c)) for s in spec.proper_subs_of(c)]
            for c in self.support
        }

    def incoming_sum(self, msgs: Messages, t: Cluster) -> np.ndarray:
        total = np.zeros(self.shape[t])
        for c in self.senders[t]:
            total += msgs[(c, t)]
        return total

    def outgoing_sum(self, msgs: Messages, t: Cluster) -> np.ndarray:
        """Outgoing messages of ``t`` embedded and summed over ``t``'s scope."""
        total = np.zeros(self.shape[t])
        for s, embed, _ in self.outgoing.get(t, ()):
            total += msgs[(t, s)][embed]
        return total

    def belief(self, msgs: Messages, t: Cluster) -> np.ndarray:
        return self.theta[t] + self.incoming_sum(msgs, t) - self.outgoing_sum(msgs, t)

    def beliefs(self, msgs: Messages) -> BeliefState:
        return {t: self.belief(msgs, t) for t in self.support}


def update_cluster_messages(
    messages: Messages, graph: FactorGraph, spec: RelaxationSpec, c: Cluster
) -> None:
    """One block update of all messages out of ``c`` (closed form), with a
    message context over the tables it reads, ``c`` and its proper subs,
    built per call; the sender index is the one cached on ``spec``."""
    _update_messages(messages, _MessageContext(graph, spec, (c, *spec.proper_subs_of(c))), c)


def _update_messages(msgs: Messages, ctx: _MessageContext, c: Cluster) -> None:
    subs = ctx.outgoing.get(c, ())
    if not subs:
        return
    bracket = ctx.theta[c] + ctx.incoming_sum(msgs, c)
    pieces = []
    for s, embed, _ in subs:
        piece = (
            ctx.theta[s]
            - ctx.outgoing_sum(msgs, s)
            + ctx.incoming_sum(msgs, s)
            - msgs[(c, s)]
        )
        pieces.append(piece)
        bracket = bracket + piece[embed]
    inv = 1.0 / len(subs)
    for (s, _, axes), piece in zip(subs, pieces):
        msgs[(c, s)] = bracket.max(axis=axes) * inv - piece


def _message_sweep(msgs: Messages, ctx: _MessageContext, store: _Store) -> None:
    """Message mode's whole sweep as one step: every extended cluster in
    insertion order, then the beliefs rebuilt into the store."""
    for c in ctx.order:
        _update_messages(msgs, ctx, c)
    for t, v in ctx.beliefs(msgs).items():
        store.view(t)[...] = v


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
