"""Discrete factor-graph models with higher-order log-potentials.

Conventions used across the package:

* Variables are indexed ``0 .. num_vars - 1`` internally (displayed 1-based
  where humans read them, e.g. diagram dumps).
* A cluster is a sorted tuple of distinct variable indices.
* Potential tables live in the log domain (values are added, never
  exponentiated) and are stored as dense ``float64`` arrays whose axes follow
  the sorted cluster scope.  The flattened (C-order) view of a table is
  therefore row-major over the sorted scope, which is the indexing convention
  used by the file formats as well.
* A graph converts each input table once to ``float64`` (transposing only
  those whose scope was given unsorted) and copies all of them together
  into one read-only array, :attr:`FactorGraph.flat`; the tables are views
  of it, made one reshape per run of equal shapes.  Checks over every
  entry, such as finiteness for :func:`validate`, make one pass over that
  array and search the single tables only on failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, groupby
from math import prod
from numbers import Integral
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

Cluster = tuple[int, ...]
Assignment = tuple[int, ...]

_MASK64 = (1 << 64) - 1


class InvalidAssignmentError(ValueError):
    """An assignment has the wrong length or a non-integer or out-of-range
    state."""


class EnumerationCapError(ValueError):
    """A requested exhaustive operation exceeds its configured cap."""


class InvalidModelError(ValueError):
    """A model or a table handed to the solver breaks its invariants."""


def table_shape(cluster: Cluster, cardinalities: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(cardinalities.__getitem__, cluster))


def table_cells(cluster: Cluster, cardinalities: Sequence[int]) -> int:
    n = 1
    for i in cluster:
        n *= cardinalities[i]
    return n


def views(buf: np.ndarray, shapes: Iterable[tuple[int, ...]]) -> Iterator[np.ndarray]:
    """Consecutive views of ``buf``, one per shape, from its start; each run
    of one shape is one reshape, whose rows are the views.  A generator, so
    that a caller replacing tables frees each old one as it takes a view."""
    start = 0
    for shape, run in groupby(shapes):
        n, size = len(list(run)), prod(shape)
        rows = buf[start:start + n * size].reshape(n, *shape)
        yield from rows if shape else (rows[r, ...] for r in range(n))
        start += n * size


def _integral(kind: type) -> bool:
    """Integers, numpy integers included, and not bools."""
    return kind is not bool and issubclass(kind, Integral)


def _scope(cluster: Iterable[int]) -> tuple:
    try:
        return tuple(cluster)
    except TypeError:
        raise InvalidModelError(f"cluster {cluster!r} is not a sequence of "
                                "variable indices") from None


@dataclass
class PotentialTable:
    """A log-potential over a cluster scope.

    ``values`` has one axis per scope variable, in sorted-scope order.  When a
    table cannot be shaped (bad scope or size mismatch, to be reported by
    ``validate``) it keeps the shape it was given in.
    """

    scope: Cluster
    values: np.ndarray


class FactorGraph:
    """A collection of variables with cardinalities and log-potential tables.

    Duplicate cluster scopes are merged at construction by summing their
    tables in input order, which preserves the total energy; tables of
    different shapes on one scope are kept apart, and ``validate`` reports
    the duplicate.  Unsorted input scopes are sorted and their tables
    transposed to match.  Tables are copied into one read-only array,
    :attr:`flat`, in potential order, and each ``values`` is a view of it;
    treat instances as immutable once built.

    Variable indices and cardinalities must be integers (numpy integers
    included, bools not), every cluster needs a table and every table must
    hold numbers; anything else raises :class:`InvalidModelError`.
    """

    def __init__(
        self,
        cardinalities: Sequence[int],
        clusters: Iterable[Iterable[int]],
        potentials: Iterable[np.ndarray],
    ):
        cards = tuple(cardinalities)
        for i, k in enumerate(cards):
            if not _integral(type(k)):
                raise InvalidModelError(f"cardinality {k!r} of variable {i} is not an integer")
        self.cardinalities: tuple[int, ...] = tuple(map(int, cards))
        self.num_vars: int = len(cards)
        cards = self.cardinalities
        scopes, tables = list(map(_scope, clusters)), list(potentials)
        if len(scopes) != len(tables):
            raise InvalidModelError(f"{len(scopes)} clusters but {len(tables)} tables")
        # One test per type of index met, and a search only on failure.
        kinds = set(map(type, chain.from_iterable(scopes)))
        if not all(map(_integral, kinds)):
            i, raw = next((i, c) for i, c in enumerate(scopes)
                          if not all(_integral(type(v)) for v in c))
            raise InvalidModelError(f"cluster {i} {raw!r}: variable indices must be integers")
        if kinds - {int}:
            scopes = [tuple(map(int, c)) for c in scopes]

        kept: dict[Cluster, int] = {}  # scope -> its first table's position
        kept_scopes: list[Cluster] = []
        arrays: list[np.ndarray] = []
        shapes: list[tuple[int, ...]] = []
        # For ``validate``: (potential, message, whether its entries go unchecked).
        problems: list[tuple[int, str, bool]] = []
        if any(k < 1 for k in cards):
            problems.append((-1, "cardinalities must all be >= 1", False))
        for i, (raw, table) in enumerate(zip(scopes, tables)):
            try:
                values = np.asarray(table, dtype=np.float64)
            except (TypeError, ValueError) as err:
                raise InvalidModelError(f"cluster {i} {raw}: table entries are not "
                                        f"numbers ({err})") from None
            scope = tuple(sorted(raw))
            # A table on a bad scope, or of the wrong size, keeps its input
            # shape, for ``validate`` to report.
            n, shape, problem, size = len(arrays), values.shape, None, None
            if not scope:
                problem = f"cluster {n}: empty scope"
            elif scope[0] < 0 or scope[-1] >= len(cards):
                problem = f"cluster {n}: index out of range in {scope}"
            elif len(set(scope)) != len(scope):
                problem = f"cluster {n}: scope not strictly ascending"
            else:
                want = tuple(map(cards.__getitem__, scope))
                if values.size != prod(want):
                    size = f"cluster {n} {scope}: table size {values.size}, expected {prod(want)}"
                else:
                    shape = want
                    if scope != raw:
                        # Incoming entries are row-major over the scope as
                        # given; permute axes so storage follows the sorted
                        # scope.
                        perm = sorted(range(len(raw)), key=raw.__getitem__)
                        values = values.reshape(table_shape(raw, cards)).transpose(perm)
            j = kept.get(scope)
            if j is not None and shapes[j] == shape:
                arrays[j] = arrays[j].reshape(shape) + values.reshape(shape)
            else:
                # A table that cannot be summed with an earlier one on the
                # same scope is kept apart, for ``validate`` to report.
                if problem is None and j is not None:
                    problems.append((n, f"cluster {n}: duplicate cluster set {scope}", False))
                if problem or size:
                    problems.append((n, problem or size, True))
                kept.setdefault(scope, n)
                kept_scopes.append(scope)
                arrays.append(values)
                shapes.append(shape)
        # A copy: the graph neither aliases nor freezes the caller's arrays.
        self.flat: np.ndarray = np.concatenate([np.zeros(0), *arrays], axis=None)
        self.flat.flags.writeable = False
        self.potentials: tuple[PotentialTable, ...] = tuple(
            map(PotentialTable, kept_scopes, views(self.flat, shapes)))
        self._by_scope: dict[Cluster, PotentialTable] = {
            scope: self.potentials[j] for scope, j in kept.items()}
        # One pass over every entry; tables are searched only on failure.
        if not np.isfinite(self.flat).all():
            skipped = {i for i, _, skips in problems if skips}
            problems += [(i, f"cluster {i} {p.scope}: non-finite table entries", False)
                         for i, p in enumerate(self.potentials)
                         if i not in skipped and not np.isfinite(p.values).all()]
            problems.sort(key=itemgetter(0))
        self._problems = [message for _, message, _ in problems]

    @property
    def clusters(self) -> tuple[Cluster, ...]:
        return tuple(p.scope for p in self.potentials)

    def potential(self, cluster: Cluster) -> np.ndarray:
        return self._by_scope[cluster].values

    def state_space_size(self) -> int:
        n = 1
        for k in self.cardinalities:
            n *= k
        return n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FactorGraph(num_vars={self.num_vars}, "
            f"num_clusters={len(self.potentials)})"
        )


def energy(graph: FactorGraph, x: Sequence[int]) -> float:
    """Total log-potential of a full assignment: the sum of table lookups.
    States must be integers (numpy integers included, bools not)."""
    if len(x) != graph.num_vars:
        raise InvalidAssignmentError(
            f"assignment has {len(x)} states for {graph.num_vars} variables"
        )
    for i, (s, k) in enumerate(zip(x, graph.cardinalities)):
        if not _integral(type(s)):
            raise InvalidAssignmentError(f"state {s!r} for variable {i} is not an integer")
        if not 0 <= s < k:
            raise InvalidAssignmentError(f"state {s} out of range for variable {i}")
    total = 0.0
    for p in graph.potentials:
        total += float(p.values[tuple(x[v] for v in p.scope)])
    return total


def validate(graph: FactorGraph) -> list[str]:
    """Check all FactorGraph invariants; returns one message per violation,
    as the graph found them when it was built."""
    return list(graph._problems)


# ---------------------------------------------------------------------------
# Seeded pseudo-random generation
# ---------------------------------------------------------------------------


def _splitmix64(seed: int) -> int:
    z = (seed + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class XorShift64Star:
    """Deterministic 64-bit xorshift* generator (Marsaglia 2003 family).

    The state is initialised by one splitmix64 scramble of the seed so that
    small seeds (including 0) give well-mixed nonzero states.  One step is

        s ^= s >> 12;  s ^= s << 25;  s ^= s >> 27;
        output = (s * 0x2545F4914F6CDD1D) mod 2**64

    Uniform doubles are ``(top53bits + 0.5) / 2**53`` (never exactly 0 or 1)
    and normals come from the Box-Muller transform, consumed in pairs.  This
    generator is specified here, rather than delegated to numpy, so that
    generated instances are bit-identical across platforms and library
    versions.
    """

    def __init__(self, seed: int):
        state = _splitmix64(int(seed) & _MASK64)
        self._state = state if state != 0 else 0x9E3779B97F4A7C15
        self._spare: float | None = None

    def next_u64(self) -> int:
        s = self._state
        s ^= s >> 12
        s ^= (s << 25) & _MASK64
        s ^= s >> 27
        self._state = s
        return (s * 0x2545F4914F6CDD1D) & _MASK64

    def uniform(self) -> float:
        return ((self.next_u64() >> 11) + 0.5) / 9007199254740992.0

    def normal(self) -> float:
        if self._spare is not None:
            z, self._spare = self._spare, None
            return z
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def normals(self, n: int) -> np.ndarray:
        return np.array([self.normal() for _ in range(n)], dtype=np.float64)


def random_grid(width: int, height: int, states: int, seed: int) -> FactorGraph:
    """Seeded grid instance: node, edge and unit-square potentials.

    Pixel ``(row, col)`` is variable ``row * width + col``.  Clusters are
    emitted in a fixed documented order -- all nodes row-major, horizontal
    edges row-major, vertical edges row-major, then one 4-clique per unit
    square row-major -- and every table entry is an independent standard
    normal drawn in that same order from :class:`XorShift64Star`, so equal
    ``(width, height, states, seed)`` always rebuild the identical graph.
    """
    if width < 2 or height < 2:
        raise ValueError("grid must be at least 2x2")
    if states < 2:
        raise ValueError("grid variables need at least 2 states")
    rng = XorShift64Star(seed)
    n = width * height
    cards = [states] * n
    clusters: list[Cluster] = []
    tables: list[np.ndarray] = []

    def add(scope: tuple[int, ...]) -> None:
        clusters.append(scope)
        size = states ** len(scope)
        tables.append(rng.normals(size).reshape((states,) * len(scope)))

    for v in range(n):
        add((v,))
    for r in range(height):
        for c in range(width - 1):
            v = r * width + c
            add((v, v + 1))
    for r in range(height - 1):
        for c in range(width):
            v = r * width + c
            add((v, v + width))
    for r in range(height - 1):
        for c in range(width - 1):
            v = r * width + c
            add((v, v + 1, v + width, v + width + 1))
    return FactorGraph(cards, clusters, tables)
