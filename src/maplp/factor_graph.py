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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Iterable, Sequence

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
    return tuple(cardinalities[i] for i in cluster)


def table_cells(cluster: Cluster, cardinalities: Sequence[int]) -> int:
    n = 1
    for i in cluster:
        n *= cardinalities[i]
    return n


@dataclass
class PotentialTable:
    """A log-potential over a cluster scope.

    ``values`` has one axis per scope variable, in sorted-scope order.  When a
    table cannot be shaped (size mismatch, to be reported by ``validate``) the
    raw 1-D array is kept instead.
    """

    scope: Cluster
    values: np.ndarray


class FactorGraph:
    """A collection of variables with cardinalities and log-potential tables.

    Duplicate cluster scopes are merged at construction by summing their
    tables, which preserves the total energy; tables of different shapes on
    one scope are kept apart, and ``validate`` reports the duplicate.
    Unsorted input scopes are sorted and their tables transposed to match.
    Tables are copied on the way in and made read-only; treat instances as
    immutable once built.
    """

    def __init__(
        self,
        cardinalities: Sequence[int],
        clusters: Iterable[Iterable[int]],
        potentials: Iterable[np.ndarray],
    ):
        self.cardinalities: tuple[int, ...] = tuple(int(k) for k in cardinalities)
        self.num_vars: int = len(self.cardinalities)

        tables: list[PotentialTable] = []
        by_scope: dict[Cluster, PotentialTable] = {}
        for scope_in, values_in in zip(clusters, potentials, strict=True):
            raw = tuple(int(v) for v in scope_in)
            perm = tuple(int(p) for p in np.argsort(raw, kind="stable"))
            scope = tuple(raw[p] for p in perm)
            # A copy: the graph neither aliases nor freezes the caller's array.
            values = np.array(values_in, dtype=np.float64)
            if self._scope_ok(scope) and values.size == table_cells(scope, self.cardinalities):
                # Incoming entries are row-major over the scope as given;
                # permute axes so storage follows the sorted scope.
                shaped = values.reshape(table_shape(raw, self.cardinalities))
                values = np.ascontiguousarray(shaped.transpose(perm))
            prev = by_scope.get(scope)
            if prev is not None and prev.values.shape == values.shape:
                prev.values = prev.values + values
            else:
                # A table that cannot be summed with an earlier one on the
                # same scope is kept apart, for ``validate`` to report.
                table = PotentialTable(scope, values)
                by_scope.setdefault(scope, table)
                tables.append(table)
        for table in tables:
            table.values.flags.writeable = False
        self.potentials: tuple[PotentialTable, ...] = tuple(tables)
        self._by_scope: dict[Cluster, PotentialTable] = by_scope

    def _scope_ok(self, scope: Cluster) -> bool:
        if not scope:
            return False
        if any(v < 0 or v >= self.num_vars for v in scope):
            return False
        return all(a < b for a, b in zip(scope, scope[1:]))

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
        if isinstance(s, bool) or not isinstance(s, Integral):
            raise InvalidAssignmentError(f"state {s!r} for variable {i} is not an integer")
        if not 0 <= s < k:
            raise InvalidAssignmentError(f"state {s} out of range for variable {i}")
    total = 0.0
    for p in graph.potentials:
        total += float(p.values[tuple(x[v] for v in p.scope)])
    return total


def validate(graph: FactorGraph) -> list[str]:
    """Check all FactorGraph invariants; returns one message per violation."""
    problems: list[str] = []
    if any(k < 1 for k in graph.cardinalities):
        problems.append("cardinalities must all be >= 1")
    seen: set[Cluster] = set()
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
            problems.append(
                f"cluster {i} {scope}: table size {p.values.size}, expected {want}"
            )
            continue
        if not np.all(np.isfinite(p.values)):
            problems.append(f"cluster {i} {scope}: non-finite table entries")
    return problems


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
