"""Builders for local-marginalisation relaxations of a factor graph.

A relaxation is described by an extended cluster set ``C'`` and, for each
extended cluster ``c``, an ordered set of sub-clusters ``S(c)`` with
``s <= c``.  Each pair ``(c, s)`` stands for the marginalisation constraint
"the table over ``c``, summed down to ``s``, equals the table over ``s``".
The support is every cluster that owns a table: ``C'`` together with all
sub-clusters.  Every builder keeps the original clusters covered, i.e.
``C`` is contained in the support, so the relaxation bounds the original
objective.

The builders that intersect clusters or select sub-clusters (``gmplp``,
``pi-s``, ``mi`` and :func:`intersection_closure`) look clusters up through
a variable -> cluster incidence index, so their work grows with the pairs of
clusters that share a variable, not with all pairs of clusters.  Each such
unordered pair is intersected once, as frozensets built once per cluster:
a cluster meets only the clusters before it, gathered from the index of
those, and a pair in which one cluster holds the other is skipped by size,
since its intersection is the smaller cluster.  Containment queries meet
each indexed cluster once, under its smallest variable.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping

from .factor_graph import Cluster, FactorGraph


class RelaxationError(ValueError):
    """A relaxation specification violates its invariants."""


def _canonical(clusters: Iterable[Cluster]) -> tuple[Cluster, ...]:
    """Distinct clusters by size, then lexicographically (a stable sort by
    size of the lexicographic order)."""
    return tuple(sorted(sorted(set(clusters)), key=len))


@dataclass(frozen=True)
class RelaxationSpec:
    """Extended clusters with their sub-cluster sets.

    ``extended_clusters`` fixes the sweep order of the solver; sub-cluster
    tuples are stored in canonical (size, lexicographic) order.  ``support``
    is derived, never stored in a field: it, its sender index and the
    proper sub-clusters of each extended cluster are computed once per
    spec, outside the fields ``==`` compares; a grown spec
    (:meth:`with_clusters`) extends its parent's proper sub-clusters and
    computes its own support and sender index on first use.  A spec
    carries nothing else: the solver's and the search's round state is
    the pursuit loop's.
    """

    extended_clusters: tuple[Cluster, ...]
    sub_clusters: Mapping[Cluster, tuple[Cluster, ...]] = field(default_factory=dict)

    def __post_init__(self):
        subs = {}
        for c in self.extended_clusters:
            if c in subs:
                raise RelaxationError(f"duplicate extended cluster {c}")
            subs[c] = _checked_subs(c, self.sub_clusters.get(c, ()))
        object.__setattr__(self, "sub_clusters", subs)
        # The proper sub-clusters of the clusters that list themselves; the
        # sub-cluster tuple of every other cluster is its own.
        proper = {c: _proper(c, ss) for c, ss in subs.items() if c in ss}
        object.__setattr__(self, "_proper", proper)

    def subs_of(self, c: Cluster) -> tuple[Cluster, ...]:
        return self.sub_clusters.get(c, ())

    def proper_subs_of(self, c: Cluster) -> tuple[Cluster, ...]:
        """Sub-clusters of ``c`` excluding the vacuous self entry."""
        proper = self._proper.get(c)
        return self.sub_clusters.get(c, ()) if proper is None else proper

    @cached_property
    def support(self) -> tuple[Cluster, ...]:
        seen = set(self.extended_clusters)
        for ss in self.sub_clusters.values():
            seen.update(ss)
        return _canonical(seen)

    @cached_property
    def _senders(self) -> dict[Cluster, list[Cluster]]:
        """Support table -> the extended clusters listing it as a proper
        sub-cluster, in sweep order."""
        senders: dict[Cluster, list[Cluster]] = {t: [] for t in self.support}
        for c in self.extended_clusters:
            for s in self.proper_subs_of(c):
                senders[s].append(c)
        return senders

    def with_clusters(self, additions: Mapping[Cluster, Iterable[Cluster]]) -> "RelaxationSpec":
        """New spec with extra extended clusters (existing ones gain subs).
        Only the added or changed clusters are checked again."""
        ext = list(self.extended_clusters)
        subs = dict(self.sub_clusters)
        proper = dict(self._proper)
        for c, ss in additions.items():
            if c not in subs:
                ext.append(c)
            subs[c] = _checked_subs(c, (*subs.get(c, ()), *ss))
            if c in subs[c]:
                proper[c] = _proper(c, subs[c])
        spec = object.__new__(RelaxationSpec)
        object.__setattr__(spec, "extended_clusters", tuple(ext))
        object.__setattr__(spec, "sub_clusters", subs)
        object.__setattr__(spec, "_proper", proper)
        return spec


def _checked_subs(c: Cluster, ss: Iterable[Cluster]) -> tuple[Cluster, ...]:
    """``ss`` in canonical order, each checked to lie inside ``c``."""
    ss = _canonical(ss)
    cs = set(c)
    for s in ss:
        if not cs.issuperset(s):
            raise RelaxationError(f"sub-cluster {s} is not contained in {c}")
    return ss


def _proper(c: Cluster, ss: tuple[Cluster, ...]) -> tuple[Cluster, ...]:
    return tuple(s for s in ss if s != c)


def covers(spec: RelaxationSpec, graph: FactorGraph) -> bool:
    """True when every original cluster owns a table under this relaxation."""
    return set(graph.clusters) <= set(spec.support)


# ---------------------------------------------------------------------------
# The six builders
# ---------------------------------------------------------------------------


def _incidence(family: Iterable[Cluster]) -> dict[int, list[Cluster]]:
    """Variable -> the members of ``family`` that contain it, in family order."""
    index: dict[int, list[Cluster]] = {}
    for c in family:
        for v in c:
            index.setdefault(v, []).append(c)
    return index


def _firsts(family: Iterable[Cluster]) -> dict[int, list[Cluster]]:
    """Variable -> the members of ``family`` whose smallest variable it is."""
    index: dict[int, list[Cluster]] = {}
    for c in family:
        index.setdefault(c[0], []).append(c)
    return index


def _inside(firsts: Mapping[int, list[Cluster]], c: Cluster) -> list[Cluster]:
    """The indexed members contained in ``c``, ``c`` itself included: each
    is met once, under its smallest variable."""
    cs = set(c)
    return [t for v in c for t in firsts.get(v, ()) if cs.issuperset(t)]


def _meets(family: Iterable[frozenset[int]]) -> set[frozenset[int]]:
    """The intersections of the pairs of members that share a variable and
    are not nested.  Each pair is met once, when the later member is
    reached, through an incidence index of the members before it.  A nested
    pair's intersection is its smaller member; comparing it with the two
    members tells them apart by size alone unless it is one of them."""
    index: dict[int, list[frozenset[int]]] = defaultdict(list)
    out: set[frozenset[int]] = set()
    for a in family:
        earlier: set[frozenset[int]] = set()
        for v in a:
            earlier.update(index[v])
            index[v].append(a)
        for b in earlier:
            s = a & b
            if s != a and s != b:
                out.add(s)
    return out


def _sorted(sets: Iterable[frozenset[int]]) -> set[Cluster]:
    return {tuple(sorted(s)) for s in sets}


def gmplp_spec(graph: FactorGraph) -> RelaxationSpec:
    """Intersection-set relaxation: each cluster sends to every contained
    pairwise intersection, itself included (the self entry is carried but is
    vacuous for the solver)."""
    cset = graph.clusters
    firsts = _firsts(set(cset) | _sorted(_meets(map(frozenset, cset))))
    return RelaxationSpec(cset, {c: _inside(firsts, c) for c in cset})


def dd_spec(graph: FactorGraph) -> RelaxationSpec:
    """Cluster-to-singleton relaxation; singletons receive only."""
    singles = tuple((i,) for i in range(graph.num_vars))
    multis = tuple(c for c in graph.clusters if len(c) > 1)
    subs: dict[Cluster, tuple[Cluster, ...]] = {c: () for c in singles}
    for c in multis:
        subs[c] = tuple((i,) for i in c)
    return RelaxationSpec(singles + multis, subs)


def cycle_spec(graph: FactorGraph) -> RelaxationSpec:
    """Like :func:`dd_spec`, but clusters of size exactly 3 send to their
    three pairs instead of their singletons."""
    singles = tuple((i,) for i in range(graph.num_vars))
    multis = tuple(c for c in graph.clusters if len(c) > 1)
    subs: dict[Cluster, tuple[Cluster, ...]] = {c: () for c in singles}
    for c in multis:
        if len(c) == 3:
            subs[c] = tuple(combinations(c, 2))
        else:
            subs[c] = tuple((i,) for i in c)
    return RelaxationSpec(singles + multis, subs)


def _subsets_of(cluster: Cluster) -> list[Cluster]:
    out = []
    for r in range(1, len(cluster) + 1):
        out.extend(combinations(cluster, r))
    return out


def _subset_family(graph: FactorGraph, max_order: int, caller: str) -> set[Cluster]:
    family: set[Cluster] = set()
    for c in graph.clusters:
        if len(c) > max_order:
            raise RelaxationError(
                f"{caller}: cluster {c} has order {len(c)} > cap {max_order}"
            )
        family.update(_subsets_of(c))
    return family


def powerset_spec(graph: FactorGraph, max_order: int = 6) -> RelaxationSpec:
    """All nonempty subsets of the original clusters, each sending to its
    one-smaller subsets (covers)."""
    family = _subset_family(graph, max_order, "powerset_spec")
    ext = _canonical(family)
    # The family holds every subset of its members; singletons send to none.
    subs = {c: combinations(c, len(c) - 1) for c in ext if len(c) > 1}
    return RelaxationSpec(ext, subs)


def all_subsets_spec(graph: FactorGraph, max_order: int = 6) -> RelaxationSpec:
    """The unreduced baseline: all nonempty subsets of the original clusters,
    each sending to every strict subset.  Reference relaxation for the
    reduction oracles; quadratically larger than :func:`powerset_spec`."""
    family = _subset_family(graph, max_order, "all_subsets_spec")
    ext = _canonical(family)
    subs = {
        c: tuple(s for s in _subsets_of(c) if len(s) < len(c))
        for c in ext
    }
    return RelaxationSpec(ext, subs)


def intersection_closure(clusters: Iterable[Cluster]) -> set[Cluster]:
    """Smallest family containing ``clusters`` closed under pairwise
    intersection (empty intersections dropped).  Worklist fixpoint; the
    lattice of subsets is finite so this terminates.  The given clusters
    meet pairwise once each (see :func:`_meets`); every further member is
    an intersection of given clusters, so each meets only the given
    clusters it shares a variable with."""
    clusters = list(clusters)
    given = [frozenset(c) for c in clusters]
    index = _incidence(given)
    closed = set(given)
    work = [s for s in _meets(given) if s not in closed]
    closed.update(work)
    while work:
        w = work.pop()
        for b in set().union(*map(index.__getitem__, w)):
            s = w & b
            if s not in closed:
                closed.add(s)
                work.append(s)
    return set(clusters) | _sorted(closed)


def pi_system_spec(graph: FactorGraph) -> RelaxationSpec:
    """Intersection-closed family; each member sends to its maximal strict
    subsets within the family (no member strictly between)."""
    ext = _canonical(intersection_closure(graph.clusters))
    firsts = _firsts(ext)
    frozen = {c: frozenset(c) for c in ext}
    subs = {}
    for c in ext:
        # Largest first, ``c`` itself leading: a member inside another
        # member is inside a kept one.
        kept: list[Cluster] = []
        for s in sorted(_inside(firsts, c), key=len, reverse=True)[1:]:
            if not any(frozen[s] < frozen[t] for t in kept):
                kept.append(s)
        subs[c] = kept
    return RelaxationSpec(ext, subs)


def max_intersection_spec(graph: FactorGraph) -> RelaxationSpec:
    """Only maximal clusters send; receivers are the original clusters plus
    pairwise intersections of maximal clusters (strict subsets only)."""
    cset = graph.clusters
    frozen = list(map(frozenset, cset))
    index = _incidence(frozen)
    # A strict superset of c contains c's smallest variable.
    maximal = [(c, fc) for c, fc in zip(cset, frozen) if not any(fc < d for d in index[c[0]])]
    firsts = _firsts(set(cset) | _sorted(_meets(fc for _, fc in maximal)))
    subs = {c: [s for s in _inside(firsts, c) if s != c] for c, _ in maximal}
    return RelaxationSpec(tuple(c for c, _ in maximal), subs)
