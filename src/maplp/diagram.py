"""Marginal polytope diagrams and the constraint-reduction calculus.

A diagram is a directed graph over variable subsets.  Each edge ``(c -> s)``
with ``s`` a subset of ``c`` stands for one block of marginalisation
constraints; self-edges ``(c -> c)`` are representable (some relaxations
carry them) but their constraints are vacuous, so they are ignored by the
equivalence machinery and never rewired.

Two reductions are provided, both polytope-preserving:

* ``reduce_edges`` keeps one representative per equivalence class of edges
  into each target, where equivalence is the transitive closure of two
  structural rules (a sender reachable through an intermediate subset, and
  two receivers of a common sender).
* ``remove_node`` deletes a redundant non-anchor node and splices every
  incoming/outgoing edge pair into a direct edge.

Redundancy detection is sound but deliberately incomplete: a non-anchor node
is reported when it has exactly one (non-self) incoming edge, or when all its
incoming edges fall into a single equivalence class.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lt

from .factor_graph import Cluster
from .relaxations import RelaxationSpec


class DiagramError(ValueError):
    """A diagram, or an operation on one, violates its invariants."""


Edge = tuple[Cluster, Cluster]


def _is_cluster(t: object) -> bool:
    """A strictly increasing tuple of non-negative Python ints; bools and numpy
    integers are not ints here, as every cluster the package builds holds
    plain ints."""
    return (
        isinstance(t, tuple)
        and set(map(type, t)) <= {int}
        and all(map(lt, t, t[1:]))
        and (not t or t[0] >= 0)
    )


@dataclass(frozen=True)
class PolytopeDiagram:
    """Nodes are clusters, edges ``(source, target)`` pairs of nodes.

    Raises ``DiagramError`` for a node that is not a strictly increasing
    tuple of non-negative ints, an edge naming a missing node or with a
    target that is not a subset of its source, and an anchor that is not a
    node.
    """

    nodes: frozenset[Cluster]
    edges: frozenset[Edge]
    anchor_clusters: frozenset[Cluster] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "edges", frozenset(self.edges))
        object.__setattr__(self, "anchor_clusters", frozenset(self.anchor_clusters))
        for t in self.nodes:
            if not _is_cluster(t):
                raise DiagramError(
                    f"node {t!r} is not a strictly increasing tuple of non-negative ints"
                )
        for c, s in self.edges:
            if c not in self.nodes or s not in self.nodes:
                raise DiagramError(f"edge {c}->{s} references a missing node")
            if not set(s) <= set(c):
                raise DiagramError(f"edge {c}->{s}: target is not a subset of source")
        if not self.anchor_clusters <= self.nodes:
            raise DiagramError("anchor clusters must be diagram nodes")

    def incoming(self, t: Cluster) -> list[Cluster]:
        """Sources of the non-self edges into ``t``, sorted."""
        return sorted(c for c, s in self.edges if s == t and c != t)

    def outgoing(self, c: Cluster) -> list[Cluster]:
        """Targets of the non-self edges out of ``c``, sorted."""
        return sorted(s for cc, s in self.edges if cc == c and s != c)


def diagram_from_relaxation(
    spec: RelaxationSpec, anchors: tuple[Cluster, ...] = ()
) -> PolytopeDiagram:
    """Nodes are the relaxation's support; one edge per (cluster, sub) pair.

    ``anchors`` records the original cluster set, which redundancy detection
    needs; conversions themselves do not use it.
    """
    nodes = set(spec.support)
    edges = set()
    for c in spec.extended_clusters:
        for s in spec.subs_of(c):
            edges.add((c, s))
    missing = set(anchors) - nodes
    if missing:
        raise DiagramError(f"anchor clusters {sorted(missing)} not covered by the relaxation")
    return PolytopeDiagram(frozenset(nodes), frozenset(edges), frozenset(anchors))


def relaxation_from_diagram(diagram: PolytopeDiagram) -> RelaxationSpec:
    """Inverse conversion: senders become extended clusters, edge targets
    their sub-clusters.  Nodes without outgoing edges are receive-only."""
    subs: dict[Cluster, set[Cluster]] = {}
    for c, s in diagram.edges:
        subs.setdefault(c, set()).add(s)
    ext = sorted(subs, key=lambda c: (len(c), c))
    return RelaxationSpec(tuple(ext), {c: tuple(ss) for c, ss in subs.items()})


# ---------------------------------------------------------------------------
# Edge equivalence
# ---------------------------------------------------------------------------


class _UnionFind:
    def __init__(self):
        self.parent: dict[Cluster, Cluster] = {}

    def add(self, x: Cluster) -> None:
        self.parent.setdefault(x, x)

    def find(self, x: Cluster) -> Cluster:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: Cluster, b: Cluster) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _classes_for_target(diagram: PolytopeDiagram, t: Cluster) -> tuple[frozenset[Cluster], ...]:
    ts = set(t)
    senders = [v for v in diagram.nodes if ts < set(v)]
    uf = _UnionFind()
    for v in senders:
        uf.add(v)
    # Rule 1: an existing edge (c -> s) with t strictly below s strictly below
    # c makes the long edge (c -> t) and the short edge (s -> t) equivalent.
    for c, s in diagram.edges:
        if c != s and ts < set(s) and set(s) < set(c):
            uf.union(c, s)
    # Rule 2: two receivers of one sender are equivalent senders for any
    # target strictly below both.
    by_source: dict[Cluster, list[Cluster]] = {}
    for c, s in diagram.edges:
        if c != s and ts < set(s):
            by_source.setdefault(c, []).append(s)
    for receivers in by_source.values():
        for other in receivers[1:]:
            uf.union(receivers[0], other)
    groups: dict[Cluster, set[Cluster]] = {}
    for v in senders:
        groups.setdefault(uf.find(v), set()).add(v)
    ordered = sorted(groups.values(), key=lambda g: min(g))
    return tuple(frozenset(g) for g in ordered)


def equivalent_edge_classes(
    diagram: PolytopeDiagram, targets: set[Cluster] | None = None
) -> dict[Cluster, tuple[frozenset[Cluster], ...]]:
    """Per target node: a partition of all candidate senders (every node that
    strictly contains the target) into equivalence classes.  Edges present in
    the diagram and merely candidate edges are classified alike.

    Self-edges are vacuous constraints and are excluded from classification.
    """
    if targets is None:
        targets = set(diagram.nodes)
    out: dict[Cluster, tuple[frozenset[Cluster], ...]] = {}
    for t in targets:
        if t not in diagram.nodes:
            raise DiagramError(f"target {t} is not a diagram node")
        out[t] = _classes_for_target(diagram, t)
    return out


# ---------------------------------------------------------------------------
# Redundant nodes and reductions
# ---------------------------------------------------------------------------


def _is_redundant(diagram: PolytopeDiagram, v: Cluster) -> bool:
    """The one redundancy test, shared by :func:`redundant_nodes` and
    :func:`remove_node`."""
    if v in diagram.anchor_clusters:
        return False
    inc = diagram.incoming(v)
    if len(inc) <= 1:
        return len(inc) == 1
    return any(set(inc) <= group for group in _classes_for_target(diagram, v))


def redundant_nodes(diagram: PolytopeDiagram) -> set[Cluster]:
    """Non-anchor nodes whose removal provably keeps the polytope: a single
    (non-self) incoming edge, or all incoming edges in one equivalence class.
    Nodes with no incoming edges are not reported; with two or more
    receive-only constraints removed, mass-consistency between the receivers
    would be lost."""
    return {v for v in diagram.nodes if _is_redundant(diagram, v)}


def remove_node(diagram: PolytopeDiagram, v: Cluster) -> PolytopeDiagram:
    """Delete a certified-redundant node, splicing paths through it.

    Refuses anchors and nodes :func:`redundant_nodes` would not report;
    silently loosening the polytope is the one unacceptable failure here.
    """
    if v in diagram.anchor_clusters:
        raise DiagramError(f"node {v} is an anchor cluster and cannot be removed")
    if v not in diagram.nodes:
        raise DiagramError(f"node {v} is not in the diagram")
    if not _is_redundant(diagram, v):
        raise DiagramError(f"node {v} is not certified redundant")
    inc = diagram.incoming(v)
    outg = diagram.outgoing(v)
    edges = {e for e in diagram.edges if v not in e}
    for c in inc:
        for s in outg:
            edges.add((c, s))
    return PolytopeDiagram(
        frozenset(diagram.nodes - {v}), frozenset(edges), diagram.anchor_clusters
    )


def reduce_edges(diagram: PolytopeDiagram) -> PolytopeDiagram:
    """Keep one representative per equivalence class of existing edges into
    each target; self-edges pass through untouched.  The representative is
    the smallest source in canonical (size, lexicographic) order, so the
    cheapest constraint of each class survives."""
    keep: set[Edge] = {(c, s) for c, s in diagram.edges if c == s}
    for t in diagram.nodes:
        inc = diagram.incoming(t)
        if not inc:
            continue
        if len(inc) == 1:
            keep.add((inc[0], t))
            continue
        for group in _classes_for_target(diagram, t):
            present = sorted(set(inc) & group, key=lambda c: (len(c), c))
            if present:
                keep.add((present[0], t))
    return PolytopeDiagram(diagram.nodes, frozenset(keep), diagram.anchor_clusters)


def dump(diagram: PolytopeDiagram) -> str:
    """Plain-text adjacency listing, one ``{vars} -> {vars}`` line per edge.

    Variables are printed 1-based (display convention); ordering is
    deterministic so the output can be used as a golden value.
    """

    def fmt(c: Cluster) -> str:
        return "{" + ",".join(str(v + 1) for v in c) + "}"

    lines = [
        f"{fmt(c)} -> {fmt(s)}"
        for c, s in sorted(diagram.edges, key=lambda e: (len(e[0]), e[0], len(e[1]), e[1]))
    ]
    return "\n".join(lines)
