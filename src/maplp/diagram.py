"""Marginal polytope diagrams and the constraint-reduction calculus.

A diagram is a directed graph over variable subsets.  Each edge ``(c -> s)``
with ``s`` a subset of ``c`` stands for one block of marginalisation
constraints; self-edges ``(c -> c)`` are representable (some relaxations
carry them) but their constraints are vacuous, so they are ignored by the
equivalence machinery and never rewired.

Edge equivalence.  The senders of a target ``t`` are the nodes that
strictly contain it.  An existing edge ``(c -> s)`` with ``t`` strictly below
``s`` makes the long edge ``(c -> t)`` and the short edge ``(s -> t)``
interchangeable, so the classes of ``t`` are the connected components of the
non-self edges between its senders.  The paper's second rule (two receivers
of one sender are interchangeable) is implied: both receivers are joined to
that sender.  A diagram indexes its edges by node and its nodes by variable
on first use, so classifying one target costs the nodes that hold its
smallest variable and the edges between them, not the whole diagram.

Two reductions are provided, both polytope-preserving:

* ``reduce_edges`` keeps one representative per equivalence class of edges
  into each target.
* ``remove_node`` deletes a redundant non-anchor node and splices every
  incoming/outgoing edge pair into a direct edge.

Redundancy detection is sound but deliberately incomplete: a non-anchor node
is reported when it has incoming (non-self) edges and they all fall into one
equivalence class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import lt

from .factor_graph import Cluster
from .relaxations import RelaxationSpec, _incidence


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

    @cached_property
    def _links(self) -> dict[Cluster, tuple[list[Cluster], list[Cluster]]]:
        """Node -> (sources of its non-self in-edges, targets of its non-self
        out-edges), each sorted."""
        links: dict = {v: ([], []) for v in self.nodes}
        for c, s in sorted(self.edges):
            if c != s:
                links[s][0].append(c)
                links[c][1].append(s)
        return links

    @cached_property
    def _holders(self) -> dict[int, list[Cluster]]:
        """Variable -> the nodes that hold it."""
        return _incidence(self.nodes)

    def incoming(self, t: Cluster) -> list[Cluster]:
        """Sources of the non-self edges into ``t``, sorted."""
        return list(self._links.get(t, ((), ()))[0])

    def outgoing(self, c: Cluster) -> list[Cluster]:
        """Targets of the non-self edges out of ``c``, sorted."""
        return list(self._links.get(c, ((), ()))[1])


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
    their sub-clusters.  Nodes that only receive stay receive-only; nodes
    with no edge at all become extended clusters with no sub-clusters, as
    ``dd_spec`` keeps its singletons, so that the support keeps them."""
    subs: dict[Cluster, set[Cluster]] = {}
    for c, s in diagram.edges:
        subs.setdefault(c, set()).add(s)
    targets = {s for _, s in diagram.edges}
    for t in diagram.nodes - targets - subs.keys():
        subs[t] = set()
    ext = sorted(subs, key=lambda c: (len(c), c))
    return RelaxationSpec(tuple(ext), {c: tuple(ss) for c, ss in subs.items()})


# ---------------------------------------------------------------------------
# Edge equivalence
# ---------------------------------------------------------------------------


def _classes_for_target(diagram: PolytopeDiagram, t: Cluster) -> tuple[frozenset[Cluster], ...]:
    """The connected components of the non-self edges among ``t``'s senders,
    listed by their smallest member."""
    ts = set(t)
    if t:
        left = {v for v in diagram._holders[t[0]] if len(v) > len(t) and ts.issubset(v)}
    else:
        left = set(diagram.nodes) - {t}
    classes = []
    while left:
        stack = [left.pop()]
        group = set(stack)
        while stack:
            for w in chain(*diagram._links[stack.pop()]):
                if w in left:
                    left.remove(w)
                    group.add(w)
                    stack.append(w)
        classes.append(frozenset(group))
    return tuple(sorted(classes, key=min))


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
    inc = set(diagram.incoming(v))
    return bool(inc) and any(inc <= group for group in _classes_for_target(diagram, v))


def redundant_nodes(diagram: PolytopeDiagram) -> set[Cluster]:
    """Non-anchor nodes whose removal provably keeps the polytope: all their
    (non-self) incoming edges, one or more, in one equivalence class.  Nodes
    with no incoming edges are not reported; with two or more receive-only
    constraints removed, mass-consistency between the receivers would be
    lost."""
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
        inc = set(diagram.incoming(t))
        if not inc:
            continue
        for group in _classes_for_target(diagram, t):
            present = inc & group
            if present:
                keep.add((min(present, key=lambda c: (len(c), c)), t))
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
