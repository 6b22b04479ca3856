"""Primal multigraph, middle graph, and dual hypergraph constructions.

All metric computation in this package routes through middle-graph
adjacency, so loops and parallel edges only ever live in the Multigraph
type; they are never fed to the solvers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import Hypergraph, Label


@dataclass(frozen=True)
class Multigraph:
    """Clique expansion of a hypergraph: one unordered pair per vertex pair
    per shared hyperedge, loops for size-one edges, parallels permitted."""

    labels: tuple[Label, ...]
    pairs: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.labels)


def primal_graph(H: Hypergraph) -> Multigraph:
    pairs: list[tuple[int, int]] = []
    for edge in H.edges:
        members = sorted(edge)
        if len(members) == 1:
            pairs.append((members[0], members[0]))
        else:
            pairs.extend(itertools.combinations(members, 2))
    return Multigraph(H.labels, tuple(pairs))


def middle_graph(H: Hypergraph) -> Hypergraph:
    """Simple graph on the same vertices: adjacency iff two distinct
    vertices share some hyperedge. Vertices covered only by size-one edges
    become isolated; that is reported by connectivity, not rejected."""
    adjacent: set[tuple[int, int]] = set()
    for edge in H.edges:
        adjacent.update(itertools.combinations(sorted(edge), 2))
    return Hypergraph(
        H.labels, tuple(frozenset(pair) for pair in sorted(adjacent))
    )


def dual(H: Hypergraph) -> Hypergraph:
    """Swap vertices and hyperedges: one dual vertex per original edge, one
    dual edge per original vertex collecting the edges containing it.

    Built without the Sperner gate: duals routinely repeat and nest edges.
    Edge order follows the vertex order of H; dual vertex labels are
    e1..ek by original edge position.
    """
    labels = tuple(f"e{j + 1}" for j in range(H.k))
    return Hypergraph(labels, tuple(map(frozenset, H.incidence)))
