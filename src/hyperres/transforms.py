"""Primal multigraph, middle graph, and dual hypergraph constructions.

Distances are computed on the hypergraph itself, from the signatures of
the twin classes (``H.twins``, which ``distance_matrix`` and
``eccentricity_and_diameter`` read) and, for ``H.connected``, from
vertex-edge incidence (``H.incidence``); no solver builds the middle
graph, and ``middle_graph`` reads its pairs straight off the edges. So loops and parallel edges only ever live in the
Multigraph type; they are never fed to the solvers.

The CLI's ``transform`` builds no second hypergraph either: it writes
its .hg text straight from id rows, the primal ``pairs``, the sorted
middle pairs of ``_middle_pairs`` and, for the dual, ``H.incidence``.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .core import Hypergraph


class Multigraph(namedtuple("Multigraph", "labels pairs")):
    """Clique expansion of a hypergraph: one unordered pair per vertex pair
    per shared hyperedge, loops for size-one edges, parallels permitted.

    Fields: ``labels`` (the hypergraph's label tuple) and ``pairs`` (a
    tuple of vertex-id pairs)."""

    __slots__ = ()


def primal_graph(H: Hypergraph) -> Multigraph:
    # a size-one edge [a] is taken as [a, a], whose one pair is the loop
    edges = [e if len(e) > 1 else e * 2 for e in map(sorted, H.edges)]
    pairs = map(itertools.combinations, edges, itertools.repeat(2))
    return Multigraph(H.labels, tuple(itertools.chain.from_iterable(pairs)))


def _middle_pairs(H: Hypergraph) -> list[tuple[int, int]]:
    """The pairs (a, b), a < b, that some edge of H holds, in increasing
    order: the distinct ``combinations(sorted(edge), 2)`` over all edges,
    sorted, with no per-vertex adjacency built first."""
    return sorted(set(itertools.chain.from_iterable(
        map(itertools.combinations, map(sorted, H.edges), itertools.repeat(2)))))


def middle_graph(H: Hypergraph) -> Hypergraph:
    """Simple graph on the same vertices: adjacency iff two distinct
    vertices share some hyperedge. Vertices covered only by size-one edges
    become isolated; that is reported by connectivity, not rejected.

    Its edges are ``_middle_pairs(H)``, in that order."""
    return Hypergraph(H.labels, tuple(map(frozenset, _middle_pairs(H))))


def dual(H: Hypergraph) -> Hypergraph:
    """Swap vertices and hyperedges: one dual vertex per original edge, one
    dual edge per original vertex collecting the edges containing it.

    Built without the Sperner gate: duals routinely repeat and nest edges.
    Edge order follows the vertex order of H; dual vertex labels are
    e1..ek by original edge position.
    """
    labels = tuple(f"e{j + 1}" for j in range(H.k))
    return Hypergraph(labels, tuple(map(frozenset, H.incidence)))
