"""Hypergraph data model, structural predicates, twin classes, and family
recognition.

All objects here are immutable after construction and safe for concurrent
reads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Sequence

from .errors import (
    CapExceeded,
    Disconnected,
    EmptyEdge,
    EmptyFamily,
    SpernerViolation,
    VertexOutOfRange,
)

if TYPE_CHECKING:
    from .metric import DistanceMatrix

Label = Hashable
Signature = tuple[int, ...]

# Exhaustive family recognition is feasible at desk scale only; beyond this
# many edges the recognizers refuse instead of silently degrading.
DEFAULT_RECOGNITION_CAP = 10
# Branch search enumerates connected edge subsets up to this size.
DEFAULT_BRANCH_CAP = 12


@dataclass(frozen=True)
class Hypergraph:
    """Vertex label table plus an ordered family of hyperedges.

    Vertex ids are positions in ``labels``; each edge is a set of ids.
    ``build_hypergraph`` is the checked constructor for user input and
    guarantees the usual invariants (nonempty family, every vertex covered).
    Direct construction is deliberately more permissive: transform outputs
    such as middle graphs may have isolated vertices or no edges at all.
    """

    labels: tuple[Label, ...]
    edges: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not self.labels:
            raise EmptyFamily("a hypergraph needs at least one vertex")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("vertex labels must be distinct")
        for i, edge in enumerate(self.edges):
            if not edge:
                raise EmptyEdge(f"edge {i + 1} is empty")
            for v in edge:
                if not 0 <= v < len(self.labels):
                    raise VertexOutOfRange(f"edge {i + 1} mentions vertex id {v}")

    @property
    def m(self) -> int:
        """Number of vertices."""
        return len(self.labels)

    @property
    def k(self) -> int:
        """Number of hyperedges."""
        return len(self.edges)

    @cached_property
    def id_of(self) -> dict[Label, int]:
        return {label: i for i, label in enumerate(self.labels)}

    # The analysis context: each of these is computed on first use and then
    # shared read-only by every solver, predicate and command.

    @cached_property
    def incidence(self) -> tuple[Signature, ...]:
        """Each vertex's edge indices, in increasing order."""
        rows: list[list[int]] = [[] for _ in range(self.m)]
        for i, edge in enumerate(self.edges):
            for v in edge:
                rows[v].append(i)
        return tuple(map(tuple, rows))

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        return vertex_adjacency(self)

    @cached_property
    def twins(self) -> TwinClassPartition:
        return twin_classes(self)

    @cached_property
    def distances(self) -> DistanceMatrix:
        from .metric import distance_matrix  # metric imports this module

        return distance_matrix(self)

    def edge_labels(self, index: int) -> tuple[Label, ...]:
        return tuple(self.labels[v] for v in sorted(self.edges[index]))

    def __repr__(self) -> str:
        edges = ", ".join(
            "{" + ",".join(str(x) for x in self.edge_labels(i)) + "}"
            for i in range(self.k)
        )
        return f"Hypergraph(m={self.m}, k={self.k}, edges=[{edges}])"


def build_hypergraph(
    edge_list: Sequence[Iterable[Label]], allow_non_sperner: bool = False
) -> Hypergraph:
    """Build a hypergraph from edges given as label collections.

    Vertex ids follow first appearance across the edge list, so pass
    sequences when label order matters. With the Sperner gate on (the
    default) any edge contained in another is rejected; duplicated edges
    count as mutual containment.
    """
    if not edge_list:
        raise EmptyFamily("no hyperedges given")
    labels: list[Label] = []
    index: dict[Label, int] = {}
    edges: list[frozenset[int]] = []
    for lineno, raw in enumerate(edge_list):
        members = set()
        for label in raw:
            if label not in index:
                index[label] = len(labels)
                labels.append(label)
            members.add(index[label])
        if not members:
            raise EmptyEdge(f"edge {lineno + 1} is empty")
        edges.append(frozenset(members))
    if not allow_non_sperner:
        for i, j in itertools.combinations(range(len(edges)), 2):
            if edges[i] <= edges[j]:
                raise SpernerViolation(i, j)
            if edges[j] <= edges[i]:
                raise SpernerViolation(j, i)
    return Hypergraph(tuple(labels), tuple(edges))


def is_sperner(H: Hypergraph) -> bool:
    """True when no hyperedge is contained in another."""
    return not any(
        a <= b or b <= a for a, b in itertools.combinations(H.edges, 2)
    )


def is_linear(H: Hypergraph) -> bool:
    """True when any two distinct hyperedges share at most one vertex."""
    return all(
        len(a & b) <= 1 for a, b in itertools.combinations(H.edges, 2)
    )


# ---------------------------------------------------------------------------
# Twin classes


@dataclass(frozen=True)
class TwinClassPartition:
    """Vertices grouped by incidence signature (the sorted tuple of edge
    indices containing them).

    ``excess`` maps each signature to the class size minus one: the number
    of members of that class every resolving set is forced to contain.
    ``forced`` is the union of all classes minus their representatives.
    """

    classes: dict[Signature, frozenset[int]]
    excess: dict[Signature, int]
    representatives: dict[Signature, int]
    forced: frozenset[int]

    @property
    def representative_set(self) -> frozenset[int]:
        return frozenset(self.representatives.values())

    def largest_class_size(self) -> int:
        return max(len(c) for c in self.classes.values())


def twin_classes(H: Hypergraph) -> TwinClassPartition:
    """Partition the vertices into twin classes.

    Two vertices are twins when they lie in exactly the same hyperedges;
    twins are indistinguishable by distances to anything else, which is
    what makes this the reduction core of both dimension solvers.
    Representatives are the lowest vertex id of each class.
    """
    by_sig: dict[Signature, list[int]] = {}
    for v, sig in enumerate(H.incidence):
        by_sig.setdefault(sig, []).append(v)
    classes = {sig: frozenset(vs) for sig, vs in by_sig.items()}
    excess = {sig: len(vs) - 1 for sig, vs in by_sig.items()}
    representatives = {sig: min(vs) for sig, vs in by_sig.items()}
    forced = frozenset(
        v for sig, vs in by_sig.items() for v in vs if v != representatives[sig]
    )
    return TwinClassPartition(classes, excess, representatives, forced)


# ---------------------------------------------------------------------------
# Family recognition


FAMILY_KINDS = (
    "single-edge",
    "hypercycle",
    "hyperpath",
    "hyperstar",
    "hypertree",
    "other",
)


@dataclass(frozen=True)
class FamilyDescriptor:
    """Result of family recognition.

    ``flags`` holds every matching family; ``kind`` is the most specific
    match, with precedence single-edge > hypercycle > hyperpath >
    hyperstar > hypertree > other. A two-edge overlap is both a hyperpath
    and a hyperstar, so overlaps are the normal case, not an error.
    """

    kind: str
    k: int
    n: int | None
    center: frozenset[int] | None
    edge_order: tuple[int, ...] | None
    flags: frozenset[str]


def _pattern_order(
    edges: Sequence[frozenset[int]], idxs: Sequence[int], cyclic: bool
) -> tuple[int, ...] | None:
    """Find an ordering of ``idxs`` whose pairwise intersections are exactly
    the consecutive pairs (cyclically for cycles). Returns the first ordering
    found, or None."""
    k = len(idxs)
    if k == 1:
        return None if cyclic else (idxs[0],)
    meets = {
        (a, b): bool(edges[a] & edges[b])
        for a in idxs
        for b in idxs
        if a != b
    }

    def extend(prefix: list[int], remaining: set[int]) -> tuple[int, ...] | None:
        if not remaining:
            if cyclic and not meets[(prefix[-1], prefix[0])]:
                return None
            return tuple(prefix)
        pos = len(prefix)
        for cand in sorted(remaining):
            if not meets[(prefix[-1], cand)]:
                continue
            ok = True
            for earlier_pos in range(pos - 1):
                required = cyclic and earlier_pos == 0 and pos == k - 1
                if meets[(prefix[earlier_pos], cand)] != required:
                    ok = False
                    break
            if ok:
                prefix.append(cand)
                remaining.discard(cand)
                found = extend(prefix, remaining)
                if found is not None:
                    return found
                remaining.add(cand)
                prefix.pop()
        return None

    starts = [idxs[0]] if cyclic else list(idxs)
    for start in starts:
        found = extend([start], set(idxs) - {start})
        if found is not None:
            return found
    return None


def _distinct_connectors(
    edges: Sequence[frozenset[int]], order: Sequence[int]
) -> bool:
    """Check that consecutive cyclic intersections admit pairwise distinct
    connecting vertices, so the ordering can be walked as a genuine closed
    path. For 4+ edges this follows from the intersection pattern itself;
    with 3 edges it rules out stars, whose intersections all coincide."""
    k = len(order)
    pools = [edges[order[i]] & edges[order[(i + 1) % k]] for i in range(k)]
    slots = sorted(range(k), key=lambda i: len(pools[i]))
    chosen: set[int] = set()

    def assign(s: int) -> bool:
        if s == len(slots):
            return True
        for v in sorted(pools[slots[s]]):
            if v not in chosen:
                chosen.add(v)
                if assign(s + 1):
                    return True
                chosen.discard(v)
        return False

    return assign(0)


def _cycle_order(
    edges: Sequence[frozenset[int]], idxs: Sequence[int]
) -> tuple[int, ...] | None:
    """Cyclic pattern order with distinct connectors, or None."""
    if len(idxs) < 3:
        return None
    order = _pattern_order(edges, idxs, cyclic=True)
    if order is not None and _distinct_connectors(edges, order):
        return order
    return None


def _contains_cycle_pattern(edges: Sequence[frozenset[int]]) -> bool:
    """True when some edge subset can be ordered into a hypercycle."""
    k = len(edges)
    for size in range(3, k + 1):
        for subset in itertools.combinations(range(k), size):
            inside = set(subset)
            # every cycle member meets at least two others in the subset
            if any(
                sum(1 for j in inside if j != i and edges[i] & edges[j]) < 2
                for i in inside
            ):
                continue
            if _cycle_order(edges, subset) is not None:
                return True
    return False


def classify_family(
    H: Hypergraph, recognition_cap: int = DEFAULT_RECOGNITION_CAP
) -> FamilyDescriptor:
    """Recognize which named families a connected hypergraph belongs to."""
    if not is_connected(H):
        raise Disconnected("family recognition is defined on connected hypergraphs")
    if H.k > recognition_cap:
        raise CapExceeded(
            f"family recognition searches edge orderings exhaustively and is "
            f"capped at {recognition_cap} edges; this hypergraph has {H.k}"
        )
    edges = H.edges
    sizes = {len(e) for e in edges}
    n = sizes.pop() if len(sizes) == 1 else None

    flags: set[str] = set()
    center: frozenset[int] | None = None
    edge_order: tuple[int, ...] | None = None

    path_order = _pattern_order(edges, range(H.k), cyclic=False)
    if path_order is not None:
        flags.add("hyperpath")
    cycle_order = _cycle_order(edges, range(H.k)) if H.k >= 3 else None
    if cycle_order is not None:
        flags.add("hypercycle")
    if H.k >= 2:
        intersections = {a & b for a, b in itertools.combinations(edges, 2)}
        if len(intersections) == 1:
            common = next(iter(intersections))
            if common:
                flags.add("hyperstar")
                center = common
    if H.k == 1:
        flags.add("single-edge")
    if not _contains_cycle_pattern(edges):
        flags.add("hypertree")

    kind = "other"
    for candidate in FAMILY_KINDS:
        if candidate in flags:
            kind = candidate
            break
    if kind == "hypercycle":
        edge_order = cycle_order
    elif kind in ("hyperpath", "single-edge"):
        edge_order = path_order
    return FamilyDescriptor(
        kind=kind,
        k=H.k,
        n=n,
        center=center,
        edge_order=edge_order,
        flags=frozenset(flags),
    )


# ---------------------------------------------------------------------------
# Structure report


@dataclass(frozen=True)
class StructureReport:
    """Everything the structural predicates can say about a hypergraph.

    Always produced: disconnected inputs are reported, not rejected.
    ``vacuous_pendant_edges`` are pendant edges meeting at most one other
    edge, where the pendant condition holds with nothing to check.
    """

    connected: bool
    sperner: bool
    linear: bool
    uniform: int | None
    regular: int | None
    rank: int
    degrees: tuple[int, ...]
    pendant_edges: frozenset[int]
    vacuous_pendant_edges: frozenset[int]
    branches: tuple[tuple[frozenset[int], int], ...]
    families: frozenset[str]
    family: FamilyDescriptor | None


def vertex_adjacency(H: Hypergraph) -> tuple[frozenset[int], ...]:
    """Adjacency sets of the middle graph: u and v are adjacent when some
    hyperedge contains both. Distance computation and connectivity both run
    on this relation; ``H.adjacency`` holds it once computed."""
    adj: list[set[int]] = [set() for _ in range(H.m)]
    for edge in H.edges:
        members = sorted(edge)
        for a, b in itertools.combinations(members, 2):
            adj[a].add(b)
            adj[b].add(a)
    return tuple(map(frozenset, adj))


def _reaches_all(
    nodes: Sequence[int], neighbours: Callable[[int], Iterable[int]]
) -> bool:
    """True when a graph search from the first node reaches every node."""
    seen = {nodes[0]}
    frontier = [nodes[0]]
    while frontier:
        for nxt in neighbours(frontier.pop()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == len(nodes)


def is_connected(H: Hypergraph) -> bool:
    return _reaches_all(range(H.m), H.adjacency.__getitem__)


def _pendant_edges(H: Hypergraph) -> tuple[frozenset[int], frozenset[int]]:
    pendant = set()
    vacuous = set()
    for i, edge in enumerate(H.edges):
        overlaps = [edge & other for j, other in enumerate(H.edges) if j != i and edge & other]
        if all(a & b for a, b in itertools.combinations(overlaps, 2)):
            pendant.add(i)
            if len(overlaps) <= 1:
                vacuous.add(i)
    return frozenset(pendant), frozenset(vacuous)


def _branches(
    H: Hypergraph, branch_cap: int
) -> tuple[tuple[frozenset[int], int], ...]:
    """Connected proper edge subsets, acyclic, whose unique outward edge
    meets all outside edges pairwise-compatibly (the joint condition)."""
    k = H.k
    edges = H.edges
    # meets[i]: the other edges that share a vertex with edge i
    meets = [
        frozenset(j for j in range(k) if j != i and edges[i] & edges[j])
        for i in range(k)
    ]
    found = []
    for size in range(1, min(k - 1, branch_cap) + 1):
        for subset in itertools.combinations(range(k), size):
            inside = frozenset(subset)
            if not _reaches_all(subset, lambda i: meets[i] & inside):
                continue
            outward = [i for i in subset if meets[i] - inside]
            if len(outward) != 1:
                continue
            joint = outward[0]
            outside_overlaps = [
                edges[joint] & edges[j] for j in sorted(meets[joint] - inside)
            ]
            if not all(
                a & b for a, b in itertools.combinations(outside_overlaps, 2)
            ):
                continue
            if _contains_cycle_pattern([edges[i] for i in subset]):
                continue
            found.append((frozenset(subset), joint))
    return tuple(sorted(found, key=lambda br: (len(br[0]), sorted(br[0]))))


def analyze_structure(
    H: Hypergraph,
    recognition_cap: int = DEFAULT_RECOGNITION_CAP,
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> StructureReport:
    """Compute all structural flags. Never raises: recognition beyond the
    cap and disconnected inputs simply leave the family fields empty."""
    degrees = tuple(map(len, H.incidence))
    sizes = {len(e) for e in H.edges}
    degs = set(degrees)
    connected = is_connected(H)
    pendant, vacuous = _pendant_edges(H)

    family: FamilyDescriptor | None = None
    families: frozenset[str] = frozenset()
    if connected and H.k <= recognition_cap:
        family = classify_family(H, recognition_cap)
        families = family.flags

    return StructureReport(
        connected=connected,
        sperner=is_sperner(H),
        linear=is_linear(H),
        uniform=sizes.pop() if len(sizes) == 1 else None,
        regular=degs.pop() if len(degs) == 1 else None,
        rank=max((len(e) for e in H.edges), default=0),
        degrees=degrees,
        pendant_edges=pendant,
        vacuous_pendant_edges=vacuous,
        branches=_branches(H, branch_cap),
        families=families,
        family=family,
    )
