"""The .hg text format: one hyperedge per line as whitespace-separated
vertex labels; ``#`` starts a comment; blank lines are ignored. Vertex ids
follow first appearance."""

from __future__ import annotations

from .core import Hypergraph, build_hypergraph
from .errors import EmptyFile


def parse_hypergraph(text: str, allow_non_sperner: bool = False) -> Hypergraph:
    edge_lines: list[list[str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        edge_lines.append(line.split())
    if not edge_lines:
        raise EmptyFile("no hyperedge lines found")
    return build_hypergraph(edge_lines, allow_non_sperner=allow_non_sperner)


def format_hypergraph(H: Hypergraph) -> str:
    """The .hg text of H: each edge on one line, its labels in vertex-id
    order. Raises ``ValueError`` for a label that is not one token, and for
    a vertex in no edge, which the format cannot express.

    parse(format(H)) has the same edges, as label sets, in the same order.
    It has H's vertex ids only when they follow first appearance along that
    text, as they do in every ``parse_hypergraph`` result. The middle graph
    of ``a c / b d / c d`` does not: it comes back with b and d swapped."""
    for label in H.labels:
        token = str(label)
        if not token or "#" in token or any(c.isspace() for c in token):
            raise ValueError(f"label {label!r} cannot be written in .hg format")
    uncovered = set(range(H.m)).difference(*H.edges)
    if uncovered:
        label = H.labels[min(uncovered)]
        raise ValueError(f"vertex {label!r} in no edge cannot be written in .hg format")
    lines = [
        " ".join(str(H.labels[v]) for v in sorted(edge)) for edge in H.edges
    ]
    return "\n".join(lines) + "\n"
