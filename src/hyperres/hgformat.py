"""The .hg text format: one hyperedge per line as whitespace-separated
vertex labels; ``#`` starts a comment; blank lines are ignored. Vertex ids
follow first appearance."""

from __future__ import annotations

from itertools import repeat

from .core import Hypergraph, build_hypergraph
from .errors import EmptyFile


def parse_hypergraph(text: str, allow_non_sperner: bool = False) -> Hypergraph:
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    # split() drops the whitespace strip() would, so a blank line is []
    edge_lines = [edge for edge in map(str.split, lines) if edge]
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
    of ``a c / b d / c d`` does not: it comes back with b and d swapped.

    The labels are checked at once: joined by spaces and split again they
    give the same tokens exactly when none is empty or holds whitespace,
    since ``str.split`` breaks where ``str.isspace`` holds. Only when that
    or the ``#`` test fails does the loop run, to name the first bad label
    in id order."""
    tokens = list(map(str, H.labels))
    joined = " ".join(tokens)
    if "#" in joined or joined.split() != tokens:
        for label, token in zip(H.labels, tokens):
            if not token or "#" in token or any(c.isspace() for c in token):
                raise ValueError(f"label {label!r} cannot be written in .hg format")
    uncovered = set(range(H.m)).difference(*H.edges)
    if uncovered:
        label = H.labels[min(uncovered)]
        raise ValueError(f"vertex {label!r} in no edge cannot be written in .hg format")
    # " ".join(map(tokens.__getitem__, sorted(edge))) per edge, with no
    # Python frame
    lines = map(" ".join, map(map, repeat(tokens.__getitem__), map(sorted, H.edges)))
    return "\n".join(lines) + "\n"
