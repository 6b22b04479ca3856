"""Parameterized generators for the named families and their closed-form
dimension values.

The closed forms are exactly the values the exact solvers must reproduce on
generated instances; the verification harness in :mod:`hyperres.verify`
cross-checks them.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .core import Hypergraph, analyze_structure
from .errors import HypothesisNotMet, InvalidSpec

FAMILIES = ("hyperpath", "hypercycle", "hyperstar", "hypertree")


class GeneratorSpec(namedtuple("GeneratorSpec", "kind k n seed", defaults=(0,))):
    """Parameters for one generated instance: the family ``kind`` (a str
    in ``FAMILIES``), the edge count ``k`` and the edge size ``n``.

    ``seed`` (an int, default 0) matters only for hypertrees (random joint
    attachment).
    """

    __slots__ = ()


def _validate(spec: GeneratorSpec) -> None:
    if spec.kind not in FAMILIES:
        raise InvalidSpec(f"unknown family {spec.kind!r}")
    if spec.n < 2:
        raise InvalidSpec("edges need at least 2 vertices")
    minimum_k = {"hyperpath": 1, "hypercycle": 3, "hyperstar": 2, "hypertree": 1}
    if spec.k < minimum_k[spec.kind]:
        raise InvalidSpec(
            f"{spec.kind} needs at least {minimum_k[spec.kind]} edges, got {spec.k}"
        )


def generate(spec: GeneratorSpec) -> Hypergraph:
    """Build the requested instance: n-uniform, linear, connected,
    Sperner, with consecutive edges overlapping in exactly one vertex.
    Labels are v1..vm in creation order.

    The ids are those ``build_hypergraph`` would give the labelled edges:
    in every family each id first appears after all smaller ones (a
    hypertree's anchor is an id already made), so first appearance is id
    order. Its Sperner gate cannot fail either: the edges are distinct
    and all of size n."""
    _validate(spec)
    k, n = spec.k, spec.n
    edges: list[list[int]]
    if spec.kind == "hyperpath":
        edges = [[i * (n - 1) + t for t in range(n)] for i in range(k)]
    elif spec.kind == "hypercycle":
        m = k * (n - 1)
        edges = [[(i * (n - 1) + t) % m for t in range(n)] for i in range(k)]
    elif spec.kind == "hyperstar":
        edges = []
        next_id = 1
        for _ in range(k):
            edges.append([0] + list(range(next_id, next_id + n - 1)))
            next_id += n - 1
    else:  # hypertree: attach each new edge to one random existing vertex
        rng = random.Random(spec.seed)
        edges = [list(range(n))]
        next_id = n
        for _ in range(k - 1):
            anchor = rng.randrange(next_id)
            edges.append([anchor] + list(range(next_id, next_id + n - 1)))
            next_id += n - 1
    m = 1 + max(map(max, edges))
    return Hypergraph(tuple(f"v{i + 1}" for i in range(m)),
                      tuple(map(frozenset, edges)))


def predicted_dim(spec: GeneratorSpec) -> int:
    """Closed-form metric dimension of the family, when one is known.

    Raises HypothesisNotMet outside the hypotheses under which the closed
    forms hold, naming the failed condition.
    """
    _validate(spec)
    k, n = spec.k, spec.n
    if spec.kind == "hyperpath":
        if n < 3:
            raise HypothesisNotMet(
                "the hyperpath formula needs spare vertices in the end edges "
                "(n >= 3)"
            )
        return 2 * (n - 2) + (k - 2) * (n - 3)
    if spec.kind == "hyperstar":
        if k < 3:
            raise HypothesisNotMet("the hyperstar formula needs k >= 3 edges")
        if n < 3:
            raise HypothesisNotMet(
                "the hyperstar formula needs spare vertices per edge (n >= 3)"
            )
        return k * (n - 2)
    if spec.kind == "hypercycle":
        if n >= 4:
            return k * (n - 3)
        if n == 3:
            return 2 if (k == 3 or k % 2 == 0) else 3
        raise HypothesisNotMet(
            "no closed form is provided for 2-uniform hypercycles"
        )
    # hypertree: the formula is instance-driven; it holds when every
    # pendant edge keeps a spare exclusive vertex
    H = generate(spec)
    report = analyze_structure(H)
    tw = H.twins
    size = dict(zip(tw.signatures, map(len, tw.members)))
    for p in sorted(report.pendant_edges):
        if size.get((p,), 0) <= 1:
            raise HypothesisNotMet(
                f"pendant edge {p + 1} has no spare exclusive vertex"
            )
    return H.m - len(tw.members)


def predicted_pd(spec: GeneratorSpec) -> int:
    """Closed-form partition dimension for hyperpaths and hypercycles."""
    _validate(spec)
    k, n = spec.k, spec.n
    if spec.kind == "hyperpath":
        return n
    if spec.kind == "hypercycle":
        if n != 3:
            return n + 1
        return 3 if k % 2 == 0 else 4
    raise HypothesisNotMet(
        f"no closed-form partition dimension is provided for {spec.kind}s"
    )
