"""Resolving-set certificates, the twin-class lower bound, exact metric
dimension, and minimum-basis counting.

The exact solver searches only vertex sets of the form F union S, where F
is the forced set (every twin class minus its representative) and S ranges
over subsets of the representatives in increasing size. Any resolving set
can be rewritten into this form by repeated same-class swaps without
changing its size, so the restricted search is still exact; the argument is
spelled out in the package README.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

# twin_classes is not called here (the search reads H.twins); the name stays
# bound because perfbench/test_perfbench.py checks that its span recorder
# restores the original function in this module.
from .core import Hypergraph, twin_classes  # noqa: F401
from .errors import CapExceeded, Disconnected, VertexOutOfRange
from .metric import DistanceMatrix

# The subset search enumerates up to 2^|R| candidate sets; refuse beyond
# this many representatives rather than approximate.
DEFAULT_REPRESENTATIVE_CAP = 24
# count_minimum_bases enumerates binom(|R|, dim - |F|) subsets.
DEFAULT_ENUMERATION_CAP = 1_000_000


@dataclass(frozen=True)
class ResolvingSetCertificate:
    """A landmark set with every vertex's distance tuple.

    ``valid`` iff the representations of vertices outside the landmark set
    are pairwise distinct (landmark members are always distinguished by
    their own zero coordinate). ``conflict`` is the lexicographically first
    unresolved pair when invalid.
    """

    landmarks: tuple[int, ...]
    representations: dict[int, tuple[int, ...]]
    valid: bool
    conflict: tuple[int, int] | None

    @classmethod
    def of(
        cls, D: DistanceMatrix, W: tuple[int, ...]
    ) -> ResolvingSetCertificate:
        reps, conflict = D.certify([(w,) for w in W])
        return cls(W, reps, conflict is None, conflict)


def is_resolving_set(H: Hypergraph, W) -> ResolvingSetCertificate:
    """Certificate for whether the ordered vertex set W resolves H."""
    seen = []
    for v in W:
        if not 0 <= v < H.m:
            raise VertexOutOfRange(f"vertex id {v}")
        if v not in seen:
            seen.append(v)
    D = H.distances
    if not D.connected:
        raise Disconnected("resolving sets are defined on connected hypergraphs")
    return ResolvingSetCertificate.of(D, tuple(seen))


def dim_lower_bound(H: Hypergraph) -> int:
    """Sum of all twin-class excess values: every resolving set must pick
    all but one member of each twin class."""
    return sum(H.twins.excess.values())


def _candidates(H: Hypergraph, representative_cap: int):
    """Yield (S, F union S) for every subset S of the representatives, in
    search order: by increasing size, lexicographic by representative id
    within a size."""
    if not H.distances.connected:
        raise Disconnected("metric dimension is defined on connected hypergraphs")
    tw = H.twins
    reps = sorted(tw.representatives.values())
    forced = sorted(tw.forced)
    if len(reps) > representative_cap:
        raise CapExceeded(
            f"{len(reps)} representative vertices exceed the exact-search cap "
            f"of {representative_cap}"
        )
    for size in range(len(reps) + 1):
        for extra in itertools.combinations(reps, size):
            yield extra, tuple(sorted(forced + list(extra)))


def _resolves(entries, W: tuple[int, ...]) -> bool:
    inside = set(W)
    seen = set()
    for v, row in enumerate(entries):
        if v in inside:
            continue
        key = tuple(row[w] for w in W)
        if key in seen:
            return False
        seen.add(key)
    return True


def metric_dimension(
    H: Hypergraph, representative_cap: int = DEFAULT_REPRESENTATIVE_CAP
) -> tuple[int, ResolvingSetCertificate]:
    """Exact metric dimension with a certificate for the first minimum
    basis in search order (forced vertices plus representative subsets in
    increasing size, lexicographic by representative id)."""
    D = H.distances
    for _, W in _candidates(H, representative_cap):
        if _resolves(D.entries, W):
            return len(W), ResolvingSetCertificate.of(D, W)
    raise AssertionError("the full vertex set always resolves")


def count_minimum_bases(
    H: Hypergraph,
    representative_cap: int = DEFAULT_REPRESENTATIVE_CAP,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> int:
    """Exact number of distinct minimum resolving sets.

    Every minimum basis is a same-class swap variant of some resolving
    F union S: enumerate all resolving S of minimum size, expand each into
    its swap variants (each class whose representative is outside S may
    drop any one member), and count the distinct sets.
    """
    entries = H.distances.entries
    candidates = _candidates(H, representative_cap)
    first = next(extra for extra, W in candidates if _resolves(entries, W))
    tw = H.twins
    extra_size = len(first)
    subsets = comb(len(tw.representatives), extra_size)
    if subsets > enumeration_cap:
        raise CapExceeded(
            f"counting would enumerate {subsets} subsets, "
            f"above the cap of {enumeration_cap}"
        )
    same_size = itertools.takewhile(
        lambda candidate: len(candidate[0]) == extra_size, candidates
    )
    minimum = [first] + [extra for extra, W in same_size if _resolves(entries, W)]
    classes = sorted(tw.classes.values(), key=min)
    bases: set[frozenset[int]] = set()
    for extra in minimum:
        chosen = set(extra)
        # classes with representative in S stay whole; the rest contribute
        # one variant per droppable member
        variant_pools = []
        fixed: list[int] = []
        for cls in classes:
            rep = min(cls)
            if rep in chosen:
                fixed.extend(cls)
            else:
                variant_pools.append(sorted(cls))
        for drops in itertools.product(*variant_pools):
            variant = set(fixed)
            for pool, dropped in zip(variant_pools, drops):
                variant.update(pool)
                variant.discard(dropped)
            bases.add(frozenset(variant))
    return len(bases)
