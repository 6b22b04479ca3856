"""Exception types shared across the toolkit, and the work-budget record
the exact searches charge."""


class HypergraphError(Exception):
    """Base class for all errors raised by this package."""


class EmptyFamily(HypergraphError):
    """The edge family is empty."""


class EmptyEdge(HypergraphError):
    """A hyperedge has no vertices."""


class EmptyFile(HypergraphError):
    """An input file contains no hyperedge lines."""


class SpernerViolation(HypergraphError):
    """One hyperedge contains another while the Sperner gate is on."""

    def __init__(self, inner: int, outer: int):
        self.inner = inner
        self.outer = outer
        super().__init__(
            f"edge {inner + 1} is contained in edge {outer + 1}; "
            "pass allow_non_sperner to accept this input"
        )


class Disconnected(HypergraphError):
    """The operation is undefined on disconnected hypergraphs."""


class VertexOutOfRange(HypergraphError):
    """A vertex id does not exist in the hypergraph."""


class NotAPartition(HypergraphError):
    """The given class list does not partition the vertex set."""


# Units of work the exact searches may charge before they give up. On inputs
# of 14 to 40 vertices a `dim` unit took 5-21 ns and a `pd` unit 23-68 ns
# (README), so the default stops `dim` after about 0.5-2 s and `pd` after
# about 2-7 s; on long `pd` walks a unit costs 4-10 ns, and the default
# stops them after 0.4-1 s: seconds rather than hours. A `dim` walk whose
# steps read few open pairs costs more per unit: on G(60, 1/2) the
# diameter bound starts the walk at size 6, where a unit costs 24-42 ns,
# so the default stops it after 2.4-4.2 s.
DEFAULT_BUDGET = 100_000_000


class CapExceeded(HypergraphError):
    """An exact search used up its work budget; the message states the lower
    bound it proved first. Raise the budget to proceed (the solvers refuse
    rather than approximate)."""


class _Budget:
    """The work budget of one exact search. ``left`` holds the units still
    to spend and ``proved`` the lower bound the caller has proved so far.
    A walk subtracts each charge from ``left`` and calls ``exhausted`` once
    it is negative, which raises ``CapExceeded`` with that bound. A negative
    budget raises ``ValueError``, since a search that charges nothing would
    otherwise succeed under it."""

    __slots__ = ("units", "left", "search", "invariant", "proved")

    def __init__(self, units: int, search: str, invariant: str):
        if units < 0:
            raise ValueError(f"the work budget must be >= 0, got {units}")
        self.units = self.left = units
        self.search, self.invariant, self.proved = search, invariant, 0

    def exhausted(self):
        raise CapExceeded(
            f"the {self.search} search used up its work budget of "
            f"{self.units} units; it proved {self.invariant} >= {self.proved}"
        )


class InvalidSpec(HypergraphError):
    """A family generator received out-of-range parameters."""


class HypothesisNotMet(HypergraphError):
    """A closed-form value was requested outside the hypothesis under which
    the formula is known to hold; the message names the failed condition."""
