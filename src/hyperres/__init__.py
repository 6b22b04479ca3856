"""Exact resolvability toolkit for connected hypergraphs: metric and
partition dimension with certificates, twin-class lower bounds, closed
forms for named families, and the primal/middle/dual transforms. Inputs
with nested edges are accepted under ``allow_non_sperner``, and the bounds
and solvers are exact on them too."""

from .core import (
    FamilyDescriptor,
    Hypergraph,
    StructureReport,
    TwinClassPartition,
    analyze_structure,
    build_hypergraph,
    classify_family,
    is_connected,
    is_linear,
    is_sperner,
    twin_classes,
    vertex_adjacency,
)
from .errors import (
    CapExceeded,
    Disconnected,
    EmptyEdge,
    EmptyFamily,
    EmptyFile,
    HypergraphError,
    HypothesisNotMet,
    InvalidSpec,
    NotAPartition,
    SpernerViolation,
    VertexOutOfRange,
)
from .families import GeneratorSpec, generate, predicted_dim, predicted_pd
from .hgformat import format_hypergraph, parse_hypergraph
from .metric import Certificate, distance_matrix, eccentricity_and_diameter
from .partition import is_resolving_partition, partition_dimension, pd_lower_bound
from .resolving import (
    count_minimum_bases,
    dim_lower_bound,
    is_resolving_set,
    metric_dimension,
)
from .transforms import Multigraph, dual, middle_graph, primal_graph
from .verify import VerifyReport, VerifyRow, reference_instances, run_verification

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "Certificate",
    "Disconnected",
    "EmptyEdge",
    "EmptyFamily",
    "EmptyFile",
    "FamilyDescriptor",
    "GeneratorSpec",
    "Hypergraph",
    "HypergraphError",
    "HypothesisNotMet",
    "InvalidSpec",
    "Multigraph",
    "NotAPartition",
    "SpernerViolation",
    "StructureReport",
    "TwinClassPartition",
    "VerifyReport",
    "VerifyRow",
    "VertexOutOfRange",
    "analyze_structure",
    "build_hypergraph",
    "classify_family",
    "count_minimum_bases",
    "dim_lower_bound",
    "distance_matrix",
    "dual",
    "eccentricity_and_diameter",
    "format_hypergraph",
    "generate",
    "is_connected",
    "is_linear",
    "is_resolving_partition",
    "is_resolving_set",
    "is_sperner",
    "metric_dimension",
    "middle_graph",
    "parse_hypergraph",
    "partition_dimension",
    "pd_lower_bound",
    "predicted_dim",
    "predicted_pd",
    "primal_graph",
    "reference_instances",
    "run_verification",
    "twin_classes",
    "vertex_adjacency",
]
