"""Exact transport flows on metric graphs.

Edges are unit intervals carrying mass toward the parameter-0 end; a
column-stochastic routing matrix redistributes what arrives at each
vertex.  The package evolves piecewise-constant states exactly at
rational per-edge speeds (along backward characteristics), solves the
stationary resolvent problem in closed form, perturbs the flow by
pointwise absorption, and measures how rational approximations of the
speeds converge to the irrational-speed dynamics.
"""

from ._version import __version__
from .approximation import (
    ApproximationSchedule,
    ConvergenceRow,
    ConvergenceTable,
    rational_approx,
    resolvent_convergence,
    semigroup_convergence,
)
from .checks import CheckResult, run_suite
from .errors import (
    ContractionViolationError,
    MalformedGraphError,
    MalformedInputError,
    MissingVelocityError,
    NetflowError,
    NotRationalError,
    PrecisionError,
    TruncationError,
    WidthOverflowError,
    WrongOperatorError,
)
from .exact import parse_rational, parse_real
from .fileio import (
    GraphFile,
    StateFile,
    emit_plotdata,
    parse_graph_file,
    parse_graph_text,
    parse_plotdata,
    parse_state_file,
    parse_state_text,
    write_graph_text,
    write_state_text,
)
from .graph import (
    AdjacencyOperator,
    MetricGraph,
    SparseVector,
    ValidationReport,
    VelocityProfile,
    build_adjacency,
    validate_graph,
)
from .resolvent import (
    IdentityReport,
    LaplaceResult,
    ResolventResult,
    laplace_oracle,
    resolvent_general,
    resolvent_identity_check,
    resolvent_unit,
)
from .semigroup import (
    AbsorbingResult,
    AbsorptionProfile,
    evolve_absorbing,
    evolve_rational,
    evolve_unit,
)
from .states import (
    NetworkState,
    SampledState,
    TestFunction,
    boundary_residual,
    pair,
    sample,
)
from .tracing import trace_samples, trace_value

__all__ = [
    "__version__",
    "AbsorbingResult",
    "AbsorptionProfile",
    "AdjacencyOperator",
    "ApproximationSchedule",
    "CheckResult",
    "ContractionViolationError",
    "ConvergenceRow",
    "ConvergenceTable",
    "GraphFile",
    "IdentityReport",
    "LaplaceResult",
    "MalformedGraphError",
    "MalformedInputError",
    "MetricGraph",
    "MissingVelocityError",
    "NetflowError",
    "NetworkState",
    "NotRationalError",
    "PrecisionError",
    "ResolventResult",
    "SampledState",
    "SparseVector",
    "StateFile",
    "TestFunction",
    "TruncationError",
    "ValidationReport",
    "VelocityProfile",
    "WidthOverflowError",
    "WrongOperatorError",
    "boundary_residual",
    "build_adjacency",
    "emit_plotdata",
    "evolve_absorbing",
    "evolve_rational",
    "evolve_unit",
    "laplace_oracle",
    "pair",
    "parse_graph_file",
    "parse_graph_text",
    "parse_plotdata",
    "parse_rational",
    "parse_real",
    "parse_state_file",
    "parse_state_text",
    "rational_approx",
    "resolvent_convergence",
    "resolvent_general",
    "resolvent_identity_check",
    "resolvent_unit",
    "run_suite",
    "sample",
    "semigroup_convergence",
    "trace_samples",
    "trace_value",
    "validate_graph",
    "write_graph_text",
    "write_state_text",
]
