"""paramgrid: approximation sets for linear multi-parametric optimization.

Turn any exact or alpha-approximate solver for the non-parametric version of
a problem into a ((1 + eps) * alpha)-approximation for its K-parametric
version: solve at the corners of boxes on a logarithmic parameter grid, fill
every box whose corners agree, then answer arbitrary parameter queries by
lifting them onto the grid.  Ships exact min s-t-cut, knapsack and
independence-system oracles, a brute-force verification layer, and
hard-instance fixtures.
"""

from .engine import (
    ApproximationSet,
    Oracle,
    OracleFamily,
    approximate,
    default_oracle,
    query,
)
from .errors import (
    DegenerateInstanceError,
    DomainError,
    EpsilonRangeError,
    GridCapError,
    InvalidInstanceError,
    OracleError,
    ParamGridError,
    SnapRangeError,
    TooLargeError,
)
from .grid import GridSpec, grid_points, snap
from .model import (
    ExplicitList,
    ProblemInstance,
    Sense,
    SolutionRecord,
    as_fraction,
    augmented_evaluate,
    check_lambda,
    check_weight,
    compute_lambda_min,
    evaluate,
    explicit_instance,
)
from .oracle import (
    ExhaustiveOracle,
    VerificationReport,
    enumerate_solutions,
    sample_parameters_labeled,
    verify_approximation_set,
    verify_on_weights,
)
from .weights import (
    LiftCertificate,
    lambda_from_weight,
    lift_to_cone,
    threshold,
    weight_from_lambda,
)

__version__ = "0.1.0"

__all__ = [
    "ApproximationSet",
    "DegenerateInstanceError",
    "DomainError",
    "EpsilonRangeError",
    "ExhaustiveOracle",
    "ExplicitList",
    "GridCapError",
    "GridSpec",
    "InvalidInstanceError",
    "LiftCertificate",
    "Oracle",
    "OracleError",
    "OracleFamily",
    "ParamGridError",
    "ProblemInstance",
    "Sense",
    "SnapRangeError",
    "SolutionRecord",
    "TooLargeError",
    "VerificationReport",
    "approximate",
    "as_fraction",
    "augmented_evaluate",
    "check_lambda",
    "check_weight",
    "compute_lambda_min",
    "default_oracle",
    "enumerate_solutions",
    "evaluate",
    "explicit_instance",
    "grid_points",
    "lambda_from_weight",
    "lift_to_cone",
    "query",
    "sample_parameters_labeled",
    "snap",
    "threshold",
    "verify_approximation_set",
    "verify_on_weights",
    "weight_from_lambda",
]
