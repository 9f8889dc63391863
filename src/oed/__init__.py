"""Locally optimal continuous experimental designs.

Computes log-D, A and E-optimal continuous designs with the Vertex Direction
Method, the YBT exchange algorithm, and an adaptive algorithm that replaces
grid search over the directional derivative with a Gaussian-process surrogate
and a Bayesian-optimization-style acquisition.
"""

from .algorithms import (
    AlgoConfig,
    AlgoReport,
    cluster_design,
    next_tau,
    progress_stop,
    run_adagpr,
    run_vdm,
    run_ybt,
)
from .acquisition import SobolStream, acquisition_value, minimize_acquisition
from .config import ProblemConfig, grid_from_levels, load_problem
from .designs import (
    Criterion,
    Design,
    SigmaEps,
    criterion_value,
    directional_derivatives,
    fisher_at_points,
    information_matrix,
)
from .exceptions import (
    ConfigError,
    InitializationError,
    InvalidInputError,
    NoSolutionError,
    NonFiniteModelError,
    OedError,
    SingularInformationError,
    SingularKernelError,
    UnsupportedDimensionError,
)
from .gp import (
    GPState,
    KernelParams,
    fit,
    kernel_matrix,
    log_marginal_likelihood,
    select_alpha_cv,
    select_hypers,
)
from .models import Box, ModelHandle, QuadraticModel, fd_jacobian, quadratic_model
from .report import emit_report, summary_objective
from .runner import run_and_emit
from .weights import WeightSolution, optimize_weights

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
