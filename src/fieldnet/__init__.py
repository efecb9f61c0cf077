"""Simulation and sparse drift estimation for dynamical spatio-temporal
array data on a 2-D grid."""

__version__ = "0.1.0"

from .arrays import (
    read_dta1,
    rho,
    rho_chain,
    rho_transposed,
    rho_transposed_chain,
    vec,
    write_dta1,
)
from .bases import (
    BasisSet,
    BSplineSpec,
    DriftCoefficients,
    Grid,
    build_basis_set,
    default_basis_set,
    eval_bspline_basis,
    integrate_bspline_basis,
    memory_values,
    network_values,
    stimulus_values,
    uniform_bspline_spec,
)
from .design import (
    ImplicitDesign,
    build_design,
    compute_convolution_tensor,
    gradient,
    linear_predictor,
    model_parameter_count,
    naive_var_parameter_count,
)
from .config import stimulus_weight_profile
from .errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    FieldnetError,
    InvalidCovarianceError,
    ShapeError,
)
from .lasso import soft_threshold
from .precision import PrecisionEstimate, graphical_lasso, matrix_sqrt_psd
from .simulate import (
    NoiseModel,
    SimConfig,
    build_noise_covariance,
    build_weight_matrices,
    gaussian_covariance,
    simulate_euler,
    white_covariance,
)
from .solver import (
    FitResult,
    LambdaFit,
    MrceResult,
    PenaltySpec,
    SolverOptions,
    default_lambda_path,
    fit_block_relaxation,
    fit_component,
    fit_penalized,
    fit_reduced_rank_stimulus,
    lambda_max,
    mrce_loop,
    support_scores,
)
from .summary import (
    compute_degree_maps,
    compute_separation_profile,
    evaluate_network_grid,
    weight_density,
)
