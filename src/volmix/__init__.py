"""Gaussian Volterra processes observed through a noisy Brownian channel.

The library simulates moving averages of Brownian increments through
Volterra kernels, computes the conditional law of the hidden process
given a mixed (noisy) observation of its driver in closed form, and
quantifies how much conditioning reduces measurement error.
"""

from .kernels import (
    BrownianIdentity,
    ExponentialOU,
    RiemannLiouville,
    TabulatedKernel,
    TimeGrid,
    VolterraKernel,
    cell_average_matrix,
    covariance,
    covariance_matrix,
    psd_defect,
    validate_covariance_matrix,
)
from .mse import (
    MseReport,
    filtered_mse_analytic,
    naive_mse_analytic,
    variance_reduction_report,
)
from .predict import (
    PredictionLaw,
    conditional_covariance_matrix,
    conditional_mean_path,
    prediction_law,
    present_variance,
    rho_to_mix,
)
from .simulate import (
    MixParams,
    NoiseDraw,
    draw_noise,
    mix,
    noise_matrix,
)

__all__ = [
    "BrownianIdentity",
    "ExponentialOU",
    "MixParams",
    "MseReport",
    "NoiseDraw",
    "PredictionLaw",
    "RiemannLiouville",
    "TabulatedKernel",
    "TimeGrid",
    "VolterraKernel",
    "cell_average_matrix",
    "conditional_covariance_matrix",
    "conditional_mean_path",
    "covariance",
    "covariance_matrix",
    "draw_noise",
    "filtered_mse_analytic",
    "mix",
    "naive_mse_analytic",
    "noise_matrix",
    "prediction_law",
    "present_variance",
    "psd_defect",
    "rho_to_mix",
    "validate_covariance_matrix",
    "variance_reduction_report",
]

__version__ = "0.1.0"
