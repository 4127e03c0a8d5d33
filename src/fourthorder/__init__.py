"""Numerical toolkit for the operator Delta^2 - Delta + V on R^3.

Spectral-measure evaluation of the propagator, zero-energy threshold
classification, weighted resolvent bounds, and a batch experiment
driver.  Modules:

    kernels           free resolvent boundary values, small-eta expansion
    spectral_map      eta <-> lambda change of variables, Stone jacobian
    oscillatory       panel quadrature for Stone-type integrals
    partial_waves     radial grids, closed-form sector kernels, resummation
    birman_schwinger  potentials, M(eta), threshold classification, tuning
    propagator        time kernels, threshold corrections, weighted norms
    decayfit          log-log decay-rate fits
    harness           experiment configs, orchestration, reports
    cli               command-line entry point
    errors            exception types
"""

from .birman_schwinger import (
    Classification,
    Potential,
    TuneResult,
    classify,
    jn_invert,
    make_potential,
    resonance_tune,
)
from .decayfit import DecayFit, fit_decay
from .kernels import (
    MINUS,
    PLUS,
    expansion_G,
    expansion_partial_sum,
    free_resolvent,
    free_resolvent_diff,
)
from .partial_waves import RadialGrid, build_grid, legendre_project
from .propagator import (
    CorrectionCache,
    F_kernel,
    G_kernel,
    Geometry,
    PropagatorSample,
    ThresholdData,
    build_threshold_data,
    evolution_kernel,
    free_kernel,
    perturbed_resolvent,
    weighted_norm,
)
from .spectral_map import eta_of_lambda, lambda_of_eta, stone_jacobian

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "CorrectionCache",
    "DecayFit",
    "F_kernel",
    "G_kernel",
    "Geometry",
    "MINUS",
    "PLUS",
    "Potential",
    "PropagatorSample",
    "RadialGrid",
    "ThresholdData",
    "TuneResult",
    "build_grid",
    "build_threshold_data",
    "classify",
    "eta_of_lambda",
    "evolution_kernel",
    "expansion_G",
    "expansion_partial_sum",
    "fit_decay",
    "free_kernel",
    "free_resolvent",
    "free_resolvent_diff",
    "jn_invert",
    "lambda_of_eta",
    "legendre_project",
    "make_potential",
    "perturbed_resolvent",
    "resonance_tune",
    "stone_jacobian",
    "weighted_norm",
    "__version__",
]
