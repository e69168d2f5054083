"""Bergman and Szego kernels on weakly pseudoconvex tube domains over R^2.

The package evaluates both kernels on the diagonal by adaptive quadrature of
their Fourier-sector representations, and checks the boundary blow-up
predicted for a finite-type boundary point against independent fits: the
exponents 2 + 1/m and 1 + 1/m along blow-up paths, the model-domain leading
coefficient, localization of the singularity, and the strictly pseudoconvex
distance limit.
"""

from .asymptotics import (
    ExpansionPrediction,
    PhiSpline,
    alpha_critical,
    beta_critical,
    growth_constant_a,
    log_L,
    log_phi,
    model_phi,
    model_profile_pair,
    phase_p,
    phase_q,
    phi_rate_probe,
    L_rate_probe,
    predict,
)
from .blowup import (
    BlowupChart,
    PolarPoint,
    from_polar,
    to_polar,
)
from .domain_model import (
    BoundaryRelativePoint,
    DefiningFunction,
    DomainError,
    blended_linear_domain,
    damp_tails,
    model_domain,
    mollify,
    rational_domain,
    table_domain,
)
from .experiments import (
    ApproachPath,
    FitResult,
    blowup_exponent,
    default_rho_grid,
    evaluate_path,
    fit_exponent,
    hormander_check,
    hormander_series,
    limit_c0,
    localization_experiment,
    path_points,
)
from .quadrature import (
    KernelValue,
    QuadratureConfig,
    QuadratureError,
    bergman_normalized,
    compute_D,
    direct_pair,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # domains
    "DomainError",
    "BoundaryRelativePoint",
    "DefiningFunction",
    "model_domain",
    "rational_domain",
    "blended_linear_domain",
    "table_domain",
    "mollify",
    "damp_tails",
    # blow-up geometry
    "PolarPoint",
    "BlowupChart",
    "to_polar",
    "from_polar",
    # quadrature
    "QuadratureError",
    "QuadratureConfig",
    "KernelValue",
    "compute_D",
    "direct_pair",
    "bergman_normalized",
    # asymptotic model
    "alpha_critical",
    "growth_constant_a",
    "beta_critical",
    "phase_p",
    "phase_q",
    "log_phi",
    "PhiSpline",
    "log_L",
    "phi_rate_probe",
    "L_rate_probe",
    "model_profile_pair",
    "model_phi",
    "ExpansionPrediction",
    "predict",
    # experiments
    "ApproachPath",
    "default_rho_grid",
    "path_points",
    "evaluate_path",
    "FitResult",
    "fit_exponent",
    "blowup_exponent",
    "limit_c0",
    "hormander_series",
    "hormander_check",
    "localization_experiment",
]
