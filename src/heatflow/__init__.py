"""Lipschitz transport maps onto Gaussian perturbation measures via heat flow.

The package builds the interpolation map pushing the standard Gaussian
measure onto targets e^{-V} dgamma, certifies its Lipschitz constant from
closed-form curvature budgets, and ships the independent oracles and
counterexamples needed to verify every bound numerically at desk scale.
"""

from . import bounds, diagnostics, errors, flow, potentials, quadrature, semigroup
from .bounds import (
    BoundSummary,
    LambdaProfile,
    bound_summary,
    combined_profile,
    curvature_profile_value,
    lipschitz_bound,
    lipschitz_from_profile,
    oscillation_profile_value,
    profile_integral_split,
    switch_time,
)
from .flow import FlowIntegrator, TrajectoryRecord, TransportResult
from .potentials import (
    GridSpec,
    Potential,
    bump,
    caffarelli_reduction,
    from_config,
    from_family,
    gaussian,
    linear_tail,
    lipschitz_regularize,
    mollify,
    normalize,
    sharpness,
    sharpness_critical_scale,
    tabulated,
    validate_metadata,
    vt_counterexample,
)
from .quadrature import QuadratureScheme, gauss_hermite_1d
from .semigroup import SemigroupEvaluator, concavity_profile, ou_expectation

__version__ = "0.1.0"
