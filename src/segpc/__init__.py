"""Sensitivity-enhanced polynomial chaos surrogates.

Gradient-augmented weighted least-squares fitting of polynomial chaos
expansions at greedily D-optimal sample points, with sparse-quadrature and
Monte-Carlo baselines and built-in model problems.
"""

from .spaces import Gaussian, SamplePool, StochasticSpace, Uniform
from .orthopoly import (
    ChaosBasis,
    MultiIndexSet,
    build_index_set,
    univariate_table,
)
from .design import (
    DesignPlan,
    WeightedMeasurement,
    build_measurement,
    coherence_weights,
    qr_select,
)
from .regression import (
    FitReport,
    PceSurrogate,
    fit_segpc,
    fit_wlsq,
    segpc_point_count,
)
from .quadrature import (
    QuadratureRule,
    gauss_rule,
    monte_carlo_moments,
    quadrature_fit,
    smolyak_rule,
    tensor_rule,
)
from .postproc import (
    MomentsReport,
    SobolReport,
    higher_moments,
    moments_from_coefficients,
    predicted_cost,
    sobol_total,
)
from .models import (
    Model,
    ModelEvaluation,
    ishigami_mean,
    ishigami_model,
    ishigami_sobol_total,
    ishigami_variance,
    ode_mean,
    ode_model,
    ode_variance,
)
from .burgers import (
    NOMINAL_INLET_COEFFS,
    BurgersState,
    burgers_adjoint,
    burgers_model,
    burgers_qoi,
    burgers_solve,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Gaussian",
    "Uniform",
    "StochasticSpace",
    "SamplePool",
    "ChaosBasis",
    "MultiIndexSet",
    "build_index_set",
    "univariate_table",
    "DesignPlan",
    "WeightedMeasurement",
    "coherence_weights",
    "build_measurement",
    "qr_select",
    "PceSurrogate",
    "FitReport",
    "fit_wlsq",
    "fit_segpc",
    "segpc_point_count",
    "QuadratureRule",
    "gauss_rule",
    "tensor_rule",
    "smolyak_rule",
    "quadrature_fit",
    "monte_carlo_moments",
    "MomentsReport",
    "SobolReport",
    "moments_from_coefficients",
    "higher_moments",
    "sobol_total",
    "predicted_cost",
    "Model",
    "ModelEvaluation",
    "ode_model",
    "ode_mean",
    "ode_variance",
    "ishigami_model",
    "ishigami_mean",
    "ishigami_variance",
    "ishigami_sobol_total",
    "BurgersState",
    "burgers_solve",
    "burgers_qoi",
    "burgers_adjoint",
    "burgers_model",
    "NOMINAL_INLET_COEFFS",
    "errors",
]
