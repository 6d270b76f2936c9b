"""Moments, Sobol indices and the method cost model.

With an orthonormal basis the mean and variance are read off the spectral
coefficients (mean = c_0, variance = sum of the remaining squared
coefficients).  Third and fourth moments of the surrogate are integrated
exactly by tensor Gauss quadrature for small dimensions, or estimated by
seeded sampling of the surrogate otherwise, and converted to skewness and
kurtosis through the raw-to-central moment identities

    skew = (E[M^3] - 3 E[M] var - E[M]^3) / std^3
    kurt = (E[M^4] - 4 E[M] E[M^3] + 6 E[M]^2 var + 3 E[M]^4) / var^2
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import RunningMoments, tensor_rule

#: skewness/kurtosis are reported as NaN below this chaos order
MIN_ORDER_HIGHER_MOMENTS = 2

#: sample count for surrogate sampling of higher moments
SURROGATE_MC_SAMPLES = 1_000_000


@dataclass
class MomentsReport:
    """First four moments of a QoI plus provenance."""

    mean: float
    std: float
    variance: float
    skewness: float
    kurtosis: float
    method: str
    evaluation_count: int

    def as_row(self):
        return {
            "method": self.method,
            "evaluation_count": self.evaluation_count,
            "mean": self.mean,
            "std": self.std,
            "variance": self.variance,
            "skewness": self.skewness,
            "kurtosis": self.kurtosis,
        }


@dataclass
class SobolReport:
    """Total sensitivity index per input dimension, each in [0, 1]."""

    total_indices: np.ndarray


def moments_from_coefficients(surrogate):
    """Mean and variance read directly off the spectral coefficients."""
    coeff = surrogate.coefficients
    mean = float(coeff[0])
    variance = float(np.sum(coeff[1:] ** 2))
    return mean, variance


def _raw_moments_tensor_gauss(surrogate):
    # exactness for the quartic of a degree-p expansion needs
    # ceil((4p + 1) / 2) Gauss points per dimension
    n_per_dim = max(1, math.ceil((4 * surrogate.order + 1) / 2))
    rule = tensor_rule(surrogate.space, n_per_dim)
    vals = surrogate.eval(rule.nodes)
    raw3 = float(rule.weights @ vals**3)
    raw4 = float(rule.weights @ vals**4)
    return raw3, raw4


def _sample_moments_surrogate(surrogate, n, seed, chunk_size=100_000):
    acc = RunningMoments()
    pool = surrogate.space.sample_pool(n, seed)
    for start in range(0, n, chunk_size):
        acc.add(surrogate.eval(pool.points[start : start + chunk_size]))
    return acc


def higher_moments(surrogate):
    """First four moments of a fitted surrogate.

    E[M^3] and E[M^4] are integrated exactly by tensor Gauss quadrature for
    m <= 4; otherwise the surrogate is sampled :data:`SURROGATE_MC_SAMPLES`
    times with seed 0.  Skewness and kurtosis are NaN below chaos order 2 or
    for zero variance.
    """
    mean, variance = moments_from_coefficients(surrogate)
    std = math.sqrt(variance)
    skewness = float("nan")
    kurtosis = float("nan")
    if surrogate.order >= MIN_ORDER_HIGHER_MOMENTS and variance > 0.0:
        if surrogate.basis.m <= 4:
            raw3, raw4 = _raw_moments_tensor_gauss(surrogate)
            skewness = (raw3 - 3.0 * mean * variance - mean**3) / std**3
            kurtosis = (
                raw4 - 4.0 * mean * raw3 + 6.0 * mean**2 * variance + 3.0 * mean**4
            ) / variance**2
        else:
            acc = _sample_moments_surrogate(surrogate, SURROGATE_MC_SAMPLES, seed=0)
            skewness = acc.skewness
            kurtosis = acc.kurtosis
    return MomentsReport(
        mean=mean,
        std=std,
        variance=variance,
        skewness=skewness,
        kurtosis=kurtosis,
        method=surrogate.fit_report.method,
        evaluation_count=surrogate.fit_report.evaluation_count,
    )


def sobol_total(surrogate):
    """Total Sobol indices from the squared spectral coefficients.

    Index i sums the squared coefficients of every basis term that involves
    dimension i, normalized by the variance.  Scaling the QoI leaves the
    indices unchanged.
    """
    coeff_sq = surrogate.coefficients**2
    indices = surrogate.basis.index_set.indices
    variance = float(np.sum(coeff_sq[1:]))
    if variance <= 0.0:
        raise ValueError("total Sobol indices are undefined for zero variance")
    involved = indices > 0
    totals = coeff_sq @ involved / variance
    return SobolReport(total_indices=totals)


def predicted_cost(method, m, p):
    """Predicted model-evaluation counts per method, dimension and order.

    - "segpc": two evaluations (direct + adjoint) at each of
      ceil((P + 1) / (m + 1)) points; reduces to 2 at p = 1 and to m + 2 at
      p = 2 for even m.
    - "wlsq": one evaluation per point, P + 1 points (oversampling ratio 1);
      m + 1 at p = 1 and (m + 1)(m + 2) / 2 at p = 2.
    - "smolyak": closed forms for the reference sparse construction,
      2m + 1 (p = 1), (m + 1)(2m + 1) (p = 2), (m + 1)(2m + 1)(2m + 3) / 3
      (p = 3).  Counts of the rules actually built here may differ slightly;
      they are reported at runtime alongside these predictions.
    """
    if m < 1 or p < 1:
        raise ValueError(f"cost model needs m >= 1 and p >= 1, got m={m}, p={p}")
    n_terms = math.comb(p + m, m)
    if method == "segpc":
        return 2 * math.ceil(n_terms / (m + 1))
    if method == "wlsq":
        return n_terms
    if method == "smolyak":
        if p == 1:
            return 2 * m + 1
        if p == 2:
            return (m + 1) * (2 * m + 1)
        if p == 3:
            return (m + 1) * (2 * m + 1) * (2 * m + 3) // 3
        raise ValueError(
            "no closed-form sparse-rule count beyond p = 3; build the rule "
            "and read its node count instead"
        )
    raise ValueError(f"unknown method {method!r}")
