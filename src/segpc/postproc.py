"""Moments, Sobol indices and the method cost model.

With an orthonormal basis the mean and variance are read off the spectral
coefficients (mean = c_0, variance = sum of the remaining squared
coefficients).  Third and fourth moments of a degree-p surrogate are
polynomial integrals of degree <= 4p, so a rule exact to that degree gives
them exactly:

- m <= 4: the tensor Gauss rule with 2p + 1 points per dimension;
- m > 4: the sparse rule at level 2p + 1, while its tensor blocks hold at
  most :data:`SURROGATE_MC_SAMPLES` rows before merging (m <= 22 at p = 2);
- beyond that, :data:`SURROGATE_MC_SAMPLES` seeded samples of the surrogate.

Sampled values give central moments directly (two passes over the held
values); the exact raw moments are converted to skewness and kurtosis
through the raw-to-central identities

    skew = (E[M^3] - 3 E[M] var - E[M]^3) / std^3
    kurt = (E[M^4] - 4 E[M] E[M^3] + 6 E[M]^2 var + 3 E[M]^4) / var^2
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import sample_moments, smolyak_row_count, smolyak_rule, tensor_rule

#: skewness/kurtosis are reported as NaN below this chaos order
MIN_ORDER_HIGHER_MOMENTS = 2

#: sample count for surrogate sampling of higher moments, and the most rows
#: a sparse rule may hold before merging to be used instead
SURROGATE_MC_SAMPLES = 1_000_000

#: surrogate samples evaluated per basis-matrix block
SURROGATE_EVAL_CHUNK = 100_000


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


def _sample_moments_surrogate(surrogate, n, seed):
    """Skewness and kurtosis of ``n`` seeded samples of the surrogate."""
    pool = surrogate.space.sample_pool(n, seed)
    values = np.concatenate([
        surrogate.eval(pool.points[start : start + SURROGATE_EVAL_CHUNK])
        for start in range(0, n, SURROGATE_EVAL_CHUNK)
    ])
    return sample_moments(values)[2:]


def _skewness_kurtosis(surrogate, mean, variance):
    """Skewness and kurtosis of the surrogate, exact wherever a rule is cheap."""
    space = surrogate.space
    # 2p + 1 Gauss points per dimension, or the sparse rule of that level,
    # integrate the degree-4p quartic of a degree-p expansion exactly
    n_exact = 2 * surrogate.order + 1
    if space.m <= 4:
        rule = tensor_rule(space, n_exact)
    elif smolyak_row_count(space.m, n_exact) <= SURROGATE_MC_SAMPLES:
        rule = smolyak_rule(space, n_exact)
    else:
        return _sample_moments_surrogate(surrogate, SURROGATE_MC_SAMPLES, seed=0)
    vals = surrogate.eval(rule.nodes)
    raw3 = float(rule.weights @ vals**3)
    raw4 = float(rule.weights @ vals**4)
    skewness = (raw3 - 3.0 * mean * variance - mean**3) / math.sqrt(variance) ** 3
    kurtosis = (
        raw4 - 4.0 * mean * raw3 + 6.0 * mean**2 * variance + 3.0 * mean**4
    ) / variance**2
    return skewness, kurtosis


def higher_moments(surrogate):
    """First four moments of a fitted surrogate.

    E[M^3] and E[M^4] are integrated exactly by the tensor Gauss rule for
    m <= 4 and by the level-(2p + 1) sparse rule for m > 4.  When that sparse
    rule's blocks would hold more than :data:`SURROGATE_MC_SAMPLES` rows, the
    surrogate is sampled that many times with seed 0 instead.  Skewness and
    kurtosis are NaN below chaos order 2 or for zero variance.
    """
    mean, variance = moments_from_coefficients(surrogate)
    std = math.sqrt(variance)
    skewness = float("nan")
    kurtosis = float("nan")
    if surrogate.order >= MIN_ORDER_HIGHER_MOMENTS and variance > 0.0:
        skewness, kurtosis = _skewness_kurtosis(surrogate, mean, variance)
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
