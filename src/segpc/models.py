"""The QoI evaluation contract and the built-in analytic model problems.

A model binds a stochastic space to a scalar quantity of interest.  It is
evaluated at *standardized* coordinates; internally it maps them to physical
ones, and gradients are returned already chain-ruled back to standardized
coordinates (dM/dxi_k = dM/dx_k * dx_k/dxi_k).

A model takes rows (n, m) of standardized points, never one point alone: a
single point is a one-row batch.  A user model subclasses :class:`Model` and
defines ``values(points)``, n QoI values out, which serves wlsq, quadrature
and Monte Carlo; se-gPC also needs ``values_and_grads(points)``, values
(n,) and gradients (n, m) out.  The library calls both only through
:mod:`segpc.parallel`, which names the first sample with a non-finite
output, so a model need not check its own.  The analytic models state their
value and gradient once each, as numpy formulas over rows of physical
points, and their first four moments once, in ``exact_moments``.  The two
one-point methods left, :meth:`AnalyticModel.value_and_grad` and
``BurgersModel.value_and_grad``, are one-row batches that
``perfbench/spans.py`` wraps by name.

Every evaluation is stateless from the caller's view, so evaluations at
distinct points may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedModelError
from .quadrature import gauss_rule
from .spaces import StochasticSpace, Uniform


@dataclass
class ModelEvaluation:
    """One model evaluation: QoI value and its gradient."""

    value: float
    gradient: np.ndarray


class Model:
    """Base QoI contract: values M(xi) and gradients dM/dxi at rows of points."""

    name = "model"

    def __init__(self, space):
        self.space = space

    @property
    def dim(self):
        return self.space.m

    def values(self, points):
        """QoIs (n,) at the rows (n, m) of ``points``; every model defines it."""
        raise NotImplementedError(f"model {self.name!r} defines no values")

    def values_and_grads(self, points):
        """Values (n,) and gradients (n, m) at the rows (n, m) of ``points``."""
        raise UnsupportedModelError(f"model {self.name!r} provides no gradient")


class AnalyticModel(Model):
    """Model defined by closed-form value and gradient in physical coordinates.

    A subclass states its QoI once: ``_phys_value`` maps an (n, m) array of
    physical points to n values and ``_phys_grad`` to their (n, m) physical
    gradients.  ``values``, ``values_and_grads`` and the one-row
    ``value_and_grad`` all run these numpy formulas once over all their rows,
    so a point gives the same bits through every call.
    """

    def _phys_value(self, x):
        raise NotImplementedError

    def _phys_grad(self, x):
        raise NotImplementedError

    def values(self, points):
        return self._phys_value(self.space.destandardize(points))

    def values_and_grads(self, points):
        x = self.space.destandardize(points)
        return self._phys_value(x), self._phys_grad(x) * self.space.scales

    def value_and_grad(self, xi):
        """:meth:`values_and_grads` of the one-row batch of the point ``xi`` (m,)."""
        [value], [grad] = self.values_and_grads(np.asarray(xi, dtype=float)[None])
        return ModelEvaluation(value=float(value), gradient=grad)


class ExponentialDecayModel(AnalyticModel):
    """u(t; k) = exp(-k t) with a single uncertain decay rate k ~ U(0, 1).

    The QoI is the solution of du/dt = -k u, u(0) = 1 at a fixed time t; its
    sensitivity is du/dk = -t exp(-k t).
    """

    name = "ode"

    def __init__(self, t=1.0):
        if t < 0:
            raise ValueError(f"time must be >= 0, got {t}")
        super().__init__(StochasticSpace([Uniform(0.0, 1.0)]))
        self.t = float(t)

    def _phys_value(self, x):
        return np.exp(-x[:, 0] * self.t)

    def _phys_grad(self, x):
        return -self.t * np.exp(-x[:, :1] * self.t)

    def exact_moments(self):
        """Mean and std in closed form; skewness and kurtosis on a 60-point Gauss rule.

        The shape moments are centred sums of u - 1 = expm1(-k t), which keep
        their digits at small t where u itself rounds to 1; at t = 0 the QoI
        is constant.
        """
        if self.t == 0.0:
            return {"mean": 1.0, "std": 0.0, "skewness": math.nan, "kurtosis": math.nan}
        nodes, weights = gauss_rule("legendre", 60)
        shifted = np.expm1(-self.space.destandardize(nodes[:, None])[:, 0] * self.t)
        centered = shifted - weights @ shifted
        var = float(weights @ centered**2)
        return {"mean": ode_mean(self.t), "std": math.sqrt(ode_variance(self.t)),
                "skewness": float(weights @ centered**3) / var**1.5,
                "kurtosis": float(weights @ centered**4) / var**2}


ode_model = ExponentialDecayModel


def ode_mean(t):
    """Closed-form mean (1 - e^(-t)) / t of exp(-k t) over k ~ U(0, 1)."""
    if t == 0.0:
        return 1.0
    return -math.expm1(-t) / t


def ode_variance(t):
    """Closed-form variance (1 - e^(-t)) g / (2 t^2) of exp(-k t) over k ~ U(0, 1).

    g = t - 2 + (t + 2) e^(-t) = sum_{n >= 3} (-1)^(n+1) (n - 2) t^n / n! is
    summed as that series below t = 2, where the direct form cancels.
    """
    if t == 0.0:
        return 0.0
    g = (math.fsum((-1) ** (n + 1) * (n - 2) * t**n / math.factorial(n) for n in range(3, 30))
         if t < 2.0 else t - 2.0 + (t + 2.0) * math.exp(-t))
    return -math.expm1(-t) * g / (2.0 * t * t)


class IshigamiModel(AnalyticModel):
    """Y = sin(X1) + alpha sin^2(X2) + beta X3^4 sin(X1), X_i ~ U(-pi, pi).

    Strongly nonlinear, non-monotonic, with an exact variance decomposition;
    the standard global-sensitivity benchmark.
    """

    name = "ishigami"

    def __init__(self, alpha=7.0, beta=0.1):
        super().__init__(
            StochasticSpace([Uniform(-math.pi, math.pi)] * 3)
        )
        self.alpha = float(alpha)
        self.beta = float(beta)

    def _phys_value(self, x):
        return (
            np.sin(x[:, 0])
            + self.alpha * np.sin(x[:, 1]) ** 2
            + self.beta * x[:, 2] ** 4 * np.sin(x[:, 0])
        )

    def _phys_grad(self, x):
        return np.column_stack(
            [
                np.cos(x[:, 0]) * (1.0 + self.beta * x[:, 2] ** 4),
                2.0 * self.alpha * np.sin(x[:, 1]) * np.cos(x[:, 1]),
                4.0 * self.beta * x[:, 2] ** 3 * np.sin(x[:, 0]),
            ]
        )

    def exact_moments(self):
        """Closed-form mean, std, skewness and kurtosis.

        Y - a/2 = A + B with A = sin X1 (1 + b X3^4) and B = a (sin^2 X2 - 1/2)
        independent and zero-mean, E[A^3] = E[B^3] = 0: the skewness is 0 and
        E[(Y - a/2)^4] = E[A^4] + 6 E[A^2] E[B^2] + E[B^4].
        """
        a, b = self.alpha, self.beta
        pi4 = math.pi**4
        var = ishigami_variance(a, b)
        e_a2 = 0.5 * (1.0 + 2.0 * b * pi4 / 5.0 + b**2 * pi4**2 / 9.0)
        e_a4 = 0.375 * sum(math.comb(4, k) * b**k * pi4**k / (4 * k + 1) for k in range(5))
        fourth = e_a4 + 6.0 * e_a2 * a**2 / 8.0 + 3.0 * a**4 / 128.0
        return {"mean": ishigami_mean(a, b), "std": math.sqrt(var), "skewness": 0.0,
                "kurtosis": fourth / var**2}


ishigami_model = IshigamiModel


def ishigami_mean(alpha=7.0, beta=0.1):
    """Exact mean alpha / 2."""
    return alpha / 2.0


def ishigami_variance(alpha=7.0, beta=0.1):
    """Exact variance a^2/8 + b pi^4/5 + b^2 pi^8/18 + 1/2."""
    pi4 = math.pi**4
    pi8 = pi4 * pi4
    return alpha**2 / 8.0 + beta * pi4 / 5.0 + beta**2 * pi8 / 18.0 + 0.5


def ishigami_sobol_total(alpha=7.0, beta=0.1):
    """Exact total Sobol indices from the closed-form variance decomposition."""
    pi4 = math.pi**4
    pi8 = pi4 * pi4
    d1 = beta * pi4 / 5.0 + beta**2 * pi8 / 50.0 + 0.5
    d2 = alpha**2 / 8.0
    d13 = 8.0 * beta**2 * pi8 / 225.0
    total = d1 + d2 + d13
    return np.array([(d1 + d13) / total, d2 / total, d13 / total])
