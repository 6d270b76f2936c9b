"""One weighted least-squares solve for chaos fits, gradients optional.

:func:`fit_wlsq` solves ``min_c || W^(1/2) (g - Phi c) ||_2``.  Without
gradients ``Phi`` is the basis matrix psi and ``g`` the QoI values at the
sample points.  With gradients (the sensitivity-enhanced fit, se-gPC) it
stacks, for every dimension k, one more block of equations
``dQ/dxi_k = (dpsi/dxi_k) c`` under the value rows: 1 + m equations per
point at the cost of two model evaluations (one direct, one adjoint), so
``ceil((P + 1) / (m + 1))`` points reach P + 1 equations.  Gradient rows
reuse the weight of their sample point.

The rectangular system is solved by orthogonal factorization (SVD-based
least squares); forming the normal equations would square the condition
number.  The reported condition number comes from the singular values of
that same solve, taken over the resolved subspace: the largest over the
smallest singular value above the rank cutoff.  :func:`fit_segpc` evaluates
a model's values and gradients at a design plan's leading points and fits them.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import InsufficientSamplesError, RankDeficientError
from .orthopoly import ChaosBasis
from .parallel import evaluate_with_gradients
from .spaces import MARGINALS, StochasticSpace

#: relative singular-value cutoff used to declare a regression rank deficient
_RCOND = 1e-12


@dataclass
class FitReport:
    """Bookkeeping attached to every fitted surrogate.

    ``rank`` is the numerical rank of the weighted design matrix; it equals
    the coefficient count except for rank-deficient sensitivity-enhanced fits
    (see :func:`fit_segpc`).  ``cond_number`` is ``s[0] / s[rank - 1]`` of
    its singular values, so round-off directions do not enter it.
    """

    method: str
    n_points: int
    n_equations: int
    residual_norm: float
    cond_number: float
    evaluation_count: int
    rank: int = -1


class PceSurrogate:
    """Fitted spectral expansion bound to a basis and its space.

    Immutable once constructed; evaluation and differentiation are pure.
    """

    def __init__(self, coefficients, basis, fit_report):
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != (basis.n_terms,):
            raise ValueError(
                f"expected {basis.n_terms} coefficients, got {coefficients.shape}"
            )
        self.coefficients = coefficients
        self.basis = basis
        self.fit_report = fit_report

    @property
    def space(self):
        return self.basis.space

    @property
    def order(self):
        return self.basis.order

    def __repr__(self):
        return (
            f"PceSurrogate(m={self.basis.m}, order={self.order}, "
            f"method={self.fit_report.method!r})"
        )

    def eval(self, points):
        """Surrogate values (n,) at rows (n, m) of standardized points."""
        vals = self.basis.eval(points)
        return vals @ self.coefficients

    def grad(self, points):
        """Surrogate gradients (n, m) w.r.t. standardized coordinates at rows (n, m)."""
        grads = self.basis.grad(points)
        return grads @ self.coefficients

    def to_dict(self):
        return {
            "schema": "segpc/surrogate-v1",
            "dim": self.basis.m,
            "order": self.order,
            "families": list(self.basis.families),
            "marginals": [{"kind": marg.kind, **asdict(marg)} for marg in self.space.marginals],
            "coefficients": self.coefficients.tolist(),
            "fit_report": asdict(self.fit_report),
        }

    @classmethod
    def from_dict(cls, data):
        marginals = []
        for entry in data["marginals"]:
            marginal = MARGINALS.get(entry["kind"])
            if marginal is None:
                raise ValueError(f"unknown marginal kind {entry['kind']!r}")
            marginals.append(marginal(**{f.name: entry[f.name] for f in fields(marginal)}))
        basis = ChaosBasis(StochasticSpace(marginals), data["order"])
        report = FitReport(**data["fit_report"])
        return cls(np.asarray(data["coefficients"]), basis, report)

    def save_json(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load_json(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _count_equations(basis, n_pts, n_blocks):
    """Equations of an ``n_blocks``-block system; fewer than P + 1 raise."""
    n_equations = n_blocks * n_pts
    if n_equations < basis.n_terms:
        raise InsufficientSamplesError(
            f"{n_pts} points give {n_equations} equations, fewer than "
            f"{basis.n_terms} coefficients"
        )
    return n_equations


def _shaped(name, array, shape):
    """``array`` as floats of ``shape``, or a ValueError naming the argument."""
    array = np.asarray(array, dtype=float)
    if array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}, expected {shape}")
    return array


def fit_wlsq(basis, points, w_sqrt, values, gradients=None):
    """Weighted least-squares fit from QoI values, optionally with gradients.

    Parameters
    ----------
    basis : ChaosBasis
    points : ndarray, shape (n, m)
        Standardized sample coordinates.
    w_sqrt : ndarray, shape (n,)
        Square-root weights per point.
    values : ndarray, shape (n,)
        QoI values at the points.
    gradients : ndarray, shape (n, m), optional
        dQoI/dxi_k per point in *standardized* coordinates (models apply the
        chain rule of the standardization map before returning gradients).
        Given, the fit is sensitivity-enhanced: each point costs two model
        evaluations, and a rank-deficient system yields the minimum-norm
        solution (see :func:`fit_segpc`) instead of raising.

    An argument of any other shape raises a ValueError naming it.
    """
    points = basis.space._check_shape(points, "points")
    n_pts, m = points.shape
    w_sqrt, values = _shaped("w_sqrt", w_sqrt, (n_pts,)), _shaped("values", values, (n_pts,))
    n_blocks = 1 if gradients is None else 1 + m
    n_equations = _count_equations(basis, n_pts, n_blocks)
    rows = [basis.eval(points)]
    rhs = [values]
    if gradients is not None:
        gradients = _shaped("gradients", gradients, (n_pts, m))
        # block k holds every point's derivative rows along dimension k
        rows.append(basis.grad(points).transpose(1, 0, 2).reshape(-1, basis.n_terms))
        rhs.append(gradients.T.ravel())
    w_block = np.tile(w_sqrt, n_blocks)
    design = np.vstack(rows) * w_block[:, None]
    target = np.concatenate(rhs) * w_block
    coeff, _, rank, sing = np.linalg.lstsq(design, target, rcond=_RCOND)
    if rank < basis.n_terms and gradients is None:
        with np.errstate(divide="ignore"):
            cond = float(sing[0] / sing[-1])
        raise RankDeficientError(
            f"regression matrix is rank deficient (rank {rank} of "
            f"{basis.n_terms}, condition number {cond:.3e})",
            cond_number=cond,
        )
    report = FitReport(
        method="wlsq" if gradients is None else "segpc",
        n_points=n_pts,
        n_equations=n_equations,
        residual_norm=float(np.linalg.norm(design @ coeff - target)),
        cond_number=float(sing[0] / sing[rank - 1]),
        evaluation_count=n_pts if gradients is None else 2 * n_pts,
        rank=int(rank),
    )
    return PceSurrogate(coeff, basis, report)


def segpc_point_count(n_terms, m):
    """Sample points needed by the gradient-augmented fit: ceil((P+1)/(m+1))."""
    return math.ceil(n_terms / (m + 1))


def fit_segpc(basis, plan, model, n_points=None, workers=1):
    """Sensitivity-enhanced fit at the top-ranked design points.

    Evaluates the model's value and gradient at ``plan.take(n_points)``, by
    default ``ceil((P + 1) / (m + 1))`` points (more than P + 1 may be asked;
    the plan ranks only the points taken), and hands them to :func:`fit_wlsq`.  Each point costs two evaluations
    (direct + adjoint).  A budget short of P + 1 equations or past the pool is
    refused before any evaluation; a model without gradients raises at its first one.

    At order 2 and above, fewer than m + 1 points cannot resolve polynomial
    directions orthogonal to the points' affine span, so the block system can
    be structurally rank deficient even with enough equations.  The solve then
    returns the minimum-norm solution (unresolvable coefficients stay zero)
    and records the rank in the fit report rather than failing.
    """
    n_use = segpc_point_count(basis.n_terms, basis.m) if n_points is None else int(n_points)
    _count_equations(basis, n_use, 1 + basis.m)
    points, w_sqrt = plan.take(n_use)
    values, gradients = evaluate_with_gradients(model, points, workers=workers)
    return fit_wlsq(basis, points, w_sqrt, values, gradients)
