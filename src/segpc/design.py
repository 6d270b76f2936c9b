"""Sample weighting and greedy D-optimal subset selection.

From a large pool of candidate points, the selection step ranks the points
that maximize (greedily) the determinant of the weighted information matrix.
This is done with Householder QR with column pivoting applied to the
transposed, row-weighted measurement matrix: pivot order ranks the candidate
points, and the diagonal magnitudes |R_ii| track the incremental contribution
of each pivot to |det|.  The factorization is one call to LAPACK ``geqp3``
(the BLAS-3 pivoted QR) made in place on that temporary matrix: no Q factor
is formed and R is never copied out, only its diagonal is read.

The per-point weights come from asymptotic sampling theory: for Gaussian
dimensions ``exp(-||xi||^2 / 4)`` over the Gaussian coordinates jointly, for
uniform dimensions ``(1 - xi_k^2)^(1/4)`` per coordinate.  Mixed spaces
multiply the two factors.  These are "square-root" weights: regression
multiplies rows by them directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import RankDeficientError
from .spaces import Gaussian

#: pivots below this fraction of the leading pivot flag a rank-deficient pool
RANK_TOL = 1e-12


def coherence_weights(space, points):
    """Stability weights w^(1/2) for a set of standardized points.

    Gaussian dimensions contribute ``exp(-||xi_G||^2 / 4)`` where xi_G collects
    only the Gaussian coordinates; each uniform dimension contributes
    ``(1 - xi_k^2)^(1/4)``.  A uniform coordinate exactly on the boundary
    yields weight 0 (the point is effectively excluded); outside the domain is
    an error.

    Returns
    -------
    ndarray, shape (q,)
    """
    points = np.asarray(points, dtype=float)
    single = points.ndim == 1
    if single:
        points = points[None, :]
    if points.shape[1] != space.m:
        raise ValueError(
            f"points have dimension {points.shape[1]}, space has {space.m}"
        )
    weights = np.ones(points.shape[0])
    gauss_sq = np.zeros(points.shape[0])
    for k, marg in enumerate(space.marginals):
        col = points[:, k]
        if isinstance(marg, Gaussian):
            gauss_sq += col * col
        else:
            if np.any(np.abs(col) > 1.0):
                raise ValueError(
                    f"uniform coordinate {k} outside [-1, 1]; weights undefined"
                )
            weights *= (1.0 - col * col) ** 0.25
    weights *= np.exp(-0.25 * gauss_sq)
    return weights[0] if single else weights


@dataclass(frozen=True)
class WeightedMeasurement:
    """Dense measurement matrix with its per-row weights kept separate.

    ``psi`` has shape (q, P + 1); row i holds the basis values at pool point
    i, ``points[i]``.  ``w_sqrt`` holds the square-root weights; no implicit
    row scaling is done until a solve or selection needs it.
    """

    psi: np.ndarray
    w_sqrt: np.ndarray
    points: np.ndarray

    @property
    def q(self):
        return self.psi.shape[0]

    @property
    def n_terms(self):
        return self.psi.shape[1]

    def weighted(self):
        """Row-scaled matrix W^(1/2) psi."""
        return self.psi * self.w_sqrt[:, None]


def build_measurement(basis, pool, weights):
    """Assemble the q x (P + 1) measurement matrix for a candidate pool."""
    points = pool.points if hasattr(pool, "points") else np.asarray(pool, dtype=float)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("pool must contain at least one point")
    if points.shape[1] != basis.m:
        raise ValueError(
            f"pool dimension {points.shape[1]} does not match basis dimension {basis.m}"
        )
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (points.shape[0],):
        raise ValueError("one weight per pool point is required")
    psi = basis.eval(points)
    return WeightedMeasurement(psi=psi, w_sqrt=weights, points=points)


@dataclass(frozen=True)
class DesignPlan:
    """Ranked, QR-selected sample points.

    ``selected`` holds pool row indices in pivot order, ``r_diag`` the
    corresponding |R_ii| (non-increasing), and ``cond_number`` the 2-norm
    condition number of the selected weighted submatrix.
    """

    selected: np.ndarray
    points: np.ndarray
    w_sqrt: np.ndarray
    r_diag: np.ndarray
    cond_number: float

    @property
    def n_selected(self):
        return self.selected.shape[0]


def qr_select(meas, n_sel):
    """Greedily select ``n_sel`` pool points maximizing the design determinant.

    Applies pivoted QR to the (P + 1) x q matrix ``(W^(1/2) psi)^T``; the first
    ``n_sel`` pivot columns are the selected points.

    Raises
    ------
    ValueError
        If ``n_sel`` is out of range or the weighted measurement holds a NaN
        or an infinity.
    RankDeficientError
        If a pivot magnitude collapses below ``RANK_TOL`` times the leading
        one before ``n_sel`` points are found (pool too small or degenerate).
    """
    n_terms = meas.n_terms
    if n_sel < 1:
        raise ValueError(f"must select at least one point, got {n_sel}")
    if n_sel > min(meas.q, n_terms):
        raise ValueError(
            f"cannot select {n_sel} points: pool has {meas.q}, basis has "
            f"{n_terms} terms"
        )
    # (W^(1/2) psi)^T is a Fortran-ordered temporary that nothing else reads,
    # so geqp3 factors it in place; the workspace query keeps LAPACK's block
    # size, and with it the pivots and |R_ii| bits, equal to scipy.linalg.qr's
    a = np.asarray_chkfinite(meas.weighted().T)
    (geqp3,) = get_lapack_funcs(("geqp3",), (a,))
    lwork = int(geqp3(a, lwork=-1, overwrite_a=True)[-2][0].real)
    r_fact, piv, _, _, info = geqp3(a, lwork=lwork, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK geqp3")
    r_diag = np.abs(np.diagonal(r_fact)[:n_sel])
    if r_diag[0] == 0.0 or np.any(r_diag < RANK_TOL * r_diag[0]):
        raise RankDeficientError(
            "candidate pool is numerically rank deficient for this basis; "
            "enlarge the pool or lower the chaos order"
        )
    selected = piv[:n_sel] - 1  # geqp3 pivots are 1-based
    sub = meas.psi[selected] * meas.w_sqrt[selected, None]
    cond_number = float(np.linalg.cond(sub))
    return DesignPlan(
        selected=selected,
        points=meas.points[selected],
        w_sqrt=meas.w_sqrt[selected],
        r_diag=r_diag,
        cond_number=cond_number,
    )

